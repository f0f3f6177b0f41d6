"""Field arithmetic, rank, echelon spans and coordinate solves over Q
and GF(p)."""
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrank.errors import DimensionMismatch, DivisionByZero
from xrank.exactlin import (CoordinateSolution, Echelon, FieldSpec, in_span,
                            is_prime, rank_rows, rref, solve_columns,
                            vec_add, vec_scale)

QQ = FieldSpec.parse("QQ")
GF2, GF3, GF5, GF7 = FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(7)


# ---------------------------------------------------------------- field specs

def test_fieldspec_parse_round_trip():
    assert str(FieldSpec.parse("QQ")) == "QQ"
    assert str(FieldSpec.parse("GF(7)")) == "GF(7)"
    assert FieldSpec.parse("GF(7)").modulus == 7
    assert not QQ.is_finite and GF7.is_finite


def test_fieldspec_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec.parse("GF(9)")


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-3, 5000):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_is_prime_strong_pseudoprimes_and_large_primes():
    # Carmichael numbers and strong pseudoprimes to the first few bases
    for n in (561, 41041, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not is_prime(n), n
    for n in (10 ** 9 + 7, 2 ** 61 - 1, 1000000000000000003, 2 ** 64 - 59):
        assert is_prime(n), n


def test_fieldspec_large_prime_is_fast_and_bounded():
    start = time.perf_counter()
    f = FieldSpec.parse("GF(1000000000000000003)")
    assert time.perf_counter() - start < 1.0
    assert f.modulus == 1000000000000000003
    with pytest.raises(ValueError, match="2\\*\\*64"):
        FieldSpec.parse("GF(%d)" % (2 ** 64 + 13))
    with pytest.raises(ValueError):
        is_prime(2 ** 64)


# ------------------------------------------------------------- scalar frozen

def test_add_halves_and_thirds():
    s = QQ.add(QQ.parse_scalar("1/2"), QQ.parse_scalar("1/3"))
    assert QQ.format_scalar(s) == "5/6"


def test_inverse_of_three_mod_seven():
    assert GF7.format_scalar(GF7.coerce(Fraction(1, 3))) == "5"
    assert GF7.parse_scalar("1/3") == 5
    assert GF7.mul(3, GF7.parse_scalar("1/3")) == 1


def test_division_by_zero_raises():
    for f in (GF5, GF7):
        with pytest.raises(DivisionByZero):
            f.coerce(Fraction(1, f.modulus))
        with pytest.raises(DivisionByZero):
            f.parse_scalar("3/%d" % (2 * f.modulus))


def test_rationals_stay_in_lowest_terms():
    s = QQ.add(QQ.parse_scalar("1/6"), QQ.parse_scalar("1/3"))
    assert s == Fraction(1, 2)
    assert s.denominator == 2
    assert QQ.format_scalar(s) == "1/2"
    assert QQ.format_scalar(QQ.parse_scalar("4/6")) == "2/3"


def test_scalar_string_round_trip():
    for f, texts in ((QQ, ["0", "3", "-7/3", "22/7"]),
                     (FieldSpec(11), ["0", "1", "10"])):
        for t in texts:
            assert f.format_scalar(f.parse_scalar(t)) == t


# ------------------------------------------------------------- field axioms

@pytest.mark.parametrize("field", [QQ, GF2, GF5, FieldSpec(97)], ids=str)
def test_field_axioms_on_random_triples(field):
    """Associativity, commutativity, distributivity and inverses of the
    raw `add` and `mul`; 1000 triples."""
    rng = random.Random(20260823)
    add, mul = field.add, field.mul
    zero, one, minus_one = field.zero(), field.one(), field.coerce(-1)
    for _ in range(1000):
        a, b, c = (field.random_element(rng, 30) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, zero) == a and mul(a, one) == a
        assert add(a, mul(minus_one, a)) == zero
        if a != 0:
            assert mul(a, field.coerce(1 / Fraction(a))) == one


# --------------------------------------------------------------------- rank

def test_rank_frozen_values():
    assert rank_rows(QQ, [[1, 0], [0, 1]]) == 2
    assert rank_rows(QQ, [[0, 0, 0]] * 3) == 0
    assert rank_rows(QQ, [[1, 2], [2, 4]]) == 1
    assert rank_rows(QQ, []) == 0
    assert rank_rows(GF7, [[1, 2], [2, 4]]) == 1
    assert rank_rows(GF7, [[1, 2], [3, 4]]) == 2
    assert rank_rows(GF2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _det_by_permutations(field, rows):
    n = len(rows)
    total = field.zero()
    for perm in itertools.permutations(range(n)):
        term = field.one()
        for i, j in enumerate(perm):
            term = field.mul(term, rows[i][j])
        if _perm_sign(perm) < 0:
            term = field.mul(field.coerce(-1), term)
        total = field.add(total, term)
    return total


def _rank_by_minor_expansion(field, rows, ncols):
    # largest r admitting a nonzero r x r minor; independent of elimination
    best = 0
    for r in range(1, min(len(rows), ncols) + 1):
        hit = False
        for ri in itertools.combinations(range(len(rows)), r):
            for ci in itertools.combinations(range(ncols), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if _det_by_permutations(field, sub) != field.zero():
                    hit = True
                    break
            if hit:
                break
        if not hit:
            return best
        best = r
    return best


@pytest.mark.parametrize("field", [GF2, GF3, GF5, QQ], ids=str)
def test_rank_matches_minor_expansion(field):
    rng = random.Random(hash(str(field)) & 0xFFFF)
    for _ in range(40):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [tuple(field.random_element(rng, 4) for _ in range(ncols))
                for _ in range(nrows)]
        expect = _rank_by_minor_expansion(field, rows, ncols)
        assert rank_rows(field, rows) == expect
        assert Echelon(field, rows).rank == expect


# -------------------------------------------------------------- coordinates

def test_coordinates_frozen_expressible_target():
    sol = solve_columns(QQ, [(1, 0, 0, 0), (0, 0, 0, 1)], (1, 0, 0, 1))
    assert sol.independent
    assert list(sol.coefficients) == [1, 1]


def test_coordinates_frozen_absent_target():
    assert solve_columns(QQ, [(1, 0)], (1, 1)).coefficients is None


def test_coordinates_frozen_gf2():
    sol = solve_columns(GF2, [(1, 0, 0), (0, 1, 0)], (1, 1, 0))
    assert list(sol.coefficients) == [1, 1]


def test_coordinates_round_trip_random():
    """Whenever coefficients come back, their combination reproduces the target."""
    rng = random.Random(7)
    for field in (QQ, GF3, GF7):
        for _ in range(30):
            n = rng.randint(1, 5)
            s = rng.randint(1, 4)
            cols = [tuple(field.random_element(rng, 6) for _ in range(n))
                    for _ in range(s)]
            if rng.random() < 0.5:
                target = tuple(field.random_element(rng, 6) for _ in range(n))
            else:
                weights = [field.random_element(rng, 6) for _ in range(s)]
                target = tuple(field.zero() for _ in range(n))
                for w, col in zip(weights, cols):
                    target = vec_add(field, target, vec_scale(field, w, col))
            sol = solve_columns(field, cols, target)
            if sol.coefficients is None:
                continue
            rebuilt = tuple(field.zero() for _ in range(n))
            for c, col in zip(sol.coefficients, cols):
                rebuilt = vec_add(field, rebuilt, vec_scale(field, c, col))
            assert rebuilt == tuple(field.coerce(x) for x in target)


def test_coordinates_independence_flag():
    dep = solve_columns(QQ, [(1, 0), (2, 0)], (3, 0))
    assert dep.coefficients is not None and not dep.independent
    ind = solve_columns(QQ, [(1, 0), (0, 1)], (3, 4))
    assert ind.independent and list(ind.coefficients) == [3, 4]


def test_coordinates_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_columns(QQ, [(1, 0)], (1, 0, 0))


def _reference_rref(field: FieldSpec, rows):
    """Reduced row echelon form by column-scan Gauss-Jordan, independent of
    `Echelon`: the tests' reference elimination.

    Returns (new_rows, pivot_cols).  Deterministic: for each column the
    first remaining row with a nonzero entry pivots.  Exact over both
    fields; over Q this is plain Fraction arithmetic.
    """
    p = field.modulus
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        rr = work[r]
        piv = rr[c]
        if piv != 1:
            if p is None:
                inv = 1 / Fraction(piv)
                rr = [v * inv for v in rr]
            else:
                inv = pow(piv, -1, p)
                rr = [v * inv % p for v in rr]
            work[r] = rr
        for i in range(nrows):
            f = work[i][c]
            if i != r and f != 0:
                if p is None:
                    work[i] = [x - f * y for x, y in zip(work[i], rr)]
                else:
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def _reference_solve(field, columns, target):
    """The reduced-system solve: Gauss-Jordan on [columns | target] with
    `_reference_rref`; the target's column pivoting means inconsistent, the
    pivot columns take the reduced target entries, free variables stay
    zero."""
    ncols = len(columns)
    aug = [[col[i] for col in columns] + [target[i]]
           for i in range(len(target))]
    red, pivots = _reference_rref(field, aug)
    independent = sum(1 for pc in pivots if pc < ncols) == ncols
    if ncols in pivots:
        return CoordinateSolution(None, independent)
    coeffs = [field.zero()] * ncols
    for i, pc in enumerate(pivots):
        coeffs[pc] = red[i][ncols]
    return CoordinateSolution(tuple(coeffs), independent)


def _entries(field):
    if field.is_finite:
        return st.integers(0, field.modulus - 1)
    # numerators near 10**30 make every row carry a large content
    big = st.integers(10 ** 30 - 50, 10 ** 30 + 50)
    numer = st.one_of(st.integers(-6, 6), big, big.map(lambda n: -n))
    return st.builds(Fraction, numer, st.integers(1, 5))


def _solve_cases(field):
    entry = _entries(field)

    @st.composite
    def case(draw):
        dim = draw(st.integers(1, 5))
        vec = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
        cols = draw(st.lists(vec, max_size=6))
        zero = tuple(field.zero() for _ in range(dim))
        if cols and draw(st.booleans()):
            cols.insert(draw(st.integers(0, len(cols))),
                        draw(st.sampled_from(cols + [zero])))
        kind = draw(st.sampled_from(("combination", "zero", "random")))
        if kind == "combination" and cols:
            target = zero
            for col in cols:
                c = draw(entry)
                target = vec_add(field, target,
                                 vec_scale(field, field.coerce(c), col))
        elif kind == "zero":
            target = zero
        else:
            target = draw(vec)
        return cols, target

    return case()


@pytest.mark.parametrize("field", [QQ, GF2, FieldSpec(11),
                                   FieldSpec(3037000493)], ids=str)
def test_solve_columns_matches_reference_solve(field):
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_solve_cases(field))
    def check(case):
        cols, target = case
        assert solve_columns(field, cols, target) == _reference_solve(
            field, cols, target)

    check()


def test_solve_columns_edge_cases():
    assert solve_columns(QQ, [], (0, 0)) == ((), True)
    assert solve_columns(QQ, [], (0, 1)) == (None, True)
    assert solve_columns(GF5, [(0, 0), (1, 2), (2, 4)], (3, 1)) == (
        (0, 3, 0), False)
    assert solve_columns(GF5, [(1, 2), (1, 2)], (1, 0)) == (None, False)
    sol = solve_columns(QQ, [(Fraction(10 ** 30, 3), 0), (0, 7)], (1, 1))
    assert sol == ((Fraction(3, 10 ** 30), Fraction(1, 7)), True)
    assert all(isinstance(c, Fraction) for c in sol.coefficients)


# --------------------------------------------------------------------- rref

def test_rref_is_canonical_for_the_row_space():
    rng = random.Random(11)
    for field in (QQ, GF5):
        for _ in range(25):
            rows = [tuple(field.random_element(rng, 5) for _ in range(4))
                    for _ in range(3)]
            base = rref(field, rows)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert rref(field, shuffled) == base
            # scaling a row by a nonzero constant keeps the span
            c = field.coerce(3)
            scaled = [vec_scale(field, c, rows[0])] + list(rows[1:])
            assert rref(field, scaled) == base


def _rref_cases(field):
    @st.composite
    def rows(draw):
        width = draw(st.integers(1, 5))
        row = st.lists(_entries(field), min_size=width,
                       max_size=width).map(tuple)
        out = draw(st.lists(row, max_size=6))
        zero = tuple(field.zero() for _ in range(width))
        for _ in range(draw(st.integers(0, 2))):
            # a repeated or a zero row
            out.insert(draw(st.integers(0, len(out))),
                       draw(st.sampled_from(out + [zero])))
        return out

    return rows()


@pytest.mark.parametrize("field", [QQ, GF2, FieldSpec(11),
                                   FieldSpec(3037000493)], ids=str)
def test_rref_matches_reference_rref(field):
    assert rref(field, []) == _reference_rref(field, []) == ([], [])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_rref_cases(field))
    def check(rows):
        assert rref(field, rows) == _reference_rref(field, rows)

    check()


def test_in_span_basic():
    assert in_span(QQ, [(1, 0), (0, 1)], (5, -2))
    assert not in_span(QQ, [(1, 0)], (0, 1))
    assert in_span(GF3, [(1, 2)], (2, 1))


def test_in_span_gf_frozen():
    assert in_span(GF5, [(1, 2, 3)], (2, 4, 1))
    assert not in_span(GF5, [(1, 2, 3)], (2, 4, 0))
    assert in_span(GF5, [], (0, 0, 0))
    assert not in_span(QQ, [], (0, 1))


# ------------------------------------------------------------------ echelon

def test_echelon_insert_reduce():
    e = Echelon(GF7, [(1, 2, 3), (2, 4, 6)])
    assert e.rank == 1
    assert e.insert((0, 1, 1)) and e.rank == 2
    assert not e.insert((1, 3, 4))
    assert e.contains((1, 3, 4)) and not e.contains((0, 0, 1))
    assert e.reduce((1, 2, 3)) == [0, 0, 0]
    with pytest.raises(DimensionMismatch):
        e.contains((1, 2))


def test_echelon_over_q_stays_exact():
    e = Echelon(QQ, [(1, Fraction(1, 3)), (3, 1)])
    assert e.rank == 1
    assert e.contains((Fraction(-2, 7), Fraction(-2, 21)))
    assert not e.contains((1, 0))
    assert all(isinstance(x, Fraction) for x in e.reduce((1, 0)))


def _old_in_span(field, rows, vec):
    base = [r for r in rows if any(v != 0 for v in r)]
    if not any(v != 0 for v in vec):
        return True
    return rank_rows(field, base + [list(vec)]) == rank_rows(field, base)


def _field_rows(field):
    if field.is_finite:
        entry = st.integers(0, field.modulus - 1)
    else:
        entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

    @st.composite
    def rows_and_vec(draw):
        width = draw(st.integers(1, 5))
        row = st.lists(entry, min_size=width, max_size=width).map(tuple)
        rows = draw(st.lists(row, max_size=6))
        if rows and draw(st.booleans()):
            # a combination of the rows, so membership is exercised too
            coeffs = draw(st.lists(entry, min_size=len(rows),
                                   max_size=len(rows)))
            vec = tuple(field.zero() for _ in range(width))
            for c, r in zip(coeffs, rows):
                vec = vec_add(field, vec,
                              vec_scale(field, field.coerce(c), r))
        else:
            vec = draw(row)
        return rows, vec

    return rows_and_vec()


@pytest.mark.parametrize("field", [QQ, GF2, FieldSpec(11)], ids=str)
def test_echelon_agrees_with_rank_and_two_rank_in_span(field):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_field_rows(field))
    def check(case):
        rows, vec = case
        e = Echelon(field, rows)
        assert e.rank == rank_rows(field, rows)
        # the reference's pivot count is an independent column-scan
        # elimination
        assert e.rank == len(_reference_rref(field, rows)[1])
        assert e.contains(vec) == _old_in_span(field, rows, vec)
        assert in_span(field, rows, vec) == e.contains(vec)
        grown = Echelon(field, rows)
        assert grown.insert(vec) == (not e.contains(vec))

    check()
