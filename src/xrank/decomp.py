"""Decompositions: irredundancy verification, envelopes, fiber condition.

A decomposition is a finite set of variety points plus a target tensor.
It irredundantly spans the target when the target lies in the span of the
embedded points but in no proper subset's span; for an independent point
set this is equivalent to all coordinates being nonzero, and dependent
sets are never irredundant (the target would already lie in the span of
an independent subset).  Both routes are implemented; the subset route is
the cross-testing fallback.
"""

import itertools
from dataclasses import dataclass

from .errors import (DimensionMismatch, EmptySet, InvalidInput, NotContained,
                     SpaceMismatch, UnsupportedDegree)
from .exactlin import FieldSpec, solve_columns
from .geometry import (MppPoint, MultiProjectiveSpace, SubspaceSpec, Tensor,
                       canonical_basis_rows, canonical_column, embed_image)


@dataclass(frozen=True)
class IrredundancyReport:
    """Verification result.  `values` holds the coefficients as raw
    field elements of `field` (None when the target is off the span)."""
    independent: bool
    in_span: bool
    field: FieldSpec
    values: tuple | None
    irredundant: bool

    def to_json(self) -> dict:
        return {
            "independent": self.independent,
            "in_span": self.in_span,
            "coefficients": (None if self.values is None
                             else [self.field.format_scalar(c)
                                   for c in self.values]),
            "irredundant": self.irredundant,
        }


@dataclass(frozen=True)
class Envelope:
    """Minimal per-factor subspaces: a sub-multiprojective space."""

    subspace: SubspaceSpec
    dims: tuple

    @property
    def is_full(self) -> bool:
        return self.dims == self.subspace.space.factor_dims

    def to_json(self) -> dict:
        d = self.subspace.to_json()
        d["dims"] = list(self.dims)
        return d


@dataclass(frozen=True)
class FiberViolation:
    i: int
    j: int
    free_factor: int


@dataclass(frozen=True)
class FiberReport:
    holds: bool
    violations: tuple

    def to_json(self) -> dict:
        return {"holds": self.holds,
                "violations": [{"i": v.i, "j": v.j,
                                "free_factor": v.free_factor}
                               for v in self.violations]}


class Decomposition:
    """Point list plus target tensor on one space; caches verification."""

    def __init__(self, space: MultiProjectiveSpace, points, target: Tensor,
                 provenance: dict | None = None):
        points = tuple(points)
        for p in points:
            if p.space is not space and p.space != space:
                raise SpaceMismatch("point on a different space")
        if target.space is not space and target.space != space:
            raise SpaceMismatch("target on a different space")
        if len(set(p.coords for p in points)) != len(points):
            raise InvalidInput("points are not pairwise distinct")
        self.space = space
        self.points = points
        self.target = target
        self.provenance = provenance
        self._images = None
        self._report = None

    def __eq__(self, other):
        return (isinstance(other, Decomposition)
                and self.space == other.space
                and self.points == other.points
                and self.target == other.target)

    def __hash__(self):
        return hash((self.space, self.points, self.target))

    @property
    def images(self):
        """The stored column of each point, in point order: its
        `geometry.embed_image`.  Over GF(p) that is its canonical
        embedding; over Q its integer image, the canonical column times
        the image's first nonzero entry.  Computed once, unless a caller
        hands them over (`_proved`)."""
        if self._images is None:
            self._images = [embed_image(self.space, p) for p in self.points]
        return self._images

    @property
    def embedded_columns(self):
        """The canonical embedding of each point, in point order: the
        `geometry.canonical_column` of each stored image, over GF(p) the
        image itself and over Q derived on every access."""
        return [canonical_column(self.space.field, c) for c in self.images]

    @classmethod
    def _proved(cls, space, points, target, provenance, images,
                report=None) -> "Decomposition":
        """A decomposition from a caller that has proved what `__init__`
        checks: the points are distinct and on the space of the target.
        It hands over the points' stored columns, in point order and in
        the form `images` describes, and with `report` the verification
        report it has proved."""
        d = cls.__new__(cls)
        d.space = space
        d.points = tuple(points)
        d.target = target
        d.provenance = provenance
        d._images = list(images)
        d._report = report
        return d

    def to_json(self) -> dict:
        d = {"space": self.space.to_json(),
             "points": [p.to_json() for p in self.points],
             "target": self.target.to_json()}
        if self.provenance is not None:
            d["provenance"] = self.provenance
        return d

    @classmethod
    def from_json(cls, data: dict) -> "Decomposition":
        try:
            space = MultiProjectiveSpace.from_json(data["space"])
            points = [MppPoint.from_json(space, p) for p in data["points"]]
            target = Tensor.from_json(space, data["target"])
            prov = data.get("provenance")
        except (KeyError, TypeError) as e:
            raise InvalidInput("bad decomposition document: %s" % e)
        return cls(space, points, target, prov)


def verify_irredundant(d: Decomposition) -> IrredundancyReport:
    """Coefficient-criterion verification (the fast route).

    Independent and in span with all coefficients nonzero <=> irredundant.
    Coefficients are reported whenever the target is in the span, even for
    dependent sets (then they are one valid choice, not unique).

    The solve runs on the stored `images`.  Over Q the image X_j is
    lead_j times the canonical column x_j, so each coefficient found is
    multiplied by its column's lead.  Scaling columns changes neither
    their independence nor their span, and the free variables of a
    dependent set stay zero, so the report is the one a solve on the
    canonical columns gives.
    """
    if d._report is not None:
        return d._report
    if not d.points:
        raise EmptySet("decomposition has no points")
    field = d.space.field
    cols = d.images
    sol = solve_columns(field, cols, d.target.coords)
    in_span = sol.coefficients is not None
    values = tuple(sol.coefficients) if in_span else None
    if in_span and not field.is_finite:
        # q = sum_j c'_j X_j and X_j = lead_j x_j: c_j = c'_j lead_j
        values = tuple(c * next(x for x in col if x)
                       for c, col in zip(values, cols))
    irr = sol.independent and in_span and all(c != 0 for c in values)
    d._report = IrredundancyReport(sol.independent, in_span, field, values,
                                   irr)
    return d._report


def verify_irredundant_exhaustive(d: Decomposition) -> IrredundancyReport:
    """Definition-based fallback: the target must be in the span and out of
    the span of every cardinality-(n-1) subset.  Cross-testing oracle for
    verify_irredundant; exponential only in the subset count n."""
    if not d.points:
        raise EmptySet("decomposition has no points")
    field = d.space.field
    cols = d.embedded_columns
    sol = solve_columns(field, cols, d.target.coords)
    in_span = sol.coefficients is not None
    irr = in_span
    if in_span and len(cols) > 1:
        for drop in range(len(cols)):
            rows = [cols[i] for i in range(len(cols)) if i != drop]
            sub = solve_columns(field, rows, d.target.coords)
            if sub.coefficients is not None:
                irr = False
                break
    values = tuple(sol.coefficients) if in_span else None
    return IrredundancyReport(sol.independent, in_span, field, values, irr)


def set_envelope(space: MultiProjectiveSpace, points) -> Envelope:
    """Per-factor spans of the point projections (minimal containing
    sub-multiprojective space of the set)."""
    points = tuple(points)
    if not points:
        raise EmptySet("envelope of an empty set")
    for p in points:
        if p.space != space:
            raise SpaceMismatch("point on a different space")
    bases = []
    for i in range(space.k):
        rows = [p.coords[i] for p in points]
        bases.append(canonical_basis_rows(space.field, rows))
    sub = SubspaceSpec.of(space, bases)
    return Envelope(sub, sub.dims)


def _flattening_rows(q: Tensor, mode: int):
    """Rows of the mode-i flattening transpose: one row per index combo of
    the other factors, entries running over factor-i coordinates."""
    # the index tuples run in embedding order, so each row takes its
    # entries in factor-i order and the rows come in order of the others
    rows = {}
    shape = (range(n + 1) for n in q.space.factor_dims)
    for index, x in zip(itertools.product(*shape), q.coords):
        rows.setdefault(index[:mode] + index[mode + 1:], []).append(x)
    return [tuple(row) for row in rows.values()]


def tensor_envelope(q: Tensor) -> Envelope:
    """Minimal sub-Segre containing the tensor: per-mode column spans of
    the flattenings.  Degree-one (Segre) spaces only."""
    space = q.space
    if not space.is_segre:
        raise UnsupportedDegree("tensor envelope needs a Segre space")
    bases = []
    for i in range(space.k):
        rows = _flattening_rows(q, i)
        bases.append(canonical_basis_rows(space.field, rows))
    sub = SubspaceSpec.of(space, bases)
    return Envelope(sub, sub.dims)


def restrict_to_envelope(q: Tensor, env: Envelope) -> Tensor:
    """Coordinates of the tensor on the envelope's reduced space."""
    sub = env.subspace
    if sub.space != q.space:
        raise SpaceMismatch("envelope on a different space")
    sol = solve_columns(q.space.field, sub.span_columns(), q.coords)
    if sol.coefficients is None:
        raise NotContained("tensor is not in the envelope span")
    return Tensor.of(sub.reduced_space(), sol.coefficients)


def extend_from_envelope(reduced: Tensor, env: Envelope) -> Tensor:
    """Inverse of restrict_to_envelope: reduced coordinates back to the
    ambient tensor space."""
    sub = env.subspace
    cols = sub.span_columns()
    if len(cols) != len(reduced.coords):
        raise DimensionMismatch("reduced tensor does not match the envelope")
    # raw sums; Tensor.of reduces them into the field
    coords = [sum(c * col[i] for c, col in zip(reduced.coords, cols))
              for i in range(len(cols[0]))]
    return Tensor.of(sub.space, coords)


def fiber_condition(d: Decomposition) -> FiberReport:
    """Minimal decompositions meet every fiber (one factor free, the others
    fixed) at most once; combinatorially, no two points may agree on all
    factors but one.  Segre spaces only."""
    if not d.space.is_segre:
        raise UnsupportedDegree("fiber condition needs a Segre space")
    if not d.points:
        raise EmptySet("fiber condition of an empty set")
    violations = []
    pts = d.points
    for i, j in itertools.combinations(range(len(pts)), 2):
        diffs = [f for f in range(d.space.k)
                 if pts[i].coords[f] != pts[j].coords[f]]
        if len(diffs) == 1:
            violations.append(FiberViolation(i, j, diffs[0]))
    return FiberReport(not violations, tuple(violations))
