"""Tracer arithmetic and hygiene."""
import sys

import pytest

import tracer as tracing


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def _nest(hot_leaf):
    """outer(3s own) -> [mid(1s own) -> leaf(2s) x2] + leaf(4s) directly."""
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def leaf(seconds):
        clock.tick(seconds)

    leaf = tr.wrap("exactlin.rank_rows", leaf, hot=hot_leaf)

    def mid():
        clock.tick(0.5)
        leaf(2.0)
        leaf(2.0)
        clock.tick(0.5)

    mid = tr.wrap("oracle.ground_set", mid)

    def outer():
        clock.tick(1.0)
        mid()
        clock.tick(1.0)
        leaf(4.0)
        clock.tick(1.0)

    tr.wrap("oracle.brute_rank", outer)()
    return tr


@pytest.mark.parametrize("hot_leaf", [False, True])
def test_self_time_on_a_synthetic_nest(hot_leaf):
    tr = _nest(hot_leaf)
    funcs = tr.stats()["functions"]
    assert funcs["oracle.brute_rank"] == [1, pytest.approx(3.0)]
    assert funcs["oracle.ground_set"] == [1, pytest.approx(1.0)]
    assert funcs["exactlin.rank_rows"] == [3, pytest.approx(8.0)]
    spans = {s[0]: s for s in tr.spans}
    outer, mid = spans["oracle.brute_rank"], spans["oracle.ground_set"]
    assert (outer[1], outer[2], outer[3]) == (0.0, 12.0, None)
    assert (mid[1], mid[2], mid[3]) == (1.0, 6.0, tr.spans.index(outer))
    if hot_leaf:
        # one aggregate per parent span, not one span per call
        assert sorted(tr.aggregates.values()) == [[1, 4.0, 0.0],
                                                  [2, 4.0, 0.0]]
    else:
        assert len(tr.spans) == 5


def test_layer_shares_sum_self_times_over_wall():
    metrics = tracing.layer_metrics(_nest(True).stats(), wall_s=12.0)
    assert metrics["oracle.self_s"] == pytest.approx(4.0)
    assert metrics["oracle.share"] == pytest.approx(4.0 / 12.0)
    assert metrics["exactlin.share"] == pytest.approx(8.0 / 12.0)
    assert list(metrics) == list(tracing.per_layer_units())


def _xrank_namespace():
    import xrank.cli  # noqa: F401  (cli.main is traced too)
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "xrank" or name.startswith("xrank.")
            for attr, value in vars(mod).items()}


def test_install_and_uninstall_keep_original_identities():
    before = _xrank_namespace()
    tr = tracing.Tracer()
    tr.install()
    try:
        during = _xrank_namespace()
        for layer, fname, _hot in tracing.TRACED:
            original = before[("xrank." + layer, fname)]
            holders = [k for k, v in before.items() if v is original]
            # rebound everywhere, defining module and importers alike
            assert all(during[k] is not original for k in holders)
            assert all(during[k].__wrapped__ is original for k in holders)
        assert ("xrank.construct", "in_span") in [
            k for k, v in before.items()
            if v is before[("xrank.exactlin", "in_span")]]
    finally:
        tr.uninstall()
    after = _xrank_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_merge_stats_adds_counts():
    a = _nest(True).stats()
    merged = tracing.merge_stats(a, a)
    assert merged["functions"]["exactlin.rank_rows"][0] == 6
    assert merged["attempts"] == [0, 0]
