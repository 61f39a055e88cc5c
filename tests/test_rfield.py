import pytest

from ringskip.neighborhood import AttentionConfig, Kind, offset_plan
from ringskip.rfield import (
    reach_full,
    reach_restricted,
    restricted_bound,
    rf_report,
    skip_budget,
)


def cfg(k, pi):
    return AttentionConfig(d_model=2, n_heads=1, ring_k=k, skip_period=pi,
                           causal=True)


@pytest.mark.parametrize("layers,budget", [
    (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4), (17, 5),
])
def test_skip_budget_values(layers, budget):
    assert skip_budget(layers) == budget


def test_restricted_bound_examples():
    assert restricted_bound(1, 4, 1) == 1
    assert restricted_bound(1, 4, 4) == 12
    assert restricted_bound(2, 8, 10) == 2 * 10 + 8 * 4


def test_single_layer_reach():
    # interior token: ring left edge at k, skip partner at stride distance
    rs = reach_full(cfg(1, 4), 12, 11, 1)
    assert rs.leftward_extent() == 4
    assert rs.final[[7, 10, 11]].all()
    assert rs.final.sum() == 3


def test_full_reach_can_exceed_restricted_bound():
    full = reach_full(cfg(1, 4), 22, 21, 4).leftward_extent()
    restricted = reach_restricted(cfg(1, 4), 22, 21, 4)
    bound = restricted_bound(1, 4, 4)
    assert restricted == bound == 12
    assert full == 16 and full > bound


def test_restricted_respects_ablations():
    c = AttentionConfig(d_model=2, n_heads=1, ring_k=2, skip_period=8,
                        causal=True, ablation="no_skip")
    assert reach_restricted(c, 40, 39, 4) == 8  # k per layer only


def test_restricted_charges_no_stride_the_plan_keeps_as_ring():
    # pi <= k: the stride is a RING slot, so no skip hop is charged and the
    # conservative figure equals the true BFS reach
    assert reach_restricted(cfg(4, 2), 40, 39, 3) == 12
    assert reach_full(cfg(4, 2), 40, 39, 3).leftward_extent() == 12
    assert restricted_bound(4, 2, 3) == 16


def test_non_causal_rejected():
    c = AttentionConfig(d_model=2, n_heads=1, ring_k=1, skip_period=4,
                        causal=False)
    with pytest.raises(ValueError, match="causal"):
        reach_full(c, 10, 5, 1)
    with pytest.raises(ValueError, match="causal"):
        reach_restricted(c, 10, 5, 1)


def test_report_grid_bound_holds_with_equality():
    rows = rf_report(range(1, 5), (2, 4, 8, 16), range(1, 11))
    assert len(rows) == 4 * 4 * 10
    for r in rows:
        has_skip = any(kind == Kind.SKIP for _, kind in offset_plan(cfg(r.k, r.pi)))
        # interior queries: equality, not just <=; pi <= k charges no skip hop
        assert r.restricted_reach == (r.bound if has_skip else r.k * r.layers)
        assert r.bound_holds_restricted == 1
        # no relation is asserted between full BFS reach and the restricted
        # figure: the accounting can over- or under-shoot the true reach
        assert r.full_reach <= r.k * r.layers + r.pi * r.layers


def test_report_matches_one_bfs_per_row():
    # rf_report reads every row from one BFS per (k, pi) at the largest layer
    # count; the reference runs a BFS per row at that row's own n
    for r in rf_report(range(1, 5), (2, 4, 8, 16), range(1, 11)):
        n = r.layers * (r.k + r.pi) + 2
        assert reach_full(cfg(r.k, r.pi), n, n - 1, r.layers).leftward_extent() == r.full_reach


def test_report_rejects_layer_counts_below_one():
    with pytest.raises(ValueError, match="layers"):
        rf_report([1], [4], [0, 4])
