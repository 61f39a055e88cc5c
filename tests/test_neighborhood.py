import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringskip.neighborhood import (
    AttentionConfig,
    ConfigError,
    EmptyNeighborhoodError,
    Kind,
    build_union,
    count_score_slots,
    gather_schedule,
    offset_plan,
    union_from_schedule,
    union_table_csv,
)


def cfg(**kw):
    base = dict(d_model=8, n_heads=2, ring_k=1, skip_period=4, causal=True)
    base.update(kw)
    return AttentionConfig(**base)


@pytest.mark.parametrize("bad,field", [
    (dict(n_heads=3), "n_heads"),
    (dict(ring_k=-1), "ring_k"),
    (dict(skip_period=0), "skip_period"),
    (dict(bidirectional_skip=True), "bidirectional_skip"),
    (dict(eps=0.6), "eps"),
    (dict(logit_clamp=0.0), "logit_clamp"),
    (dict(dropout_p=1.0), "dropout_p"),
    (dict(ablation="bogus"), "ablation"),
    (dict(ablation="static_alpha", static_alpha_value=1.0), "static_alpha_value"),
])
def test_validate_names_offending_field(bad, field):
    with pytest.raises(ConfigError, match=field):
        cfg(**bad).validate()


def test_offset_plan_full():
    plan = offset_plan(cfg())
    assert plan == [(-1, Kind.RING), (0, Kind.RING), (1, Kind.RING),
                    (-4, Kind.SKIP)]


def test_offset_plan_overlap_keeps_slot_once_as_ring():
    # skip stride inside the ring window: no separate SKIP slot
    plan = offset_plan(cfg(ring_k=2, skip_period=1))
    assert plan == [(o, Kind.RING) for o in (-2, -1, 0, 1, 2)]


def test_offset_plan_ablations():
    assert all(k == Kind.RING for _, k in offset_plan(cfg(ablation="no_skip")))
    assert offset_plan(cfg(ablation="no_ring")) == [(0, Kind.RING),
                                                   (-4, Kind.SKIP)]
    no_self = offset_plan(cfg(include_self=False))
    assert (0, Kind.RING) not in no_self


def test_gather_map_clamp_and_mask():
    maps = gather_schedule(cfg(ring_k=2, ablation="no_skip"), 4)
    m = {g.offset: g for g in maps}[-2]
    assert (m.lo, m.hi) == (2, 4)
    assert m.valid.tolist() == [False, False, True, True]


def test_causal_masks_positive_offsets():
    maps = gather_schedule(cfg(), 8)
    for m in maps:
        if m.offset > 0:
            assert not m.valid.any()


def test_count_score_slots_example():
    union = build_union(cfg(), 8)  # k=1, skip stride 4, causal
    assert count_score_slots(union) == 19


def test_union_matches_schedule_across_configs():
    for k, pi, causal, abl in [(0, 2, True, "full"), (2, 4, True, "full"),
                               (1, 8, False, "full"), (2, 1, True, "full"),
                               (1, 4, True, "no_skip"), (1, 4, True, "no_ring")]:
        c = cfg(ring_k=k, skip_period=pi, causal=causal,
                bidirectional_skip=not causal, ablation=abl)
        for n in (3, 9, 17):
            a = build_union(c, n)
            b = union_from_schedule(gather_schedule(c, n), n)
            assert a.entries == b.entries


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(1, 8), st.integers(2, 20),
       st.booleans())
def test_valid_targets_in_bounds_and_causal(k, pi, n, causal):
    c = cfg(ring_k=k, skip_period=pi, causal=causal,
            bidirectional_skip=not causal)
    union = build_union(c, n)
    for i in range(n):
        for j in union.valid_targets(i):
            assert 0 <= j < n
            if causal:
                assert j <= i


def test_empty_neighborhood_raises():
    c = cfg(include_self=False)  # token 0 has no causal in-bounds target
    with pytest.raises(EmptyNeighborhoodError, match="token 0"):
        build_union(c, 8)
    with pytest.raises(EmptyNeighborhoodError):
        gather_schedule(c, 8)


def test_user_mask_applies():
    mask = np.ones(8, dtype=bool)
    mask[3] = False
    union = build_union(cfg(), 8, user_mask=mask)
    for i in range(8):
        assert 3 not in union.valid_targets(i)


def test_union_table_csv_shape():
    union = build_union(cfg(), 6)
    lines = union_table_csv(union).strip().split("\n")
    assert lines[0] == "token,offset,kind,valid"
    assert len(lines) == 1 + 6 * len(offset_plan(cfg()))
