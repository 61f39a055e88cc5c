import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringskip.cli import main
from ringskip.neighborhood import (
    ABLATIONS,
    AttentionConfig,
    ConfigError,
    Kind,
    NeighborEntry,
    UnionNeighborhood,
    build_union,
    count_score_slots,
    gather_schedule,
    offset_plan,
    slot_layout,
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
    (dict(eps=0.0), "eps"),
    (dict(ablation="bogus"), "ablation"),
    (dict(logit_clamp=float("nan")), "logit_clamp"),
    (dict(d_model=0), "d_model"),
    (dict(ablation="static_alpha"), "ablation"),  # removed: it was the no_gate model
    (dict(ablation="no_ring"), "ablation"),  # removed: it was the plan of ring_k = 0
])
def test_validate_names_offending_field(bad, field):
    with pytest.raises(ConfigError, match=field):
        cfg(**bad)


def test_offset_plan_full():
    plan = offset_plan(cfg())
    assert plan == [(-1, Kind.RING), (0, Kind.RING), (-4, Kind.SKIP)]
    plan = offset_plan(cfg(causal=False))
    assert plan == [(-1, Kind.RING), (0, Kind.RING), (1, Kind.RING),
                    (-4, Kind.SKIP)]


def test_offset_plan_overlap_keeps_slot_once_as_ring():
    # skip stride inside the ring window: no separate SKIP slot
    plan = offset_plan(cfg(ring_k=2, skip_period=1))
    assert plan == [(o, Kind.RING) for o in (-2, -1, 0)]
    plan = offset_plan(cfg(ring_k=2, skip_period=1, causal=False))
    assert plan == [(o, Kind.RING) for o in (-2, -1, 0, 1, 2)]


def test_offset_plan_ablations():
    assert all(k == Kind.RING for _, k in offset_plan(cfg(ablation="no_skip")))
    # the ring always holds the token's own slot: at k = 0 it is all of it
    assert offset_plan(cfg(ring_k=0)) == [(0, Kind.RING), (-4, Kind.SKIP)]


def test_gather_map_clamp_and_mask():
    maps = gather_schedule(cfg(ring_k=2, ablation="no_skip"), 4)
    m = {g.offset: g for g in maps}[-2]
    assert m.valid.tolist() == [False, False, True, True]


def test_causal_masks_positive_offsets():
    # a causal plan holds no positive offset, for every ablation and ring
    for abl in ABLATIONS:
        for k in (0, 1, 3):
            assert all(o <= 0 for o, _ in offset_plan(cfg(ring_k=k, ablation=abl)))
    maps = gather_schedule(cfg(ring_k=3), 8)
    assert [m.offset for m in maps] == [-3, -2, -1, 0, -4]


def test_count_score_slots_example():
    union = build_union(cfg(), 8)  # k=1, skip stride 4, causal
    assert count_score_slots(union) == 19


def valid_targets(union, i):
    return [e.target for e in union.entries[i] if e.valid]


def union_from_schedule(plan, n):
    """Per-token entries rebuilt from the execution plan's slot records."""
    entries = [[] for _ in range(n)]
    for m in plan:
        for i in range(n):
            entries[i].append(NeighborEntry(target=min(max(i + m.offset, 0), n - 1),
                                            offset=m.offset, kind=m.kind,
                                            valid=bool(m.valid[i])))
    return UnionNeighborhood(n=n, entries=entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plan_fields_agree_with_offset_plan_and_union(data):
    n = data.draw(st.integers(1, 24), label="n")
    causal = data.draw(st.booleans(), label="causal")
    c = cfg(ring_k=data.draw(st.integers(0, 6), label="k"),
            skip_period=data.draw(st.integers(1, 30), label="pi"),
            causal=causal,
            bidirectional_skip=not causal and data.draw(st.booleans(), label="bidir"),
            ablation=data.draw(st.sampled_from(ABLATIONS), label="ablation"))
    plan, union = gather_schedule(c, n), build_union(c, n)
    assert [(m.offset, m.kind) for m in plan] == offset_plan(c)
    assert plan.offsets.tolist() == [o for o, _ in offset_plan(c)]
    assert plan.ring.tolist() == [kind == Kind.RING for _, kind in offset_plan(c)]
    assert plan.valid.shape == (len(plan), n) and plan.n == n
    assert union_from_schedule(plan, n).entries == union.entries
    assert all(m.valid.base is plan.valid for m in plan)
    assert [list(range(*span)) for span in plan.spans] == [
        [i for i in range(n) if 0 <= i + m.offset < n] for m in plan]
    assert [np.flatnonzero(m.valid).tolist() for m in plan] == [
        list(range(*span)) for span in plan.spans]
    # every ring holds offset 0, valid on every row: no neighborhood is empty
    assert plan.valid[plan.offsets == 0].all()
    assert plan.n_valid == count_score_slots(union)
    # one band: exactly the RING slots with |offset| < n, at offsets -P ... 0 or -P ... P
    s0, s1 = plan.band
    assert list(range(s0, s1)) == [s for s, m in enumerate(plan)
                                   if m.kind == Kind.RING and abs(m.offset) < n]
    assert plan.pad == min(c.ring_k, n - 1)
    assert plan.offsets[s0:s1].tolist() == list(range(-plan.pad, (0 if causal else plan.pad) + 1))
    assert plan.skips == tuple((s, m.offset) for s, m in enumerate(plan) if m.kind == Kind.SKIP)
    offsets, ring = slot_layout(c)
    assert np.array_equal(offsets, plan.offsets) and np.array_equal(ring, plan.ring)
    assert c.ring_k == max(abs(o) for o, kind in offset_plan(c) if kind == Kind.RING)
    for arr in (offsets, ring, plan.offsets, plan.ring, plan.valid, plan.valid[0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_union_matches_schedule_across_configs():
    for k, pi, causal, abl in [(0, 2, True, "full"), (2, 4, True, "full"),
                               (1, 8, False, "full"), (2, 1, True, "full"),
                               (1, 4, True, "no_skip"), (1, 4, True, "no_gate")]:
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
        for j in valid_targets(union, i):
            assert 0 <= j < n
            if causal:
                assert j <= i


def test_union_table_csv_shape(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"d_model": 8, "n_heads": 2, "ring_k": 1,
                             "skip_period": 4, "causal": True}))
    assert main(["validate-config", str(p), "--n", "6", "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "union.csv").read_text().strip().split("\n")
    assert lines[0] == "token,offset,kind,valid"
    assert len(lines) == 1 + 6 * len(offset_plan(cfg()))
    union = build_union(cfg(), 6)
    assert lines[1:] == [f"{i},{e.offset},{e.kind.value},{int(e.valid)}"
                         for i, row in enumerate(union.entries) for e in row]


def test_dense_masks_follow_entries_and_are_read_only():
    union = build_union(cfg(ring_k=2, skip_period=5), 10)
    allowed, ring_pair = union.dense_masks
    assert union.dense_masks[0] is allowed  # built once per union
    for i in range(10):
        assert set(np.flatnonzero(allowed[i])) == set(valid_targets(union, i))
        ring = {e.target for e in union.entries[i] if e.valid and e.kind == Kind.RING}
        assert set(np.flatnonzero(ring_pair[i])) == ring
    # the skip keys of tokens 3 and 4, rows -2 and -1, leave the sequence: their
    # invalid entries point at key 0, which neither may read; the causal cut
    # empties the upper triangle
    assert [(e.target, e.valid) for e in (union.entries[3][-1], union.entries[4][-1])] \
        == [(0, False), (0, False)]
    assert not allowed[3:5, 0].any() and not np.triu(allowed, 1).any()
    for m in (allowed, ring_pair):
        with pytest.raises(ValueError):
            m[0, 0] = True
