import numpy as np
import pytest

from ringskip import perf
from ringskip.neighborhood import AttentionConfig, ConfigError
from ringskip.perf import (
    CostParams,
    comm_volume,
    cost_model_eval,
    fit_cost_constants,
    measure_work,
    ring_simulate,
    work_report,
)


def rates(g=1e9, **kw):
    base = dict(gamma_tc=g, gamma_hbm=g, gamma_net=g, gamma_act=g)
    base.update(kw)
    return CostParams(**base)


def att(k=2, pi=8, **kw):
    base = dict(d_model=16, n_heads=2, ring_k=k, skip_period=pi, causal=True)
    base.update(kw)
    return AttentionConfig(**base)


def ring_att(k=2, pi=8, **kw):
    """A config of 4 heads 8 wide, the rows the ring simulator ships."""
    return att(k, pi, d_model=32, n_heads=4, **kw)


def test_cost_model_hand_value():
    assert cost_model_eval(rates(), 1024, 4, 64) == 3.93216e-4


def test_cost_model_slowest_memory_path_dominates():
    cp = rates(gamma_net=1e8)  # network slower than HBM
    t = cost_model_eval(cp, 100, 2, 8)
    expect = 100 * 2 * 8 / 1e9 + 100 * 8 / 1e8 + 100 * 8 / 1e9
    assert abs(t - expect) < 1e-18


def test_cost_model_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cost_model_eval(rates(gamma_tc=0.0), 10, 1, 4)
    with pytest.raises(ValueError):
        cost_model_eval(rates(), 0, 1, 4)


def test_fit_recovers_synthetic_constants():
    true = (2.0, 3.0, 5.0)
    cps, rows = [], []
    for i, (n, k, d_h) in enumerate([(128, 1, 8), (256, 2, 8), (512, 4, 16),
                                     (1024, 1, 32), (256, 8, 8), (640, 3, 16)]):
        cp = rates(g=1e9) if i % 2 == 0 else rates(g=1e9, gamma_act=2e9)
        t = (true[0] * n * k * d_h / cp.gamma_tc
             + true[1] * n * d_h / min(cp.gamma_hbm, cp.gamma_net)
             + true[2] * n * d_h / cp.gamma_act)
        cps.append(cp)
        rows.append((n, k, d_h, t))
    c1, c2, c3, resid = fit_cost_constants(rows, cps)
    assert max(abs(c1 - 2), abs(c2 - 3), abs(c3 - 5)) < 1e-9
    assert resid < 1e-9


def test_fit_shared_rates_is_rank_deficient():
    cp = rates()
    rows = [(128, 1, 8, 1e-6), (256, 2, 8, 2e-6), (512, 4, 16, 9e-6),
            (1024, 1, 32, 3e-5)]
    with pytest.raises(ValueError, match="rank"):
        fit_cost_constants(rows, [cp] * 4)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1e-6])
def test_fit_rejects_a_time_that_is_not_finite_and_nonnegative(seconds):
    rows = [(128, 1, 8, 1e-6), (256, 2, 8, seconds), (512, 4, 16, 9e-6)]
    with pytest.raises(ValueError, match="measurement 1: seconds must be finite"):
        fit_cost_constants(rows, [rates(), rates(gamma_act=2e9), rates()])


def test_comm_volume_example():
    assert comm_volume(2, 4, 8, 16) == 2048
    assert comm_volume(1, 1, 1, 1) == 2


def test_ring_simulator_conserves_and_halos():
    rep = ring_simulate(4, 32, ring_att(), batch=2)
    assert rep.tallied_elements == rep.received_elements
    halos = [m for m in rep.tallied_messages if m.stage == "halo"]
    # causal: one left-to-right halo per interior boundary,
    # k rows of both K and V, batch*heads*d_h elements per row
    assert len(halos) == 3
    assert all(m.elements == 2 * 2 * (2 * 4 * 8) for m in halos)
    skips = [m for m in rep.tallied_messages if m.stage == "skip"]
    assert all(m.src != m.dst for m in skips)


def test_ring_simulator_padding_and_edge_cases():
    rep = ring_simulate(3, 10, att(k=1, pi=4, d_model=4, n_heads=1), batch=1)
    assert rep.tallied_elements == rep.received_elements
    solo = ring_simulate(1, 16, att(d_model=4, n_heads=1), batch=1)
    assert solo.tallied_elements == 0  # single shard never communicates
    with pytest.raises(ValueError, match="shards"):
        ring_simulate(20, 10, att(), 1)


@pytest.mark.parametrize("field", ["batch"])
@pytest.mark.parametrize("value", [0, -1])
def test_ring_simulator_rejects_empty_tensor_dimensions(field, value):
    # batch -1 used to tally -1,920 elements against a closed-form -512; the
    # head count and width are the config's, which rejects its own zeros
    with pytest.raises(ConfigError, match=f"^{field}: must be >= 1, got {value}$"):
        ring_simulate(4, 32, ring_att(), **{field: value})


@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("k,pi", [(4, 2), (4, 4), (2, 1)])
def test_ring_simulator_sends_no_skip_rows_when_stride_inside_ring(k, pi, causal):
    # pi <= k: the plan keeps the stride as a RING slot, which the halo carries
    c = ring_att(k=k, pi=pi, causal=causal, bidirectional_skip=not causal)
    rep = ring_simulate(4, 32, c, batch=2)
    assert not [m for m in rep.tallied_messages if m.stage == "skip"]
    assert [m for m in rep.tallied_messages if m.stage == "halo"]
    assert rep.formula_elements == 0


def test_ring_simulator_no_skip_ablation_has_no_closed_form_volume():
    rep = ring_simulate(4, 32, ring_att(ablation="no_skip"), batch=2)
    assert not [m for m in rep.tallied_messages if m.stage == "skip"]
    assert rep.formula_elements == 0
    assert ring_simulate(4, 32, ring_att(), batch=2).formula_elements == 1024


def test_ring_simulator_pipeline_makespan():
    rep = ring_simulate(4, 32, ring_att(), batch=2, cost=rates())
    t = {s["stage"]: s["seconds"] for s in rep.stage_timeline}
    m = 4
    expect = (m * t["local_sweep"] + t["periodic_gather"]
              + (m - 1) * max(t["periodic_gather"], t["fusion_projection"])
              + t["fusion_projection"])
    assert abs(rep.makespan - expect) < 1e-18


def test_measure_work_counts_scale_linearly():
    a = measure_work(att(), 256)
    b = measure_work(att(), 512)
    assert 1.9 <= b.score_evals / a.score_evals <= 2.1
    bound = 256 * (2 * 2 + 3) * 8 * 2 + 256 * 2
    assert a.stored_activation_elements <= bound


def test_work_report_rows():
    rows = work_report([(att(), 128), (att(), 256)])
    assert len(rows) == 2
    assert rows[0].doubling_ratio is None and rows[1].doubling_ratio is not None
    assert 1.9 <= rows[1].doubling_ratio <= 2.1


def test_measure_work_ledger_mismatch_raises(monkeypatch):
    # the ledger check is an explicit raise, so it holds under `python -O` too
    forward = perf.pi_attention_forward

    def overcounting(*args, **kw):
        out, cache = forward(*args, **kw)
        cache.score_evals += 1
        return out, cache

    monkeypatch.setattr(perf, "pi_attention_forward", overcounting)
    with pytest.raises(RuntimeError, match="work ledger"):
        measure_work(att(), 64)
