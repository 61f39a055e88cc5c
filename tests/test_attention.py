import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from ringskip.attention import (
    dense_oracle,
    distributions_from_scores,
    kl_divergence,
    kl_stabilization,
    log_prior,
    pi_attention_backward,
    pi_attention_forward,
)
from ringskip.checks import (
    oracle_grid,
    random_attention_params,
    run_oracle_check,
    run_stacked_grad_check,
)
from ringskip.model import flatten
from ringskip.neighborhood import (
    ABLATIONS,
    AttentionConfig,
    EmptyNeighborhoodError,
    Kind,
    build_union,
    count_score_slots,
    gather_schedule,
)
from ringskip.numerics import Rng


def cfg(**kw):
    base = dict(d_model=8, n_heads=2, ring_k=1, skip_period=4, causal=True)
    base.update(kw)
    return AttentionConfig(**base)


def setup(c, n, seed=0):
    rng = Rng(seed)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x = rng.normal((1, n, c.d_model))
    return proj, gate, x


def test_sparse_matches_dense_small_grid():
    res = run_oracle_check(oracle_grid("small"))
    assert res.max_delta < 1e-10, res.worst


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_masked_sparse_matches_oracle_and_gradients(data):
    # n up to 24 with strides up to 30 draws empty skip spans (pi >= n); the
    # random user_mask punches holes inside the spans of the other offsets
    n = data.draw(st.integers(1, 24), label="n")
    causal = data.draw(st.booleans(), label="causal")
    c = cfg(n_heads=data.draw(st.sampled_from([1, 2]), label="heads"),
            ring_k=data.draw(st.integers(0, 4), label="k"),
            skip_period=data.draw(st.integers(1, 30), label="pi"),
            causal=causal,
            bidirectional_skip=not causal and data.draw(st.booleans(), label="bidir"),
            ablation=data.draw(st.sampled_from(ABLATIONS), label="ablation"),
            logit_clamp=data.draw(st.sampled_from([0.5, 20.0]), label="clamp"),
            gate_on_query=data.draw(st.booleans(), label="gate_on_query"),
            clamp_after_prior=data.draw(st.booleans(), label="clamp_after_prior"))
    user_mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n),
                                   label="user_mask"))
    try:
        sched = gather_schedule(c, n, user_mask)
        union = build_union(c, n, user_mask)
    except EmptyNeighborhoodError:
        reject()
    rng = Rng(data.draw(st.integers(0, 2 ** 31 - 1), label="seed"))
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x = rng.normal((2, n, c.d_model))
    out, cache = pi_attention_forward(x, proj, gate, sched, c)
    assert np.abs(out - dense_oracle(x, proj, gate, union, c)).max() < 1e-10

    # central difference of sum(out * d_out) along one joint direction over x,
    # the projections and (when it has a trainable path) the gate; a valid
    # logit next to the clamp's kink would make the difference one-sided
    pre = cache.scores_raw
    if c.clamp_after_prior and cache.alpha is not None:
        ring = np.array([m.kind == Kind.RING for m in sched])
        pre = pre + log_prior(cache.alpha.transpose(0, 2, 1), ring)
    valid = np.stack([m.valid for m in sched], axis=-1)
    assume(np.abs(np.abs(pre) - c.logit_clamp)[..., valid].min() > 1e-4)
    d_out = rng.normal(out.shape)
    d_x, g_proj, g_gate = pi_attention_backward(proj, gate, cache, d_out)
    trees = [proj] if g_gate is None else [proj, gate]
    params = {"x": x, **flatten(trees)}
    grads = {"x": d_x, **flatten([g_proj] if g_gate is None else [g_proj, g_gate])}
    u = {k: rng.normal(a.shape) for k, a in params.items()}
    norm = np.sqrt(sum(float((v * v).sum()) for v in u.values()))
    analytic = sum(float((grads[k] * u[k]).sum()) for k in params) / norm
    h = 1e-6

    def loss(sign):
        saved = {k: a.copy() for k, a in params.items()}
        for k, a in params.items():
            a += sign * h * u[k] / norm
        try:
            o, _ = pi_attention_forward(x, proj, gate, sched, c)
        finally:
            for k, a in params.items():
                a[...] = saved[k]
        return float((o * d_out).sum())

    fd = (loss(1.0) - loss(-1.0)) / (2.0 * h)
    # relative to |grad|, the largest derivative a unit direction can see; a
    # ratio to the derivative itself is ill-conditioned when the direction is
    # nearly orthogonal to the gradient
    g_norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert abs(fd - analytic) < 1e-6 * g_norm


def test_probs_normalize_over_valid_slots():
    c = cfg()
    proj, gate, x = setup(c, 10)
    _, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, 10), c)
    valid = np.stack([m.valid for m in cache.schedule], axis=-1)
    assert np.allclose(cache.probs.sum(axis=-1), 1.0)
    assert (cache.probs[..., ~valid] == 0.0).all()


def test_score_counter_matches_union_slots():
    c = cfg(ring_k=2, skip_period=6)
    proj, gate, x = setup(c, 13)
    _, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, 13), c)
    assert cache.score_evals == count_score_slots(build_union(c, 13))


def test_causality_future_perturbation_has_no_effect():
    c = cfg()
    proj, gate, x = setup(c, 12)
    sched = gather_schedule(c, 12)
    base, _ = pi_attention_forward(x, proj, gate, sched, c)
    x2 = x.copy()
    x2[0, 9] += 10.0
    out, _ = pi_attention_forward(x2, proj, gate, sched, c)
    assert np.abs(out[0, :6] - base[0, :6]).max() < 1e-12
    assert np.abs(out[0, 9] - base[0, 9]).max() > 1e-6  # sanity: it did change


def test_larger_alpha_shifts_mass_onto_ring_slots():
    c = cfg(ablation="static_alpha", static_alpha_value=0.2)
    n = 10
    proj, gate, x = setup(c, n)
    sched = gather_schedule(c, n)
    _, lo = pi_attention_forward(x, proj, gate, sched, c)
    c_hi = cfg(ablation="static_alpha", static_alpha_value=0.8)
    _, hi = pi_attention_forward(x, proj, gate, sched, c_hi)
    ring = np.array([m.kind == Kind.RING for m in sched])
    # token n-1 has both ring and skip slots valid
    ring_lo = lo.probs[0, :, n - 1, ring].sum(axis=0)
    ring_hi = hi.probs[0, :, n - 1, ring].sum(axis=0)
    assert (ring_hi > ring_lo).all()


def test_logit_clamp_keeps_extreme_scores_finite():
    c = cfg()
    proj, gate, x = setup(c, 8)
    out, cache = pi_attention_forward(x * 1e4, proj, gate,
                                      gather_schedule(c, 8), c)
    assert np.isfinite(out).all()
    clamped = np.clip(cache.scores_raw, -c.logit_clamp, c.logit_clamp)
    assert np.abs(clamped).max() <= c.logit_clamp


def test_dropout_scales_and_needs_rng():
    c = cfg(dropout_p=0.3)
    proj, gate, x = setup(c, 8)
    sched = gather_schedule(c, 8)
    with pytest.raises(ValueError, match="rng"):
        pi_attention_forward(x, proj, gate, sched, c, train=True)
    out1, _ = pi_attention_forward(x, proj, gate, sched, c, train=True,
                                   rng=Rng(3))
    out2, _ = pi_attention_forward(x, proj, gate, sched, c, train=True,
                                   rng=Rng(3))
    assert (out1 == out2).all()  # seeded mask
    eval_out, _ = pi_attention_forward(x, proj, gate, sched, c)
    assert not np.allclose(out1, eval_out)


def test_stacked_gradients_quick():
    errors = run_stacked_grad_check(seed=1, n=4, d_model=8, n_heads=2,
                                    k=1, pi=2, layers=1)
    assert max(errors.values()) < 1e-6, max(errors, key=errors.get)


def test_kl_divergence_hand_value():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    expect = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
    assert abs(kl_divergence(p, q) - expect) < 1e-12
    assert kl_divergence(p, p) == 0.0


def test_distributions_ideal_vs_stabilized():
    rng = Rng(9)
    scores = rng.normal((1, 1, 6, 4))
    ring = np.array([True, True, False, False])
    valid = np.ones((6, 4), dtype=bool)
    alpha = rng.uniform((1, 1, 6), 0.2, 0.8)
    ideal = distributions_from_scores(scores, ring, valid, alpha,
                                      eps=None, clamp=None)
    stab = distributions_from_scores(scores, ring, valid, alpha,
                                     eps=1e-4, clamp=20.0)
    # nothing clamps here and alpha is interior, so the two nearly agree
    assert kl_divergence(stab, ideal).max() < 1e-6
    exact = distributions_from_scores(scores, ring, valid, alpha,
                                      eps=1e-15, clamp=1e9)
    assert kl_divergence(exact, ideal).max() < 1e-12


def test_kl_stabilization_report_keys():
    c = cfg()
    proj, gate, x = setup(c, 16)
    rep = kl_stabilization(x, proj, gate, gather_schedule(c, 16), c,
                           eps_list=[1e-2, 1e-4])
    assert set(rep) == {1e-2, 1e-4}
    for mean_kl, max_kl in rep.values():
        assert 0.0 <= mean_kl <= max_kl


def test_dense_oracle_respects_mask():
    c = cfg()
    n = 9
    proj, gate, x = setup(c, n)
    out = dense_oracle(x, proj, gate, build_union(c, n), c)
    assert out.shape == (1, n, c.d_model)
    assert np.isfinite(out).all()
