import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringskip.attention import (
    _gather,
    _scatter,
    block_backward,
    block_forward,
    dense_oracle,
    gated_softmax,
    merge_heads,
    pi_attention_backward,
    pi_attention_forward,
    split_heads,
)
from ringskip import checks, split
from ringskip.checks import (
    footprint,
    kl_divergence,
    oracle_grid,
    random_attention_params,
    run_oracle_check,
    run_stacked_grad_check,
    stacked_block_setup,
)
from ringskip.gate import clip_alpha, gate_forward
from ringskip.model import flatten
from ringskip import neighborhood
from ringskip.neighborhood import (
    ABLATIONS,
    AttentionConfig,
    build_union,
    count_score_slots,
    gather_schedule,
)
from ringskip.numerics import GRAD_CHECK_FLOOR, NonFiniteError, Rng, ShapeError, softmax_row


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


def test_footprint_determines_schedule_and_union():
    # run_oracle_check builds one schedule and union per footprint; a builder
    # reading any config field outside the footprint would make them differ
    refs = {}
    for c, n in oracle_grid("full"):
        sched, union = gather_schedule(c, n), build_union(c, n)
        ref_sched, ref_union = refs.setdefault(footprint(c, n), (sched, union))
        for field in ("offsets", "ring", "valid"):
            assert np.array_equal(getattr(sched, field), getattr(ref_sched, field))
        assert (sched.band, sched.pad, sched.skips) == (ref_sched.band, ref_sched.pad,
                                                        ref_sched.skips)
        assert union.entries == ref_union.entries
    assert len(refs) == 144


def oracle_with_one_wrong_config(monkeypatch, error):
    """run_oracle_check on the small grid with `error` added to the sparse
    output of one config that shares its footprint and stack key with an
    earlier one, so that one sparse call runs both: to the one row whose
    input is that config's drawn x."""
    grid = oracle_grid("small")
    first = {}
    key = lambda c, n: (footprint(c, n), checks._stack_key(c, n))
    for idx, (c, n) in enumerate(grid):
        first.setdefault(key(c, n), idx)
    target = next(i for i in range(len(grid) // 2, len(grid)) if first[key(*grid[i])] != i)
    bad_cfg, bad_n = grid[target]
    rng = Rng(0).spawn(target)
    random_attention_params(rng, bad_cfg.d_model, bad_cfg.n_heads)
    bad_x = rng.normal((bad_n, bad_cfg.d_model))
    forward = checks.pi_attention_forward
    hit_rows = []

    def perturbed(x, proj, gate, sched, c, **kw):
        out, cache = forward(x, proj, gate, sched, c, **kw)
        if x.shape[1:] == bad_x.shape:
            hit = (x == bad_x).all(axis=(1, 2))
            if hit.any():
                hit_rows.append(len(x))
                out[hit] += error
        return out, cache

    monkeypatch.setattr(checks, "pi_attention_forward", perturbed)
    res = run_oracle_check(grid)
    assert [i for i, d in enumerate(res.deltas) if not d < 1e-10] == [target]
    assert res.worst == (bad_cfg, bad_n)
    # the perturbed call stacked the target with other configs
    assert hit_rows and hit_rows[0] > 1
    return res


def test_oracle_check_flags_the_one_wrong_config(monkeypatch):
    res = oracle_with_one_wrong_config(monkeypatch, 1e-6)
    assert abs(res.max_delta - 1e-6) < 1e-9


def test_oracle_check_nan_delta_is_the_worst(monkeypatch):
    # NaN fails every comparison: skipped by `>`, it let the sweep pass
    # while its own row said ok = 0
    res = oracle_with_one_wrong_config(monkeypatch, np.nan)
    assert np.isnan(res.max_delta)


def per_config_deltas(grid, seed):
    """The oracle sweep one config at a time: a B = 1 sparse call and a B = 1
    dense call per config, each on its own schedule and union."""
    deltas = []
    for idx, (c, n) in enumerate(grid):
        rng = Rng(seed).spawn(idx)
        proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
        x = rng.normal((1, n, c.d_model))
        sparse, _ = pi_attention_forward(x, proj, gate, gather_schedule(c, n), c)
        dense = dense_oracle(x, proj, gate, build_union(c, n), c)
        deltas.append(float(np.abs(sparse - dense).max()))
    return deltas


def cut_runs(grid):
    """The (footprint, stack key) runs that `oracle_stacks` puts in more than
    one stack."""
    seen, cut = {}, set()
    for s, runs in enumerate(checks.oracle_stacks(grid, range(len(grid)))):
        for run in runs:
            key = (footprint(*grid[run[0]]), checks._stack_key(*grid[run[0]]))
            if seen.setdefault(key, s) != s:
                cut.add(key)
    return cut


# 2 * 12 * 12 holds two n = 12, H = 1 configs a stack and cuts their runs of three
@pytest.mark.parametrize("budget", [None, 1, 2 * 12 * 12])
@pytest.mark.parametrize("seed", [0, 41])
def test_stacked_oracle_equals_one_config_at_a_time(monkeypatch, seed, budget):
    """The stacked sweep's deltas are the per-config loop's, bit for bit: at
    the default element budget, at a budget of 1 (every stack one config) and
    at one that cuts footprint runs across stacks."""
    grid = oracle_grid("small")
    if budget is not None:
        monkeypatch.setattr(checks, "STACK_ELEMENTS", budget)
    res = run_oracle_check(grid, seed=seed)
    assert res.deltas == per_config_deltas(grid, seed)
    if budget == 1:
        assert res.dense_calls == res.sparse_calls == len(grid)
    elif budget is not None:
        assert cut_runs(grid)
    else:
        assert res.dense_calls < res.sparse_calls < len(grid) and not cut_runs(grid)


def per_seed_kl(eps, seeds, n=256, k=2, pi=8, clamp=20.0):
    """The KL sweep one seed and one eps at a time."""
    out = []
    for e in eps:
        cfg = AttentionConfig(d_model=4, n_heads=1, ring_k=k, skip_period=pi, causal=True,
                              eps=e, logit_clamp=clamp)
        plan = gather_schedule(cfg, n)
        valid = plan.valid[:, None, None]
        means, maxes = [], []
        for s in range(seeds):
            rng = Rng(1000 + s)
            scores = rng.normal((len(plan), 1, 1, n))
            alpha_raw = rng.uniform((1, 1, n))
            with np.errstate(divide="ignore"):
                ideal = gated_softmax(scores, alpha_raw, plan.ring, valid,
                                      dataclasses.replace(cfg, logit_clamp=np.inf))
            stab = gated_softmax(scores, clip_alpha(alpha_raw, e), plan.ring, valid, cfg)
            kl = kl_divergence(stab, ideal)
            means.append(float(kl.mean()))
            maxes.append(float(kl.max()))
        out.append((float(np.mean(means)), float(np.max(maxes))))
    return out


# 3 * 4 * 256 holds three seeds of the default 4-slot plan a chunk
@pytest.mark.parametrize("budget", [None, 1, 3 * 4 * 256])
def test_stacked_kl_equals_one_seed_at_a_time(monkeypatch, budget):
    """One draw of the seeds, chunked by the element budget (the default's
    64 seeds a chunk, one seed, three seeds), gives the per-seed loop's floats
    for every eps."""
    if budget is not None:
        monkeypatch.setattr(checks, "STACK_ELEMENTS", budget)
    eps = [1e-2, 1e-4, 1e-6]
    assert checks.run_kl_random_scores(eps, seeds=70) == per_seed_kl(eps, 70)
    assert (checks.run_kl_random_scores([1e-15], n=40, k=1, pi=4, clamp=1e9, seeds=7)
            == per_seed_kl([1e-15], 7, n=40, k=1, pi=4, clamp=1e9))


# the two checks that split their work with a forked sibling, each with the
# function that one of its work items calls
SIBLING_CHECKS = {
    "oracle": (lambda: run_oracle_check(oracle_grid("small")), "dense_oracle"),
    "grad": (lambda: run_stacked_grad_check(seed=0), "grad_check"),
}


def test_two_sets_balance_the_largest_costs_first():
    assert split.two_sets([5, 1, 4, 2, 3]) == [[0, 1, 3], [2, 4]]
    assert split.two_sets([7]) == [[0]] and split.two_sets([]) == []


def test_checks_do_not_depend_on_the_sibling(cpus):
    """Deltas, worst config and footprint count of the oracle sweep and the
    gradient check's errors at two seeds, keys and order included, are the
    same floats with the sibling and without it."""
    results = []
    for k in (2, 1):
        cpus(k)
        oracle = run_oracle_check(oracle_grid("small"), seed=3)
        grads = [list(run_stacked_grad_check(seed=seed).items()) for seed in (0, 4)]
        results.append((oracle.deltas, oracle.worst, oracle.footprints, grads))
        assert (oracle.sibling_peak_rss_mb is None) == (k == 1)
    assert results[0] == results[1]


@pytest.mark.parametrize("case", ["return", "error in the sibling's set", "one CPU",
                                  "inside a half"])
@pytest.mark.parametrize("check", sorted(SIBLING_CHECKS))
def test_checks_reap_their_one_sibling(monkeypatch, cpus, check, case):
    """A call on two CPUs forks one sibling, on one CPU or inside a half none,
    and no child of this process is left when it returns or raises; an
    exception raised only in the sibling's set reaches the caller, chained
    to the sibling's traceback."""
    import os
    run, item = SIBLING_CHECKS[check]
    cpus(1 if case == "one CPU" else 2)
    forks, real_fork, real_item = [], os.fork, getattr(checks, item)
    caller = os.getpid()

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    def poisoned(*args, **kwargs):
        if os.getpid() != caller:
            raise ValueError("poisoned in the sibling")
        return real_item(*args, **kwargs)

    monkeypatch.setattr(os, "fork", counting_fork)
    if case.startswith("error"):
        monkeypatch.setattr(checks, item, poisoned)
        with pytest.raises(ValueError, match="poisoned in the sibling") as raised:
            run()
        cause = raised.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "raised in the sibling process" in str(cause) and "poisoned" in str(cause)
    else:
        with split.one_half() if case == "inside a half" else contextlib.nullcontext():
            res = run()
        peak = res.sibling_peak_rss_mb
        assert (peak is None) == (case != "return") and (peak is None or peak > 0)
    assert forks == ([caller] if case in ("return", "error in the sibling's set") else [])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_matches_oracle_and_gradients(data):
    # n up to 24 with strides up to 30 draws empty skip spans (pi >= n), and
    # k up to 4 draws ring bands wider than n
    n = data.draw(st.integers(1, 24), label="n")
    causal = data.draw(st.booleans(), label="causal")
    c = cfg(n_heads=data.draw(st.sampled_from([1, 2]), label="heads"),
            ring_k=data.draw(st.integers(0, 4), label="k"),
            skip_period=data.draw(st.integers(1, 30), label="pi"),
            causal=causal,
            bidirectional_skip=not causal and data.draw(st.booleans(), label="bidir"),
            ablation=data.draw(st.sampled_from(ABLATIONS), label="ablation"),
            logit_clamp=data.draw(st.sampled_from([0.5, 20.0]), label="clamp"))
    sched, union = gather_schedule(c, n), build_union(c, n)
    rng = Rng(data.draw(st.integers(0, 2 ** 31 - 1), label="seed"))
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x = rng.normal((2, n, c.d_model))
    out, cache = pi_attention_forward(x, proj, gate, sched, c)
    assert np.abs(out - dense_oracle(x, proj, gate, union, c)).max() < 1e-10

    # central difference of sum(out * d_out) along one joint direction over x,
    # the projections and (when it has a trainable path) the gate; a valid
    # logit next to the clamp's kink would make the difference one-sided
    near = np.abs(np.abs(cache.scores_raw) - c.logit_clamp).transpose(1, 2, 0, 3)
    assume(near[..., sched.valid].min() > 1e-4)
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_band_products_match_per_slot_loop(data):
    # `_gather` and `_scatter` run the plan's ring band as one `_band` (the scatter
    # after `_skew`) over buffers with zero margins, and each skip slot as one
    # shifted slice; the reference is the per-slot loop over valid rows, so
    # only the order of the sums differs and agreement is to rounding. Small n
    # and wide rings put most windows partly in the margins, and k >= n or
    # pi >= n leaves slots that take no product
    n = data.draw(st.integers(1, 20), label="n")
    causal = data.draw(st.booleans(), label="causal")
    k = data.draw(st.integers(0, 5), label="k")
    c = cfg(ring_k=k, skip_period=data.draw(st.integers(1, 24), label="pi"),
            causal=causal, bidirectional_skip=not causal and data.draw(st.booleans()))
    sched = gather_schedule(c, n)
    rng = Rng(data.draw(st.integers(0, 2 ** 31 - 1), label="seed"))
    pad = sched.pad
    assert pad <= k
    # nonzero on invalid slots too: the products outside a slot's span must
    # meet the zero margins or be skipped
    coef = rng.normal((len(sched), 2, 3, n))
    x = rng.normal((2, n, 12))
    src, padded = split_heads(x, 3), split_heads(x, 3, pad)
    assert np.array_equal(padded[:, :, pad:pad + n], src)
    assert not padded[:, :, :pad].any() and not padded[:, :, pad + n:].any()
    # the ring band writes every row over what the buffers held, so no NaN is left
    gathered, scattered = np.full_like(src, np.nan), np.full_like(src, np.nan)
    _gather(gathered, coef, padded, sched)
    _scatter(scattered, coef, padded, sched)
    ref_g, ref_s = np.zeros_like(src), np.zeros_like(src)
    for o, m in enumerate(sched):
        for i in np.flatnonzero(m.valid):
            ref_g[:, :, i] += coef[o, :, :, i, None] * src[:, :, i + m.offset]
            ref_s[:, :, i + m.offset] += coef[o, :, :, i, None] * src[:, :, i]
    tol = 64 * np.finfo(np.float64).eps * len(sched) * np.abs(coef).max() * np.abs(src).max()
    assert np.abs(gathered - ref_g).max() <= tol
    assert np.abs(scattered - ref_s).max() <= tol


@pytest.mark.parametrize("k", [1, 20])
def test_stride_beyond_n_takes_no_product_and_no_margin(k):
    # a stride of 10**6 at n = 8 reads no key row, and ring offsets from n
    # on (k = 20) widen neither the margin nor the work
    c = cfg(ring_k=k, skip_period=10 ** 6)
    n = 8
    proj, gate, x = setup(c, n)
    out, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, n), c)
    assert np.abs(out - dense_oracle(x, proj, gate, build_union(c, n), c)).max() < 1e-10
    assert cache.kh.shape[2] == n + 2 * min(k, n - 1)


def test_probs_normalize_over_valid_slots():
    c = cfg()
    proj, gate, x = setup(c, 10)
    _, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, 10), c)
    assert np.allclose(cache.probs.sum(axis=0), 1.0)
    assert (cache.probs.transpose(1, 2, 0, 3)[..., ~cache.schedule.valid] == 0.0).all()


@pytest.mark.parametrize("plan_n,n", [(1, 6), (8, 10), (10, 8)])
def test_plan_built_for_another_length_is_refused(plan_n, n):
    # an (O, 1) validity would broadcast to every row, and other lengths would
    # die in a numpy broadcast
    c = cfg()
    proj, gate, x = setup(c, n)
    with pytest.raises(ShapeError, match=f"input length {n} != the plan's length {plan_n}"):
        pi_attention_forward(x, proj, gate, gather_schedule(c, plan_n), c)


def test_forward_and_backward_read_the_plan_and_rebuild_nothing(monkeypatch):
    c = cfg(ring_k=2, skip_period=5, causal=False, bidirectional_skip=True)
    proj, gate, x = setup(c, 12)
    plan = gather_schedule(c, 12)
    calls = []

    def counted(name):
        fn = getattr(neighborhood, name)

        def wrapper(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return wrapper

    for name in ("offset_plan", "slot_layout", "gather_schedule"):
        monkeypatch.setattr(neighborhood, name, counted(name))
    out, cache = pi_attention_forward(x, proj, gate, plan, c)
    pi_attention_backward(proj, gate, cache, np.ones_like(out))
    assert calls == []
    neighborhood.gather_schedule(c, 12)  # the counters do count a rebuild
    assert calls == ["gather_schedule", "slot_layout", "offset_plan"]


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
    c = cfg()
    n = 10
    proj, gate, x = setup(c, n)
    sched = gather_schedule(c, n)
    _, cache = pi_attention_forward(x, proj, gate, sched, c)
    valid = sched.valid[:, None, None]

    def ring_mass(alpha):
        # the forward's scores under a gate fixed at alpha for every token and head
        probs = gated_softmax(cache.scores_raw, np.full((1, c.n_heads, n), alpha),
                              sched.ring, valid, c)
        return probs[sched.ring, 0, :, n - 1].sum(axis=0)  # token n-1 has both kinds

    assert (ring_mass(0.8) > ring_mass(0.2)).all()


def test_logit_clamp_keeps_extreme_scores_finite():
    c = cfg()
    proj, gate, x = setup(c, 8)
    out, cache = pi_attention_forward(x * 1e4, proj, gate,
                                      gather_schedule(c, 8), c)
    assert np.isfinite(out).all()
    clamped = np.clip(cache.scores_raw, -c.logit_clamp, c.logit_clamp)
    assert np.abs(clamped).max() <= c.logit_clamp


def test_stacked_gradients_quick():
    errors = run_stacked_grad_check(seed=1, n=4, d_model=8, n_heads=2,
                                    k=1, pi=2, layers=1)
    assert max(errors.values()) < 1e-6, max(errors, key=errors.get)


def scalar_grad_check(f, x, analytic, h=1e-3):
    """The per-coordinate loop that `grad_check` replaced, kept as its
    reference: one scalar loss per coordinate and step, x perturbed in place,
    the same five-point stencil."""
    worst = 0.0
    flat = x.ravel()
    gflat = analytic.ravel()
    for i in range(flat.size):
        orig = flat[i]
        vals = []
        for step in (h, -h, 2.0 * h, -2.0 * h):
            flat[i] = orig + step
            vals.append(f(x))
        flat[i] = orig
        if not np.isfinite(vals).all():
            raise NonFiniteError(f"grad_check: f non-finite near coordinate {i}")
        fp, fm, f2p, f2m = vals
        fd = (8.0 * (fp - fm) - (f2p - f2m)) / (12.0 * h)
        worst = max(worst, abs(fd - gflat[i]) / (abs(gflat[i]) + GRAD_CHECK_FLOOR))
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_grad_check_equals_scalar_loop(seed):
    kw = dict(n=4, d_model=8, n_heads=2, k=1, pi=2, layers=2)
    cfg, blocks, x, w_loss, schedule = stacked_block_setup(seed, **kw)

    def loss_fn():
        y = x
        for bp in blocks:
            y, _ = block_forward(y, bp, schedule, cfg)
        return float((y[0] * w_loss).sum())

    y = x
    caches = []
    for bp in blocks:
        y, c = block_forward(y, bp, schedule, cfg)
        caches.append(c)
    d_y = np.broadcast_to(w_loss, y.shape).copy()
    grads = []
    for bp, c in zip(reversed(blocks), reversed(caches)):
        d_y, g = block_backward(bp, c, d_y)
        grads.insert(0, g)
    expected = {}
    for i, (bp, g) in enumerate(zip(blocks, grads)):
        for name, arr in flatten(bp).items():
            expected[f"block{i}.{name}"] = scalar_grad_check(
                lambda _: loss_fn(), arr, flatten(g)[name])
    expected["x"] = scalar_grad_check(lambda _: loss_fn(), x, d_y)
    assert run_stacked_grad_check(seed=seed, **kw) == expected


@pytest.mark.parametrize("seed", range(9))
def test_stacked_grad_check_catches_relative_mutant(seed, monkeypatch):
    # block0.gate.w1 has the least margin under the gate; its largest
    # analytic coordinate, scaled by (1 + 1e-5), must fail the 1e-6 gate
    backward, check = checks.block_backward, checks.grad_check
    calls, mutated = [], []

    def mutant_backward(params, cache, d_out):
        d_x, g = backward(params, cache, d_out)
        calls.append(params)
        if len(calls) == 2:  # blocks run backward: the second call is block 0
            w1 = g.gate.w1
            w1.flat[np.abs(w1).argmax()] *= 1.0 + 1e-5
            mutated.append(w1)
        return d_x, g

    def only_mutated(f, x, analytic, h):
        # the other tensors are covered by criterion 2; skip them here
        return check(f, x, analytic, h) if analytic is mutated[0] else 0.0

    monkeypatch.setattr(checks, "block_backward", mutant_backward)
    monkeypatch.setattr(checks, "grad_check", only_mutated)
    errors = run_stacked_grad_check(seed=seed)
    assert errors["block0.gate.w1"] > 1e-6


def test_grad_check_points_stay_clear_of_the_clamp():
    # the stencil steps up to 2h = 2e-3; every score sits at least 15 from the
    # clamp at 20, so no kink of the clamp lies inside a step
    for seed in range(9):
        cfg, blocks, x, _, schedule = stacked_block_setup(seed)
        y = x
        for bp in blocks:
            y, c = block_forward(y, bp, schedule, cfg)
            assert np.abs(c.attn.scores_raw).max() < cfg.logit_clamp - 15.0


def test_kl_divergence_hand_value():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    expect = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
    assert abs(kl_divergence(p, q) - expect) < 1e-12
    assert kl_divergence(p, p) == 0.0


def test_distributions_ideal_vs_stabilized():
    rng = Rng(9)
    scores = np.moveaxis(rng.normal((1, 1, 6, 4)), -1, 0)  # slots first
    ring = np.array([True, True, False, False])
    valid = np.ones((4, 1, 1, 7), dtype=bool)
    alpha = rng.uniform((1, 1, 6), 0.2, 0.8)
    # a seventh row whose raw gate is exactly 1: the ideal skip prior is -inf
    scores = np.concatenate([scores, scores[..., :1]], axis=-1)
    alpha = np.append(alpha, 1.0).reshape(1, 1, 7)

    def stabilized(eps, clamp):
        c = cfg(eps=eps, logit_clamp=clamp)
        return gated_softmax(scores, clip_alpha(alpha, eps), ring, valid, c)

    with np.errstate(divide="ignore"):
        ideal = gated_softmax(scores, alpha, ring, valid, cfg(logit_clamp=np.inf))
    stab = stabilized(1e-4, 20.0)
    assert (ideal[~ring, ..., 6] == 0.0).all()
    assert stab[~ring, ..., 6].min() > 0.0
    # nothing clamps here and alpha is interior, so the two nearly agree
    assert kl_divergence(stab, ideal)[..., :6].max() < 1e-6
    exact = stabilized(1e-15, 1e9)
    assert kl_divergence(exact, ideal)[..., :6].max() < 1e-12


def test_clip_alpha_reproduces_forward_alpha():
    c = cfg(eps=1e-2)
    proj, gate, x = setup(c, 12)
    _, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, 12), c)
    assert np.array_equal(clip_alpha(cache.gate_cache.alpha_raw, c.eps), cache.alpha)


@pytest.mark.parametrize("clamp_binds", [False, True])
def test_gated_softmax_reproduces_forward_probs(clamp_binds):
    # a clamp of 0.5 binds on many slots, one of 20 on none
    c = cfg(logit_clamp=0.5 if clamp_binds else 20.0)
    proj, gate, x = setup(c, 12)
    _, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, 12), c)
    plan = cache.schedule
    assert (np.abs(cache.scores_raw) > c.logit_clamp).any() == clamp_binds
    probs = gated_softmax(cache.scores_raw, cache.alpha.transpose(0, 2, 1), plan.ring,
                          plan.valid[:, None, None], c)
    assert np.array_equal(probs, cache.probs)


def gated_softmax_textbook(scores, alpha_h, ring, valid, c):
    """np.clip, the log-prior by np.where and `softmax_row` over the slot axis."""
    logits = np.clip(scores, -c.logit_clamp, c.logit_clamp)
    ring = ring.reshape(ring.shape + (1,) * alpha_h.ndim)
    logits = logits + np.where(ring, np.log(alpha_h), np.log(1.0 - alpha_h))
    valid = np.moveaxis(np.broadcast_to(valid, logits.shape), 0, -1)
    return np.moveaxis(softmax_row(np.moveaxis(logits, 0, -1), valid), -1, 0)


@pytest.mark.parametrize("clamp", [0.5, 20.0, np.inf])
def test_gated_softmax_clamp_is_np_clip_bit_for_bit(clamp):
    # finite scores on both sides of the clamp, +-inf and NaN; a NaN score
    # makes its whole column NaN, as np.clip's NaN did
    c = cfg(logit_clamp=clamp)
    rng = Rng(11)
    scores = rng.normal((5, 2, 3, 7), 10.0)
    scores[0, 0, 0, :3] = np.inf, -np.inf, np.nan
    scores[2, 1, 2, 4] = -np.inf
    ring = np.array([True, True, True, False, False])
    alpha = rng.uniform((2, 3, 7), 0.1, 0.9)
    valid = rng.uniform((5, 1, 1, 7)) < 0.7
    valid[1] = True
    with np.errstate(invalid="ignore"):  # inf - inf under an infinite clamp
        for v in (valid, None):
            got = gated_softmax(scores, alpha, ring, v, c)
            want = gated_softmax_textbook(scores, alpha, ring, True if v is None else v, c)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        # valid=None is the all-valid mask
        all_valid = gated_softmax(scores, alpha, ring, np.ones((5, 1, 1, 7), bool), c)
    assert np.array_equal(got, all_valid, equal_nan=True)
    assert np.isnan(got[:, 0, 0, 2]).all() and np.isfinite(got[:, 0, 0, 3:]).all()


@pytest.mark.parametrize("d_model,n_heads", [(8, 2), (64, 4)])
def test_random_attention_params_equal_per_tensor_draws(d_model, n_heads):
    # the stacked draws must keep every parameter, and so the inputs of the
    # oracle, gradient and benchmark checks, bit for bit
    proj, gate = random_attention_params(Rng(5), d_model, n_heads)
    rng, hidden = Rng(5), d_model // 2
    ref = [rng.glorot((d_model, d_model)) for _ in range(4)]
    ref += [rng.normal((d_model,), 0.1) for _ in range(3)]
    ref += [rng.glorot((d_model, hidden)), rng.normal((hidden,), 0.1),
            rng.glorot((hidden, n_heads)), rng.normal((n_heads,), 0.5)]
    got = [proj.wq, proj.wk, proj.wv, proj.wo, proj.bq, proj.bv, proj.bo,
           gate.w1, gate.b1, gate.w2, gate.b2]
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def einsum_oracle(x, proj, gate, union, c):
    """`dense_oracle` in its textbook form: heads copied out by `split_heads`,
    both n x n products as einsums."""
    h_cnt, d_h = c.n_heads, c.head_dim
    qh = split_heads(x @ proj.wq + proj.bq, h_cnt)
    kh = split_heads(x @ proj.wk, h_cnt)
    vh = split_heads(x @ proj.wv + proj.bv, h_cnt)
    alpha, _ = gate_forward(gate, x, c)
    allowed, ring_pair = union.dense_masks
    scores = np.einsum("bhid,bhjd->bhij", qh, kh) * (1.0 / np.sqrt(d_h))
    prior = 0.0
    if alpha is not None:
        alpha_h = alpha.transpose(0, 2, 1)[..., None]
        prior = np.where(ring_pair, np.log(alpha_h), np.log(1.0 - alpha_h))
    logits = np.clip(scores, -c.logit_clamp, c.logit_clamp) + prior
    out_h = np.einsum("bhij,bhjd->bhid", softmax_row(logits, allowed), vh)
    return merge_heads(out_h) @ proj.wo + proj.bo


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dense_oracle_matches_einsum_form(data):
    # the oracle's matmuls over head views sum in another order than the
    # einsums, so agreement is to rounding, far inside the oracle's 1e-10
    n = data.draw(st.integers(1, 40), label="n")
    causal = data.draw(st.booleans(), label="causal")
    c = cfg(d_model=data.draw(st.sampled_from([8, 16]), label="d_model"),
            n_heads=data.draw(st.sampled_from([1, 2, 4]), label="heads"),
            ring_k=data.draw(st.integers(0, 4), label="k"),
            skip_period=data.draw(st.integers(1, 20), label="pi"),
            causal=causal,
            bidirectional_skip=not causal and data.draw(st.booleans(), label="bidir"),
            ablation=data.draw(st.sampled_from(ABLATIONS), label="ablation"),
            logit_clamp=data.draw(st.sampled_from([0.5, 20.0]), label="clamp"))
    union = build_union(c, n)
    rng = Rng(data.draw(st.integers(0, 2 ** 31 - 1), label="seed"))
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x = rng.normal((data.draw(st.integers(1, 2), label="batch"), n, c.d_model))
    ref = einsum_oracle(x, proj, gate, union, c)
    assert np.abs(dense_oracle(x, proj, gate, union, c) - ref).max() < 1e-13


def test_dense_oracle_respects_mask():
    c = cfg()
    n = 9
    proj, gate, x = setup(c, n)
    out = dense_oracle(x, proj, gate, build_union(c, n), c)
    assert out.shape == (1, n, c.d_model)
    assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# a large call runs its batch rows as two halves, the second on the worker
# thread; every array it yields equals the inline call's bit for bit
# ---------------------------------------------------------------------------


def spy_threads(monkeypatch):
    """Record the thread of each call of the attention steps a split call
    runs per half (`_slot_dots`, the gate's forward and row-local backward)
    or in its tail jobs (`linear_grads`), and the index and thread of each tail job
    in the order the jobs start: name -> [thread], and "jobs" -> [(index, thread)]."""
    import threading
    from ringskip import attention
    seen = {"jobs": []}

    def spy(name):
        real, calls = getattr(attention, name), seen.setdefault(name, [])

        def wrapped(*args, **kwargs):
            calls.append(threading.get_ident())
            return real(*args, **kwargs)
        monkeypatch.setattr(attention, name, wrapped)

    for name in ("_slot_dots", "gate_forward", "gate_backward", "linear_grads"):
        spy(name)
    real_jobs = attention._in_jobs

    def tagged(index, job):
        def run():
            seen["jobs"].append((index, threading.get_ident()))
            return job()
        return run

    monkeypatch.setattr(attention, "_in_jobs", lambda jobs, split: real_jobs(
        [tagged(i, job) for i, job in enumerate(jobs)], split))
    return seen


def forward_backward_arrays(x, proj, gate, c, d_out=None):
    """name -> array for the output and every AttnCache array of one forward
    and, given d_out, d_x and every projection and gate gradient."""
    out, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, x.shape[1]), c)
    arrays = {"out": out}
    for name, value in vars(cache).items():
        if isinstance(value, np.ndarray):
            arrays[f"cache.{name}"] = value
    if cache.gate_cache is not None:
        for name, value in vars(cache.gate_cache).items():
            if isinstance(value, np.ndarray):
                arrays[f"cache.gate_cache.{name}"] = value
    if d_out is not None:
        d_x, g_proj, g_gate = pi_attention_backward(proj, gate, cache, d_out)
        arrays["d_x"] = d_x
        arrays.update({f"d_proj.{k}": v for k, v in vars(g_proj).items()})
        if g_gate is not None:
            arrays.update({f"d_gate.{k}": v for k, v in vars(g_gate).items()})
    return arrays


def split_inline_one_cpu(monkeypatch, run):
    """run() three ways: split over two threads, inline below a raised cut,
    and on a host that gives the process one CPU; with the threads each used."""
    import os
    from ringskip import attention
    seen = spy_threads(monkeypatch)
    results = {}
    for mode, cpus, cut in (("split", 2, attention.SPLIT_MIN_ROWS),
                            ("inline", 2, 10 ** 12),
                            ("one_cpu", 1, attention.SPLIT_MIN_ROWS)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(attention, "SPLIT_MIN_ROWS", cut)
        for calls in seen.values():
            calls.clear()
        arrays = run()
        results[mode] = (arrays, {name: list(calls) for name, calls in seen.items()})
    return results


def assert_all_equal(results):
    ref, _ = results["inline"]
    for mode, (arrays, _) in results.items():
        assert arrays.keys() == ref.keys()
        for name, a in arrays.items():
            assert np.array_equal(a, ref[name]), (mode, name)


@pytest.mark.parametrize("batch", [2, 3])
@pytest.mark.parametrize("causal", [True, False])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_split_call_equals_inline_bit_for_bit(monkeypatch, ablation, causal, batch):
    import threading
    from ringskip import attention
    n = 1400
    c = cfg(n_heads=4, ring_k=2, skip_period=8, causal=causal,
            bidirectional_skip=not causal, ablation=ablation, logit_clamp=0.5)
    assert batch * c.n_heads * n >= attention.SPLIT_MIN_ROWS
    rng = Rng(batch)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x, d_out = rng.normal((2, batch, n, c.d_model))
    results = split_inline_one_cpu(
        monkeypatch, lambda: forward_backward_arrays(x, proj, gate, c, d_out))
    caller = threading.get_ident()
    gated = ablation != "no_gate"
    for mode, (_, seen) in results.items():
        split = mode == "split"
        # the row-local steps, the gate's among them, run once per half
        for name in ("_slot_dots", "gate_forward", "gate_backward"):
            if name != "_slot_dots" and not gated:
                assert seen[name] == [], (mode, name)
            else:
                assert len(set(seen[name])) == (2 if split else 1), (mode, name)
        # the two tail jobs: the first on the caller, the second on the worker,
        # or both in order on the caller; the first sums wq, bq and the gate's
        # first layer, the second wv, bv, wo, bo and its second layer
        jobs = seen["jobs"]
        assert sorted(index for index, _ in jobs) == [0, 1], mode
        assert dict(jobs)[0] == caller
        if split:
            assert dict(jobs)[1] != caller
        else:
            assert jobs == [(0, caller), (1, caller)], mode
        threads = dict(jobs)
        assert sorted(seen["linear_grads"]) == sorted(
            [threads[0]] * (1 + gated) + [threads[1]] * (2 + gated)), mode
    assert_all_equal(results)


@pytest.mark.parametrize("ablation", ["full", "no_gate"])
def test_the_traced_gate_backward_is_the_one_attention_runs(monkeypatch, ablation):
    """A tracer that rebinds every `ringskip.*` module attribute that is
    `gate.gate_backward`, as perfbench's does, times the gate's backward: a
    gated backward reaches it once per half, split or inline; a no_gate
    backward never does."""
    import os
    import sys
    from ringskip import attention, gate as gate_module
    real, calls = gate_module.gate_backward, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "ringskip" or key.startswith("ringskip."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    c, n = cfg(n_heads=4, ablation=ablation), 1100
    rng = Rng(5)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x, d_out = rng.normal((2, 2, n, c.d_model))
    plan = gather_schedule(c, n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for cut, parts in ((attention.SPLIT_MIN_ROWS, 2), (10 ** 12, 1)):
        monkeypatch.setattr(attention, "SPLIT_MIN_ROWS", cut)
        _, cache = pi_attention_forward(x, proj, gate, plan, c)
        calls.clear()
        pi_attention_backward(proj, gate, cache, d_out)
        assert len(calls) == (0 if ablation == "no_gate" else parts), cut


def test_replica_stacked_call_runs_whole_above_the_cut(monkeypatch):
    import dataclasses
    import os
    from ringskip import attention
    c, m, n = cfg(n_heads=4, ring_k=2, skip_period=8), 4, 700
    assert m * c.n_heads * n >= attention.SPLIT_MIN_ROWS
    rng = Rng(11)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    jitter = 0.01 * rng.normal((m, 1, 1))
    # one replica per batch row: matrices (m, a, b), vectors (m, 1, d)
    proj = dataclasses.replace(proj, wq=proj.wq + jitter, bv=proj.bv + jitter)
    gate = dataclasses.replace(gate, w1=gate.w1 + jitter, b2=gate.b2 + jitter)
    x = rng.normal((m, n, c.d_model))
    results = split_inline_one_cpu(monkeypatch, lambda: forward_backward_arrays(x, proj, gate, c))
    assert len(set(results["split"][1]["_slot_dots"])) == 1
    assert_all_equal(results)
    # each row is its own replica's call
    for r in range(m):
        row = forward_backward_arrays(
            x[r:r + 1], dataclasses.replace(proj, wq=proj.wq[r], bv=proj.bv[r]),
            dataclasses.replace(gate, w1=gate.w1[r], b2=gate.b2[r]), c)["out"]
        assert np.abs(results["split"][0]["out"][r:r + 1] - row).max() < 1e-13
    # one stacked tensor in either parameter set keeps the call whole
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    flat_proj = dataclasses.replace(proj, wq=proj.wq[0], bv=proj.bv[0])
    flat_gate = dataclasses.replace(gate, w1=gate.w1[0], b2=gate.b2[0])
    for p, g in ((proj, flat_gate), (flat_proj, gate)):
        assert attention._parts(m, c.n_heads * n, p, g) == [(slice(0, m),)]
    assert len(attention._parts(m, c.n_heads * n, flat_proj, flat_gate)) == 2


@pytest.mark.parametrize("where", ["forward", "backward"])
def test_an_error_in_the_worker_half_of_an_attention_call_reaches_the_caller(
        monkeypatch, where):
    import os
    import threading
    from ringskip import attention
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    c, n = cfg(n_heads=4), 1100
    rng = Rng(5)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x = rng.normal((2, n, c.d_model))
    plan = gather_schedule(c, n)
    out, cache = pi_attention_forward(x, proj, gate, plan, c)
    caller, real = threading.get_ident(), attention._slot_dots

    def poisoned(*args):
        if threading.get_ident() != caller:
            raise RuntimeError("worker half failed")
        return real(*args)

    monkeypatch.setattr(attention, "_slot_dots", poisoned)
    with pytest.raises(RuntimeError, match="worker half failed"):
        if where == "forward":
            pi_attention_forward(x, proj, gate, plan, c)
        else:
            pi_attention_backward(proj, gate, cache, np.ones_like(out))
    monkeypatch.setattr(attention, "_slot_dots", real)
    assert np.array_equal(pi_attention_forward(x, proj, gate, plan, c)[0], out)


@pytest.mark.parametrize("job", ["caller", "worker"])
def test_an_error_in_either_tail_job_reaches_the_caller(monkeypatch, job):
    import os
    import threading
    from ringskip import attention
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    c, n = cfg(n_heads=4), 1100
    rng = Rng(6)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x, d_out = rng.normal((2, 2, n, c.d_model))
    out, cache = pi_attention_forward(x, proj, gate, gather_schedule(c, n), c)
    ref = pi_attention_backward(proj, gate, cache, d_out)
    caller, real = threading.get_ident(), attention.linear_grads

    def poisoned(*args):
        # each job sums its own layers, the gate's among them
        if (threading.get_ident() == caller) == (job == "caller"):
            raise RuntimeError(f"{job} job failed")
        return real(*args)

    monkeypatch.setattr(attention, "linear_grads", poisoned)
    with pytest.raises(RuntimeError, match=f"{job} job failed"):
        pi_attention_backward(proj, gate, cache, d_out)
    monkeypatch.setattr(attention, "linear_grads", real)
    again = pi_attention_backward(proj, gate, cache, d_out)
    assert np.array_equal(again[0], ref[0]) and np.array_equal(again[2].w2, ref[2].w2)


@pytest.mark.skipif(__import__("platform").libc_ver()[0] != "glibc",
                    reason="heap retention uses glibc's mallopt")
def test_a_second_call_at_the_cut_reuses_its_memory():
    import resource
    import tracemalloc
    from ringskip import attention, split
    c = cfg(d_model=16, n_heads=4, ring_k=2, skip_period=8)
    b, n = 2, attention.SPLIT_MIN_ROWS // (2 * c.n_heads)
    rng = Rng(3)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x, d_out = rng.normal((2, b, n, c.d_model))
    plan = gather_schedule(c, n)

    def call():
        out, cache = pi_attention_forward(x, proj, gate, plan, c)
        pi_attention_backward(proj, gate, cache, d_out)

    # the first call switches retention on; the second grows the heap to the
    # call's high-water mark, since the first one's blocks were mapped
    call()
    call()
    assert split.heap_kept()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    tracemalloc.start()
    try:
        call()
        peak_pages = tracemalloc.get_traced_memory()[1] / resource.getpagesize()
    finally:
        tracemalloc.stop()
    # without retention a call faults in about as many pages as it holds at its peak
    assert faults < peak_pages / 10, (faults, peak_pages)


def test_split_call_is_stable_under_frequent_thread_switches(monkeypatch):
    # the halves write disjoint rows of shared arrays; switching threads every
    # microsecond must not change a bit
    import os
    import sys
    from ringskip import attention
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    c, n = cfg(n_heads=4, ring_k=2, skip_period=8), 1100
    rng = Rng(9)
    proj, gate = random_attention_params(rng, c.d_model, c.n_heads)
    x, d_out = rng.normal((2, 3, n, c.d_model))
    monkeypatch.setattr(attention, "SPLIT_MIN_ROWS", 10 ** 12)
    ref = forward_backward_arrays(x, proj, gate, c, d_out)
    monkeypatch.setattr(attention, "SPLIT_MIN_ROWS", 3 * c.n_heads * n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [forward_backward_arrays(x, proj, gate, c, d_out) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for arrays in runs:
        assert all(np.array_equal(a, ref[name]) for name, a in arrays.items())
