import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringskip.checks import random_model_params, run_decode_check
from ringskip.decoder import CacheGapError, KVCache, decode_step, generate
from ringskip.model import ModelConfig, flatten, init_model, model_forward
from ringskip.neighborhood import ABLATIONS, AttentionConfig, ConfigError
from ringskip.numerics import NonFiniteError, Rng


def model_cfg(layers=1, k=2, pi=8, **kw):
    kw.setdefault("causal", True)
    att = AttentionConfig(d_model=16, n_heads=2, ring_k=k, skip_period=pi,
                          **kw)
    return ModelConfig(layers=layers, d_model=16, n_heads=2, d_ff=32,
                       vocab=11, max_seq=64, attention=att)


def test_stepwise_matches_full_forward():
    assert run_decode_check(model_cfg(), seq_len=24) < 1e-10


def test_decode_check_runs_a_live_gate():
    # init_model's zero gate output puts every alpha at 0.5, where the gate's
    # input cannot reach the logits, and its zero biases and unit gains hide a
    # decoder that drops or misfolds one; the check's default draws them all
    cfg = model_cfg(layers=2)
    params = random_model_params(cfg)
    fresh = flatten(init_model(cfg, seed=0))
    for name, arr in flatten(params).items():
        if arr.ndim == 1 or name.endswith("gate.w2"):
            assert (arr != fresh[name]).all(), name
        else:
            assert np.array_equal(arr, fresh[name]), name
    assert run_decode_check(cfg, seq_len=24) == run_decode_check(cfg, seq_len=24, params=params)


# (0, 3) and (0, 1) have ring_k = 0; (3, 1), (0, 1) and (2, 2) put the skip
# stride inside the ring window; (3, 1) and (0, 1) have skip_period = 1.
@pytest.mark.parametrize("k,pi", [(2, 8), (1, 4), (0, 3), (3, 1), (4, 2),
                                  (0, 1), (2, 2)])
@pytest.mark.parametrize("clamp_binds", [False, True])
@pytest.mark.parametrize("random_gate", [False, True])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_stepwise_matches_full_forward_every_config(ablation, random_gate,
                                                    clamp_binds, k, pi):
    # logit_clamp 0.5 clips most scores of a freshly initialised model, 20 none
    cfg = model_cfg(layers=2, k=k, pi=pi, ablation=ablation,
                    logit_clamp=0.5 if clamp_binds else 20.0)
    # the check's default draws every bias, gain and the gate output layer;
    # init_model's is the fresh model at alpha 0.5
    params = None if random_gate else init_model(cfg, seed=0)
    assert run_decode_check(cfg, seq_len=20, params=params) < 1e-8


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 4), pi=st.integers(1, 20), heads=st.sampled_from([1, 2, 4]),
       ablation=st.sampled_from(ABLATIONS), layers=st.integers(1, 2),
       logit_clamp=st.sampled_from([0.5, 20.0]), seed=st.integers(0, 2 ** 16))
def test_stepwise_matches_full_forward_random_config(k, pi, heads, ablation, layers,
                                                     logit_clamp, seed):
    att = AttentionConfig(d_model=16, n_heads=heads, ring_k=k, skip_period=pi,
                          causal=True, ablation=ablation, logit_clamp=logit_clamp)
    cfg = ModelConfig(layers=layers, d_model=16, n_heads=heads, d_ff=32, vocab=11,
                      max_seq=64, attention=att)
    # 24 steps pass the largest skip stride, so the skip slot becomes valid
    assert run_decode_check(cfg, seq_len=24, seed=seed) < 1e-8


def test_decode_check_reports_a_nan_delta():
    # no gate, so nothing raises on the NaN; Python's max(worst, nan) kept 0.0
    cfg = model_cfg(ablation="no_gate")
    params = random_model_params(cfg, seed=0)
    params.b_out[3] = np.nan
    delta = run_decode_check(cfg, seq_len=8, params=params)
    assert np.isnan(delta) and not delta < 1e-8


def test_interleaved_sequences_keep_their_own_slot_plan():
    # two sequences under different slot plans, stepped alternately: neither
    # may read the other's offsets or ring mask
    cfgs = [model_cfg(layers=2, k=2, pi=8), model_cfg(layers=2, k=4, pi=3, ablation="no_skip")]
    params = [init_model(cfg, seed=i) for i, cfg in enumerate(cfgs)]
    tokens = [Rng(i).integers(0, cfg.vocab, (24,)) for i, cfg in enumerate(cfgs)]

    def alone(i):
        cache = KVCache.empty(cfgs[i].layers)
        return np.array([decode_step(params[i], cfgs[i], cache, int(tok), t)
                         for t, tok in enumerate(tokens[i])])

    caches = [KVCache.empty(cfg.layers) for cfg in cfgs]
    steps = [[], []]
    for t in range(24):
        for i in (0, 1):
            steps[i].append(decode_step(params[i], cfgs[i], caches[i], int(tokens[i][t]), t))
    for i in (0, 1):
        full, _ = model_forward(tokens[i][None], params[i], cfgs[i])
        assert np.array_equal(np.array(steps[i]), alone(i))
        assert np.abs(np.array(steps[i]) - full[0]).max() < 1e-8


def test_a_sequence_keeps_the_params_object_it_started_with():
    # the plan packed at t == 0 copies the params, so a step that passes
    # another object (even an equal one) would decode with stale weights
    cfg = model_cfg(layers=2)
    params = random_model_params(cfg)
    cache = KVCache.empty(cfg.layers)
    decode_step(params, cfg, cache, 1, 0)
    for other in (random_model_params(cfg), dataclasses.replace(params)):
        with pytest.raises(ConfigError, match="params object it started with"):
            decode_step(other, cfg, cache, 2, 1)
    assert cache.next_pos == 1
    decode_step(params, cfg, cache, 2, 1)
    # a new sequence packs whichever params it starts with
    decode_step(random_model_params(cfg, seed=1), cfg, KVCache.empty(cfg.layers), 1, 0)


@pytest.mark.parametrize("ablation", ["full", "no_gate"])
@pytest.mark.parametrize("where", ["tok_emb", "blocks.0.w_ff2", "blocks.1.ln1_g",
                                   "blocks.1.w_ff2", "lnf_b"])
def test_decode_raises_non_finite_where_the_forward_gate_does(ablation, where):
    # the forward's gate raises on a non-finite input row in any layer; a NaN
    # after the last layer's gate (its FFN or the final norm) reaches only the
    # logits, and under no_gate there is no gate to raise
    cfg = model_cfg(layers=2, ablation=ablation)
    params = random_model_params(cfg)
    flatten(params)[where][..., 3] = np.nan
    tokens = np.arange(8) % cfg.vocab
    try:
        model_forward(tokens[None], params, cfg)
        forward_raises = False
    except NonFiniteError:
        forward_raises = True
    assert forward_raises == (ablation == "full" and where in ("tok_emb", "blocks.0.w_ff2",
                                                               "blocks.1.ln1_g"))
    cache = KVCache.empty(cfg.layers)
    if forward_raises:
        with pytest.raises(NonFiniteError, match="gate input"):
            for t, tok in enumerate(tokens):
                decode_step(params, cfg, cache, int(tok), t)
    else:
        for t, tok in enumerate(tokens):
            logits = decode_step(params, cfg, cache, int(tok), t)
        assert not np.isfinite(logits).all()


def test_cache_retention_window():
    cfg = model_cfg(layers=2, k=2, pi=8)
    params = init_model(cfg, seed=0)
    cache = KVCache.empty(cfg.layers)
    for t in range(21):
        decode_step(params, cfg, cache, t % cfg.vocab, t)
        # a fixed ring buffer of 1 + the plan's largest |offset| rows on every layer
        assert [len(layer.rows) for layer in cache.layers] == [1 + 8] * cfg.layers


def test_cache_rows_follow_the_plan():
    # no_skip drops the stride from the plan, so the buffer holds 1 + k rows
    cfg = model_cfg(layers=2, k=2, pi=8, ablation="no_skip")
    params = init_model(cfg, seed=0)
    cache = KVCache.empty(cfg.layers)
    tokens = np.arange(21) % cfg.vocab
    steps = [decode_step(params, cfg, cache, int(tok), t) for t, tok in enumerate(tokens)]
    assert [len(layer.rows) for layer in cache.layers] == [3] * cfg.layers
    full, _ = model_forward(tokens[None], params, cfg)
    assert np.abs(np.array(steps) - full[0]).max() < 1e-8


def test_out_of_order_step_rejected():
    cfg = model_cfg()
    params = init_model(cfg, seed=0)
    cache = KVCache.empty(cfg.layers)
    decode_step(params, cfg, cache, 1, 0)
    with pytest.raises(CacheGapError):
        decode_step(params, cfg, cache, 1, 5)


def test_token_outside_vocab_rejected():
    cfg = model_cfg()
    params = init_model(cfg, seed=0)
    for tok in (-1, cfg.vocab):
        with pytest.raises(ValueError, match="vocabulary"):
            decode_step(params, cfg, KVCache.empty(cfg.layers), tok, 0)


def test_non_causal_decoding_rejected():
    cfg = model_cfg(causal=False, bidirectional_skip=True)
    params = init_model(cfg, seed=0)
    with pytest.raises(ValueError, match="causal"):
        decode_step(params, cfg, KVCache.empty(cfg.layers), 0, 0)


def test_position_limit_enforced():
    cfg = model_cfg()
    params = init_model(cfg, seed=0)
    cache = KVCache.empty(cfg.layers)
    cache.next_pos = cfg.max_seq
    with pytest.raises(ValueError, match="max_seq"):
        decode_step(params, cfg, cache, 0, cfg.max_seq)


def test_generate_greedy_deterministic():
    cfg = model_cfg()
    params = init_model(cfg, seed=3)
    a = generate(params, cfg, [1, 2, 3], steps=10)
    b = generate(params, cfg, [1, 2, 3], steps=10)
    assert a == b
    assert len(a) == 13
    assert all(0 <= t < cfg.vocab for t in a)


def test_generate_argument_validation():
    cfg = model_cfg()
    params = init_model(cfg, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        generate(params, cfg, [], steps=3)
    with pytest.raises(ValueError, match="rng"):
        generate(params, cfg, [1], steps=3, temperature=1.0)


def test_generate_rejects_negative_steps():
    # range(-3) is empty, so -3 used to return the prompt as if it were 0
    cfg = model_cfg()
    params = init_model(cfg, seed=0)
    with pytest.raises(ValueError, match="steps: must be >= 0, got -3"):
        generate(params, cfg, [1, 2], steps=-3)
    assert generate(params, cfg, [1, 2], steps=0) == [1, 2]


@pytest.mark.parametrize("prompt,steps", [([1, 2, 3], 5), ([1, 2, 3], 1), ([1, 2], 0), ([4], 1)],
                         ids=["3+5", "3+1", "2+0", "1+1"])
def test_generate_steps_every_token_whose_logits_it_reads(monkeypatch, prompt, steps):
    # before, the last sampled token took a step too: 8 calls for 3 + 5
    from ringskip import decoder
    cfg = model_cfg()
    params = init_model(cfg, seed=3)
    real, positions = decoder.decode_step, []

    def counted(params, cfg, cache, token, position):
        positions.append(position)
        return real(params, cfg, cache, token, position)

    monkeypatch.setattr(decoder, "decode_step", counted)
    out = generate(params, cfg, prompt, steps)
    assert len(out) == len(prompt) + steps
    assert positions == list(range(len(prompt) + max(steps - 1, 0)))


@pytest.mark.parametrize("temp", [0.0, -1.0, float("inf"), float("nan")])
def test_generate_rejects_a_temperature_not_finite_and_positive(temp):
    # at 0 the old CLI sampled at 1.0, and below 0 from the inverted distribution
    cfg = model_cfg()
    params = init_model(cfg, seed=0)
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        generate(params, cfg, [1], steps=3, temperature=temp, rng=Rng(0))
    assert len(generate(params, cfg, [1], steps=3, temperature=0.5, rng=Rng(0))) == 4


class TopRng(Rng):
    """An Rng whose every uniform draw is the largest double below 1, a value
    `Generator.uniform` can return."""

    def uniform(self, shape, low=0.0, high=1.0):
        return np.full(shape, np.nextafter(1.0, 0.0))


def test_sampling_never_leaves_the_vocabulary():
    # here the cumulative sum ends below that draw, and searchsorted returned V = 16
    att = AttentionConfig(d_model=8, n_heads=2, ring_k=1, skip_period=3, causal=True)
    cfg = ModelConfig(layers=1, d_model=8, n_heads=2, d_ff=8, vocab=16, max_seq=12,
                      attention=att)
    params = random_model_params(cfg, seed=4)
    assert generate(params, cfg, [1, 2], steps=1, temperature=1.0, rng=TopRng(0)) == [1, 2, 15]


def test_sampling_gives_no_token_of_zero_probability(monkeypatch):
    # seven equal logits and one whose probability underflows to 0: the
    # cumulative sum ends below the top draw, and a cap at V - 1 took token 7
    from ringskip import decoder
    cfg = dataclasses.replace(model_cfg(), vocab=8)
    logits = np.zeros(8)
    logits[-1] = -1e4
    monkeypatch.setattr(decoder, "decode_step", lambda *args: logits)
    assert generate(None, cfg, [1], steps=1, temperature=1.0, rng=TopRng(0)) == [1, 6]
