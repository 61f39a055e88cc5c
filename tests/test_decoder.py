import numpy as np
import pytest

from ringskip.checks import run_decode_check
from ringskip.decoder import CacheGapError, KVCache, decode_step, generate
from ringskip.model import ModelConfig, init_model
from ringskip.neighborhood import ABLATIONS, AttentionConfig


def model_cfg(layers=1, k=2, pi=8, **kw):
    kw.setdefault("causal", True)
    att = AttentionConfig(d_model=16, n_heads=2, ring_k=k, skip_period=pi,
                          **kw)
    return ModelConfig(layers=layers, d_model=16, n_heads=2, d_ff=32,
                       vocab=11, max_seq=64, attention=att)


def test_stepwise_matches_full_forward():
    assert run_decode_check(model_cfg(), seq_len=24) < 1e-10


# (0, 3) and (0, 1) have ring_k = 0; (3, 1), (0, 1) and (2, 2) put the skip
# stride inside the ring window; (3, 1) and (0, 1) have skip_period = 1.
@pytest.mark.parametrize("k,pi", [(2, 8), (1, 4), (0, 3), (3, 1), (4, 2),
                                  (0, 1), (2, 2)])
@pytest.mark.parametrize("clamp_after_prior", [False, True])
@pytest.mark.parametrize("gate_on_query", [False, True])
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_stepwise_matches_full_forward_every_config(ablation, gate_on_query,
                                                    clamp_after_prior, k, pi):
    # logit_clamp 0.5 clips most scores of a freshly initialised model
    cfg = model_cfg(layers=2, k=k, pi=pi, ablation=ablation,
                    gate_on_query=gate_on_query,
                    clamp_after_prior=clamp_after_prior, logit_clamp=0.5)
    assert run_decode_check(cfg, seq_len=20) < 1e-8


def test_cache_retention_window():
    cfg = model_cfg(layers=2, k=2, pi=8)
    params = init_model(cfg, seed=0)
    cache = KVCache.empty(cfg.layers)
    for t in range(21):
        decode_step(params, cfg, cache, t % cfg.vocab, t)
        # a fixed ring buffer of max(k, stride) + 1 rows on every layer
        assert [len(layer.rows) for layer in cache.layers] == [max(2, 8) + 1] * cfg.layers


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
        generate(params, cfg, [1], steps=3, greedy=False)
