import copy
import dataclasses
import json
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringskip.model import ModelConfig, bind_params, flatten, init_model, param_shapes
from ringskip.neighborhood import AttentionConfig, ConfigError
from ringskip.numerics import Rng
from ringskip.trainer import (
    CONFIG_DEFAULTS,
    IGNORE_INDEX,
    AdamState,
    TaskSpec,
    TrainConfig,
    adamw_step,
    clip_by_global_norm,
    count_correct,
    cross_entropy,
    global_norm,
    load_checkpoint,
    load_config,
    load_corpus,
    make_batch,
    save_checkpoint,
    train,
)


def model_cfg(**kw):
    att = AttentionConfig(d_model=16, n_heads=2, ring_k=1, skip_period=4,
                          causal=True)
    base = dict(layers=1, d_model=16, n_heads=2, d_ff=32, vocab=16,
                max_seq=16, attention=att)
    base.update(kw)
    return ModelConfig(**base)


def test_cross_entropy_uniform_is_log_vocab():
    logits = np.zeros((2, 3, 16))
    targets = np.ones((2, 3), dtype=np.int64)
    loss, grad = cross_entropy(logits, targets)
    assert abs(loss - np.log(16)) < 1e-12
    assert np.abs(grad.sum(axis=-1)).max() < 1e-12  # softmax minus one-hot


def test_cross_entropy_ignore_index():
    logits = Rng(0).normal((1, 4, 8))
    targets = np.array([[2, IGNORE_INDEX, 5, IGNORE_INDEX]])
    loss, grad = cross_entropy(logits, targets)
    assert (grad[0, 1] == 0.0).all() and (grad[0, 3] == 0.0).all()
    with pytest.raises(ValueError, match="ignored"):
        cross_entropy(logits, np.full((1, 4), IGNORE_INDEX))


def test_count_correct():
    logits = np.zeros((1, 3, 4))
    logits[0, :, 2] = 1.0
    targets = np.array([[2, 1, IGNORE_INDEX]])
    assert count_correct(logits, targets) == (1, 2)


def test_global_norm_clip():
    grads = np.array([3.0, 4.0])  # two arrays of one element each
    assert abs(global_norm(grads, [1]) - 5.0) < 1e-12
    norm = clip_by_global_norm(grads, 1.0, [1])
    assert abs(norm - 5.0) < 1e-12
    assert abs(global_norm(grads, [1]) - 1.0) < 1e-12
    small = np.array([0.3])
    clip_by_global_norm(small, 1.0)
    assert small[0] == 0.3  # untouched below the threshold


def test_global_norm_sums_each_array_on_its_own():
    # numpy sums a run pairwise, so one run over the whole vector would group
    # the squares differently; the norm must be the arrays' own, bit for bit
    cfg = model_cfg(layers=2)
    arrays = [Rng(i).normal(shape) for i, shape in enumerate(param_shapes(cfg).values())]
    flat = np.concatenate([a.ravel() for a in arrays])
    cuts = np.cumsum([a.size for a in arrays])[:-1]
    assert global_norm(flat, cuts) == float(np.sqrt(sum(float((a * a).sum()) for a in arrays)))


def test_adamw_first_step():
    tc = TrainConfig(lr=0.1, weight_decay=0.0)
    params = np.array([1.0])
    state = AdamState.for_params(params)
    adamw_step(params, np.array([0.5]), state, tc)
    # bias-corrected first step is lr * g / (|g| + eps)
    assert abs(params[0] - 0.9) < 1e-7

    tc = TrainConfig(lr=0.1, weight_decay=0.1)
    params = np.array([1.0])
    state = AdamState.for_params(params)
    adamw_step(params, np.array([0.5]), state, tc)
    assert abs(params[0] - 0.9 * (1.0 - 0.01)) < 1e-7


def test_adamw_rejects_non_finite():
    tc = TrainConfig()
    params = np.zeros(2)
    state = AdamState.for_params(params)
    from ringskip.trainer import TrainDivergedError
    with pytest.raises(TrainDivergedError, match="index 1"):
        adamw_step(params, np.array([1.0, np.nan]), state, tc)
    assert state.t == 0 and not params.any()


def test_copy_task_batch():
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=12, delay=4)
    inp, tgt = make_batch(task, Rng(0), 8)
    assert inp.shape == tgt.shape == (8, 12)
    assert (tgt[:, :4] == IGNORE_INDEX).all()
    assert (tgt[:, 4:] == inp[:, :8]).all()


def test_char_lm_batch_is_shifted_corpus():
    task = TaskSpec(kind="char_lm", vocab=16, seq_len=10)
    corpus = load_corpus(task)
    assert corpus.max() < 16
    inp, tgt = make_batch(task, Rng(2), 4, corpus)
    assert (inp[:, 1:] == tgt[:, :-1]).all()


def test_checkpoint_roundtrip(tmp_path):
    cfg = model_cfg()
    params = init_model(cfg, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, seed=5)
    cfg2, params2, seed = load_checkpoint(path)
    assert seed == 5 and cfg2 == cfg
    for name, arr in flatten(params).items():
        assert (flatten(params2)[name] == arr).all(), name


def views_of_one_vector(params) -> np.ndarray:
    """The vector every array of `params` views, one after another in
    `flatten` order; fails if there is no such vector. An empty array (the
    gate's trunk at d_model 1) holds no element, so its address is not
    checked."""
    arrays = list(flatten(params).values())
    base = arrays[0].base
    assert base is not None and base.ndim == 1
    assert base.size == sum(a.size for a in arrays)
    at, start = 0, base.__array_interface__["data"][0]
    for a in arrays:
        assert a.base is base and a.flags.c_contiguous
        assert a.size == 0 or a.__array_interface__["data"][0] - start == at * base.itemsize
        at += a.size
    return base


def test_bind_params_views_one_vector_in_flatten_order():
    cfg = model_cfg(layers=2)
    made = flatten(init_model(cfg, seed=1))
    vec = np.concatenate([a.ravel() for a in made.values()])
    bound = bind_params(cfg, vec)
    assert views_of_one_vector(bound) is vec
    assert [(k, a.shape) for k, a in flatten(bound).items()] == list(param_shapes(cfg).items())
    assert all(np.array_equal(flatten(bound)[k], a) for k, a in made.items())
    vec[0] = 7.0  # a write to the vector is a write to the tree
    assert bound.tok_emb[0, 0] == 7.0
    with pytest.raises(ValueError, match="parameters"):
        bind_params(cfg, vec[1:])


def test_load_checkpoint_binds_one_vector_and_draws_nothing(tmp_path, monkeypatch):
    import ringskip.model as model_mod
    import ringskip.trainer as trainer_mod
    cfg = model_cfg(layers=2)
    params = init_model(cfg, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, cfg, params, seed=5)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a model")

    monkeypatch.setattr(trainer_mod, "init_model", no_draw)
    monkeypatch.setattr(model_mod, "init_model", no_draw)
    _, loaded, _ = load_checkpoint(path)
    views_of_one_vector(loaded)
    for name, arr in flatten(params).items():
        assert np.array_equal(flatten(loaded)[name], arr), name


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(1, 3), heads=st.sampled_from([1, 2, 4]),
       head_dim=st.integers(1, 5), d_ff=st.integers(1, 9), vocab=st.integers(1, 9),
       max_seq=st.integers(1, 9))
def test_param_shapes_match_init_model(layers, heads, head_dim, d_ff, vocab, max_seq):
    d = heads * head_dim
    att = AttentionConfig(d_model=d, n_heads=heads, ring_k=1, skip_period=4)
    cfg = ModelConfig(layers=layers, d_model=d, n_heads=heads, d_ff=d_ff,
                      vocab=vocab, max_seq=max_seq, attention=att)
    params = init_model(cfg, seed=0)
    made = [(name, arr.shape) for name, arr in flatten(params).items()]
    assert list(param_shapes(cfg).items()) == made
    views_of_one_vector(params)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    blob = b'{"format": "other"}'
    path.write_bytes(len(blob).to_bytes(8, "little") + blob)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(path, model_cfg(), init_model(model_cfg(), seed=0), seed=0)
    return path


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_damaged_checkpoint_rejected_naming_file(saved_ckpt, data):
    blob = saved_ckpt.read_bytes()
    if data.draw(st.booleans(), label="append"):
        damaged = blob + data.draw(st.binary(min_size=1, max_size=64), label="junk")
    else:
        header_end = 8 + int.from_bytes(blob[:8], "little")
        cut = st.one_of(st.integers(0, header_end), st.integers(0, len(blob) - 1))
        damaged = blob[:data.draw(cut, label="cut_at")]
    path = saved_ckpt.with_name("damaged.ckpt")
    path.write_bytes(damaged)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_short_training_run_learns(tmp_path):
    cfg = model_cfg(layers=2)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    tc = TrainConfig(lr=3e-3, steps=40, batch_size=8, eval_interval=10,
                     seed=0, weight_decay=0.01)
    res = train(cfg, task, tc, out_dir=tmp_path)
    assert res.metrics[-1]["loss"] < res.metrics[0]["loss"]
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "model.ckpt").exists()


def test_vocab_mismatch_rejected():
    cfg = model_cfg()
    task = TaskSpec(kind="copy_at_pi", vocab=8, seq_len=16, delay=4)
    with pytest.raises(ValueError, match="vocab"):
        train(cfg, task, TrainConfig(steps=1))


def test_seq_len_over_max_seq_rejected():
    # used to fail in model_forward, after the model and optimizer were built
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=17, delay=4)
    with pytest.raises(ConfigError, match="task.seq_len: 17 exceeds model.max_seq 16"):
        train(model_cfg(), task, TrainConfig(steps=1))


@pytest.mark.parametrize("kind", ["copy_at_pi"])
@pytest.mark.parametrize("delay", [0, 16, 17])
def test_task_delay_must_fit_the_sequence(kind, delay):
    with pytest.raises(ConfigError, match="delay"):
        TaskSpec(kind=kind, vocab=16, seq_len=16, delay=delay)


def test_the_removed_needle_task_is_an_unknown_kind():
    with pytest.raises(ConfigError, match="kind: unknown task 'needle_retrieval'"):
        TaskSpec(kind="needle_retrieval", vocab=16, seq_len=16, delay=4)


# ---------------------------------------------------------------------------
# config loading: `load_config` and the checkpoint header, under mutation
# ---------------------------------------------------------------------------


def default_doc() -> dict:
    """The default config with every field spelled out, as a JSON object."""
    cfg, task, tc = load_config({}, "copy_at_pi", 0)
    doc = {"model": dataclasses.asdict(cfg), "task": dataclasses.asdict(task),
           "train": dataclasses.asdict(tc)}
    del doc["task"]["kind"], doc["train"]["seed"]
    return doc


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# values of another JSON type than the one given, keyed by the given value's
# type, none of them valid where the given one was: floats get no null, since
# `stop_accuracy` takes one
WRONG_TYPE = {
    int: lambda v: [float(v), True, str(v), None, [v]],
    float: lambda v: [str(v), True, [v]],
    bool: lambda v: [int(v), str(v).lower(), None],
    str: lambda v: [1, None, [v]],
    type(None): lambda v: [1, True, ["x"]],
}
# each value alone breaks the rule of the field it is written to
OUT_OF_RANGE = {
    ("model", "layers"): 0, ("model", "d_model"): -64, ("model", "d_ff"): 0,
    ("model", "vocab"): 0, ("model", "max_seq"): -1,
    ("model", "attention", "d_model"): 0, ("model", "attention", "n_heads"): 3,
    ("model", "attention", "ring_k"): -1, ("model", "attention", "skip_period"): 0,
    ("model", "attention", "bidirectional_skip"): True,
    ("model", "attention", "eps"): 0.5, ("model", "attention", "logit_clamp"): 0,
    ("model", "attention", "ablation"): "bogus",
    ("task", "delay"): 0, ("train", "lr"): -1, ("train", "clip_norm"): 0.0,
    ("train", "batch_size"): 0, ("train", "steps"): -3, ("train", "eval_interval"): 0,
}
MUTATIONS = ("drop", "add", "retype", "out_of_range", "non_object")


@st.composite
def mutated(draw, doc, droppable, objects, out_of_range=tuple(OUT_OF_RANGE)):
    """(mutation, dotted path it names, mutated deep copy of doc)."""
    doc = copy.deepcopy(doc)
    kind = draw(st.sampled_from(MUTATIONS), label="mutation")
    if kind == "drop":
        path = draw(st.sampled_from(droppable))
        del at(doc, path[:-1])[path[-1]]
    elif kind == "add":
        key = draw(st.sampled_from(["no_such_field", "ring_kk", "kind", "seed"]))
        path = draw(st.sampled_from(objects)) + (key,)
        at(doc, path[:-1])[key] = draw(st.sampled_from([0, "x", None, {}]))
    elif kind == "retype":
        path = draw(st.sampled_from([p for p in key_paths(doc)
                                     if not isinstance(at(doc, p), dict)]))
        old = at(doc, path)
        at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(WRONG_TYPE[type(old)](old)))
    elif kind == "out_of_range":
        path = draw(st.sampled_from([p for p in out_of_range if p[:-1] in objects]))
        at(doc, path[:-1])[path[-1]] = OUT_OF_RANGE[path]
    else:
        path = draw(st.sampled_from(objects))
        bad = draw(st.sampled_from([None, [], "model", 3]))
        if path:
            at(doc, path[:-1])[path[-1]] = bad
        else:
            doc = bad
    return kind, ".".join(path) or "config", doc


DOC = default_doc()
SECTIONS = [()] + [p for p in key_paths(DOC) if isinstance(at(DOC, p), dict)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_config_builds_configs_or_names_the_fault(data):
    kind = data.draw(st.sampled_from(["copy_at_pi", "char_lm"]))
    # char_lm reads no delay
    ranged = [p for p in OUT_OF_RANGE if kind != "char_lm" or p != ("task", "delay")]
    mutation, dotted, doc = data.draw(mutated(DOC, list(key_paths(DOC)), SECTIONS, ranged))
    try:
        configs = load_config(doc, kind, seed=3)
    except ConfigError as exc:
        assert mutation != "drop"
        assert str(exc).startswith(f"{dotted}:")
        return
    # every omitted field takes its default, and every other mutation is a fault
    assert mutation == "drop"
    assert configs == load_config(DOC, kind, seed=3)
    assert [type(c) for c in configs] == [ModelConfig, TaskSpec, TrainConfig]


def test_load_config_defaults_are_the_readme_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config JSON")[1].split("```json\n")[1].split("```")[0]
    assert json.loads(block) == CONFIG_DEFAULTS
    # the table's, not the class defaults 1000 and None
    tc = load_config({"train": {}}, "copy_at_pi", 0)[2]
    assert (tc.steps, tc.stop_accuracy) == (3000, 0.995)


CKPT_REQUIRED = ([("model", f.name) for f in dataclasses.fields(ModelConfig)]
                 + [("model", "attention", f.name) for f in dataclasses.fields(AttentionConfig)
                    if f.default is dataclasses.MISSING])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_checkpoint_model_is_a_config_error_naming_file(saved_ckpt, data):
    blob = saved_ckpt.read_bytes()
    hlen = int.from_bytes(blob[:8], "little")
    header = json.loads(blob[8:8 + hlen])
    doc = {"model": header["model"]}
    objects = [p for p in key_paths(doc) if isinstance(at(doc, p), dict)]
    _, dotted, doc = data.draw(mutated(doc, CKPT_REQUIRED, objects))
    head = json.dumps({**header, "model": doc["model"]}).encode("utf-8")
    path = saved_ckpt.with_name("mutated.ckpt")
    path.write_bytes(len(head).to_bytes(8, "little") + head + blob[8 + hlen:])
    with pytest.raises(ConfigError, match=re.escape(f"checkpoint {path}: {dotted}")):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# the two-half train step
# ---------------------------------------------------------------------------


def read_log(path) -> list:
    """The whitespace-separated fields of each line a `half_spy` wrote."""
    return [tuple(line.split()) for line in path.read_text().splitlines()] if path.exists() else []


def half_spy(monkeypatch, log):
    """Patch trainer.model_forward to append "<process id> <batch rows>" to the
    file `log` per call, from whichever process makes it, and return a reader
    of the (process id, rows) pairs written so far."""
    import ringskip.trainer as trainer_mod
    real = trainer_mod.model_forward

    def spy(tokens, *args, **kwargs):
        with open(log, "a") as f:  # one short append: whole lines from either process
            f.write(f"{os.getpid()} {len(tokens)}\n")
        return real(tokens, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "model_forward", spy)

    def calls():
        return [(int(pid), int(rows)) for pid, rows in read_log(log)]

    return calls


def test_cross_entropy_halves_with_the_batch_count_sum_to_the_batch():
    logits = Rng(3).normal((5, 7, 11))
    targets = Rng(4).integers(0, 11, (5, 7))
    targets[1, :4] = IGNORE_INDEX
    targets[3, 2] = IGNORE_INDEX
    count = int((targets != IGNORE_INDEX).sum())
    loss, grad = cross_entropy(logits, targets)
    head, g_head = cross_entropy(logits[:3], targets[:3], count=count)
    tail, g_tail = cross_entropy(logits[3:], targets[3:], count=count)
    assert abs(head + tail - loss) <= 1e-14 * abs(loss)
    assert np.abs(np.concatenate([g_head, g_tail]) - grad).max() <= 1e-14 * np.abs(grad).max()


def test_half_gradients_sum_to_the_full_batch_gradient():
    import ringskip.trainer as trainer_mod
    from ringskip.neighborhood import gather_schedule
    cfg, task, _ = load_config({}, "copy_at_pi", seed=0)  # the `train --task copy` model
    params = init_model(cfg, seed=0)
    schedule = gather_schedule(cfg.attention, task.seq_len)
    inp, tgt = make_batch(task, Rng(5), 16)
    count = int((tgt != IGNORE_INDEX).sum())
    vectors = np.empty((3, sum(a.size for a in flatten(params).values())))
    full, g0, g1 = (flatten(bind_params(cfg, v)) for v in vectors)
    loss = trainer_mod._half_step(params, cfg, schedule, inp, tgt, count, vectors[0])[0]
    l0, l1 = (trainer_mod._half_step(params, cfg, schedule, inp[rows], tgt[rows], count,
                                     vec)[0]
              for rows, vec in ((slice(0, 8), vectors[1]), (slice(8, 16), vectors[2])))
    assert abs(l0 + l1 - loss) <= 1e-13 * loss
    for name, g in full.items():
        assert np.abs(g0[name] + g1[name] - g).max() <= 1e-13 * np.abs(g).max(), name


def small_run(tmp_path, name):
    cfg = model_cfg(layers=2, attention=AttentionConfig(
        d_model=16, n_heads=2, ring_k=1, skip_period=4, causal=True))
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    tc = TrainConfig(lr=3e-3, steps=6, batch_size=5, eval_interval=2, seed=2)
    train(cfg, task, tc, out_dir=tmp_path / name)
    return [(tmp_path / name / f).read_bytes() for f in ("metrics.csv", "model.ckpt")]


def test_train_outputs_do_not_depend_on_the_sibling_process(tmp_path, monkeypatch, cpus):
    calls = half_spy(monkeypatch, tmp_path / "halves.log")
    cpus(2)
    forked = small_run(tmp_path, "sibling")
    here = os.getpid()
    assert len({pid for pid, _ in calls()}) == 2
    # rows [0, 3) here and [3, 5) in the sibling
    assert {(pid == here, rows) for pid, rows in calls()} == {(True, 3), (False, 2)}
    (tmp_path / "halves.log").unlink()
    cpus(1)
    inline = small_run(tmp_path, "inline")
    assert {pid for pid, _ in calls()} == {here}
    assert forked == inline


@pytest.mark.parametrize("batch_size, rows", [(1, {1}), (3, {2, 1})])
def test_odd_and_single_row_batches_train(tmp_path, monkeypatch, cpus, batch_size, rows):
    calls = half_spy(monkeypatch, tmp_path / "halves.log")
    cpus(2)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    res = train(model_cfg(), task, TrainConfig(steps=3, batch_size=batch_size,
                                               eval_interval=10, seed=1))
    assert np.isfinite([m["loss"] for m in res.metrics]).all()
    assert {n for _, n in calls()} == rows  # a half with no rows is not run
    # the first half's rows run here, the second's in the sibling
    assert {n for pid, n in calls() if pid == os.getpid()} == {max(rows)}
    assert len({pid for pid, _ in calls()}) == len(rows)


@pytest.mark.parametrize("n_batches", [1, 4])
def test_evaluate_equals_a_serial_loop_over_the_same_batches(monkeypatch, cpus, n_batches):
    """On the caller alone, and through the halves of a `train` call, whose
    sibling scores the second half of each batch's rows."""
    import ringskip.trainer as trainer_mod
    from ringskip.model import model_forward
    from ringskip.neighborhood import gather_schedule
    from ringskip.trainer import evaluate
    cpus(2)
    monkeypatch.setattr(trainer_mod, "EVAL_BATCHES", n_batches)
    cfg = model_cfg(layers=2)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    params = init_model(cfg, seed=4)
    rng, hits, counted = Rng(9), 0, 0
    for _ in range(n_batches):
        inp, tgt = make_batch(task, rng, 5)
        h, c = count_correct(model_forward(inp, params, cfg)[0], tgt)
        hits, counted = hits + h, counted + c
    assert evaluate(params, cfg, task, seed=9, batch_size=5) \
        == hits / counted
    schedule = gather_schedule(cfg.attention, task.seq_len)
    grad = np.empty(sum(a.size for a in flatten(params).values()))
    runner = trainer_mod._Halves(params, cfg, schedule, grad)
    with runner.sibling:
        assert evaluate(params, cfg, task, schedule, seed=9, batch_size=5,
                        runner=runner) == hits / counted
    assert runner.sibling.peak_rss_mb is not None  # the sibling scored a half


def test_evaluate_builds_one_plan_per_call(monkeypatch):
    import ringskip.model as model_mod
    import ringskip.trainer as trainer_mod
    from ringskip.neighborhood import gather_schedule
    from ringskip.trainer import evaluate
    cfg = model_cfg(layers=2)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    params = init_model(cfg, seed=4)
    given = evaluate(params, cfg, task, gather_schedule(cfg.attention, 16), seed=3)
    built = []

    def counting(*args):
        built.append(args)
        return gather_schedule(*args)

    monkeypatch.setattr(trainer_mod, "gather_schedule", counting)
    monkeypatch.setattr(model_mod, "gather_schedule", counting)
    assert evaluate(params, cfg, task, seed=3) == given
    assert len(built) == 1


def test_an_error_in_the_worker_half_reaches_the_caller(monkeypatch, cpus):
    import ringskip.trainer as trainer_mod
    from ringskip.numerics import NonFiniteError
    from ringskip.trainer import TrainDivergedError
    cpus(2)
    real = trainer_mod.model_forward
    caller = os.getpid()

    def poisoned(tokens, params, *args, **kwargs):
        if os.getpid() != caller:  # the sibling's gate sees NaN rows
            params = dataclasses.replace(params, tok_emb=np.full_like(params.tok_emb, np.nan))
        return real(tokens, params, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "model_forward", poisoned)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    tc = TrainConfig(steps=2, batch_size=4, eval_interval=10, seed=1)
    with pytest.raises(TrainDivergedError, match="step 0: gate input") as raised:
        train(model_cfg(), task, tc)
    assert isinstance(raised.value, NonFiniteError)
    monkeypatch.setattr(trainer_mod, "model_forward", real)
    assert np.isfinite(train(model_cfg(), task, tc).metrics[-1]["loss"])


def test_attention_inside_a_train_half_runs_inline(tmp_path, monkeypatch, cpus):
    """Half-batches above the attention cut: the attention calls inside either
    half run inline, in the caller and in the sibling, so a `train` call
    submits nothing to the worker thread and starts no worker thread, and the
    outputs are the one-CPU run's bytes. `train` runs on a thread other than
    the main one, so the sibling is forked there."""
    import ringskip.attention as attention_mod
    from ringskip import split
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=1024, delay=4)
    cfg = model_cfg(max_seq=1024)
    tc = TrainConfig(lr=3e-3, steps=2, batch_size=8, eval_interval=1, seed=3)
    assert 4 * cfg.n_heads * task.seq_len >= attention_mod.SPLIT_MIN_ROWS
    log = tmp_path / "calls.log"
    real_submit, real_dots = split._WORKER.submit, attention_mod._slot_dots

    def record(*fields):
        with open(log, "a") as f:
            f.write(" ".join(map(str, (os.getpid(),) + fields)) + "\n")

    def counting_submit(*args):
        record("submit")
        return real_submit(*args)

    def watching_dots(*args):
        workers = sum(t.name.startswith("ringskip-half") for t in threading.enumerate())
        record("dots", workers, int(split.can_split()), threading.active_count())
        return real_dots(*args)

    monkeypatch.setattr(split._WORKER, "submit", counting_submit)
    monkeypatch.setattr(attention_mod, "_slot_dots", watching_dots)

    def run(name):
        done = threading.Thread(target=train, args=(cfg, task, tc, tmp_path / name), daemon=True)
        done.start()
        done.join(timeout=300)
        assert not done.is_alive(), "train did not finish"
        return [(tmp_path / name / f).read_bytes() for f in ("metrics.csv", "model.ckpt")]

    before = sum(t.name.startswith("ringskip-half") for t in threading.enumerate())
    cpus(2)
    forked = run("sibling")
    calls = read_log(log)
    assert calls and all(kind == "dots" for _, kind, *_ in calls)  # nothing submitted
    assert len({pid for pid, *_ in calls}) == 2  # both halves made attention calls
    assert {(int(workers) <= before, split_here) for _, _, workers, split_here, _ in calls} \
        == {(True, "0")}
    # the sibling runs on the one thread it was forked from
    assert {alive for pid, *_, alive in calls if int(pid) != os.getpid()} == {"1"}
    log.unlink()
    cpus(1)
    assert run("inline") == forked
    assert {kind for _, kind, *_ in read_log(log)} == {"dots"}


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_train_shares_only_the_parameters_and_the_sibling_gradient(monkeypatch, cpus,
                                                                   n_cpus):
    """Shared memory holds the flat parameter vector and the flat gradient the
    sibling writes; each command carries its half's rows."""
    import ringskip.trainer as trainer_mod
    cpus(n_cpus)
    made, real = [], trainer_mod._shared

    def counting(shape, dtype):
        made.append((shape, np.dtype(dtype)))
        return real(shape, dtype)

    monkeypatch.setattr(trainer_mod, "_shared", counting)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    res = train(model_cfg(), task, TrainConfig(steps=2, batch_size=4, eval_interval=1, seed=1))
    size = sum(a.size for a in flatten(res.params).values())
    assert made == [((size,), np.dtype(np.float64))] * 2


@pytest.mark.parametrize("n_cpus", [2, 1])
def test_train_frees_its_halves_without_the_garbage_collector(monkeypatch, cpus, n_cpus):
    """The halves of a `train` call, with each half's last gradient tree, are
    freed when it returns: a reference cycle through their sibling would hold
    them until the garbage collector runs, and a process that trains again
    and again would grow by them."""
    import gc
    import weakref
    import ringskip.trainer as trainer_mod
    cpus(n_cpus)
    made = []

    class Watched(trainer_mod._Halves):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(trainer_mod, "_Halves", Watched)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    gc.disable()
    try:
        train(model_cfg(), task, TrainConfig(steps=2, batch_size=4, eval_interval=1, seed=1))
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("case", ["return", "early stop", "error in the caller's half",
                                  "one CPU"])
def test_train_reaps_its_one_sibling(monkeypatch, cpus, case):
    """A `train` call on two CPUs forks one sibling, on one CPU none, and no
    child of this process is left when it returns or raises."""
    import ringskip.trainer as trainer_mod
    from ringskip.numerics import NonFiniteError
    cpus(1 if case == "one CPU" else 2)
    forks, real_fork, real_forward = [], os.fork, trainer_mod.model_forward

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    def poisoned(tokens, params, *args, **kwargs):
        if os.getpid() == caller:  # the caller's gate sees NaN rows
            params = dataclasses.replace(params, tok_emb=np.full_like(params.tok_emb, np.nan))
        return real_forward(tokens, params, *args, **kwargs)

    caller = os.getpid()
    monkeypatch.setattr(os, "fork", counting_fork)
    task = TaskSpec(kind="copy_at_pi", vocab=16, seq_len=16, delay=4)
    tc = TrainConfig(steps=4, batch_size=4, eval_interval=1, seed=1,
                     stop_accuracy=0.0 if case == "early stop" else None)
    if case.startswith("error"):
        monkeypatch.setattr(trainer_mod, "model_forward", poisoned)
        with pytest.raises(NonFiniteError, match="gate input"):
            train(model_cfg(), task, tc)
    else:
        res = train(model_cfg(), task, tc)
        assert len(res.metrics) == (1 if case == "early stop" else 4)
        assert (res.sibling_peak_rss_mb is None) == (case == "one CPU")
    assert forks == ([] if case == "one CPU" else [caller])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
