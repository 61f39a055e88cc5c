import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringskip import cli
from ringskip.checks import run_stacked_grad_check
from ringskip.cli import main
from ringskip.model import ModelConfig, flatten, init_model
from ringskip.neighborhood import AttentionConfig, offset_plan
from ringskip.perf import CostParams, cost_model_eval
from ringskip.trainer import load_checkpoint, save_checkpoint


def test_validate_config_ok(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps({"d_model": 16, "n_heads": 2, "ring_k": 1,
                             "skip_period": 4}))
    out = tmp_path / "out"
    assert main(["validate-config", str(p), "--n", "6", "--out", str(out)]) == 0
    lines = (out / "union.csv").read_text().splitlines()
    assert lines[0] == "token,offset,kind,valid"
    att = AttentionConfig(d_model=16, n_heads=2, ring_k=1, skip_period=4)
    assert len(lines) == 1 + 6 * len(offset_plan(att))
    assert (out / "manifest.json").exists()


def test_validate_config_bad_field(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d_model": 12, "n_heads": 5, "ring_k": 1,
                             "skip_period": 2}))
    assert main(["validate-config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "n_heads" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["validate-config", str(tmp_path / "nope.json")]) == 2


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_oracle_check_small_grid(tmp_path):
    out = tmp_path / "oc"
    assert main(["oracle-check", "--grid", "small", "--out", str(out)]) == 0
    body = (out / "oracle_check.csv").read_text()
    assert body.startswith("n,k,pi,heads,causal,ablation,max_delta,ok")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True


def test_oracle_check_cost_goes_to_manifest(tmp_path):
    out = tmp_path / "oc"
    assert main(["oracle-check", "--grid", "full", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["footprints_built"] == 144
    # the 1,440 configs as replica-stacked calls: one dense call per stack
    # and one sparse call per footprint run of a stack, not 1,440 of each
    assert (manifest["sparse_calls"], manifest["dense_calls"]) == (862, 100)
    assert manifest["sweep_seconds"] > 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"checked", "max_delta", "pass"}
    assert summary["checked"] == 1440  # 3 ablations x 480 (n, k, pi, heads, causal)
    assert (out / "oracle_check.csv").read_text().startswith(
        "n,k,pi,heads,causal,ablation,max_delta,ok\n")


def test_rf_bound_single_point(tmp_path, capsys):
    out = tmp_path / "rf"
    assert main(["rf-bound", "--k", "1", "--pi", "4", "--layers", "4",
                 "--out", str(out)]) == 0
    assert "restricted=12, bound=12, full=16" in capsys.readouterr().out


def test_rf_bound_zero_layers_exits_2(tmp_path, capsys):
    assert main(["rf-bound", "--k", "1", "--layers", "0",
                 "--out", str(tmp_path / "rf")]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: layers")
    assert not (tmp_path / "rf").exists()


def test_python_m_ringskip_from_checkout(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "ringskip", "rf-bound", "--k", "1", "--pi", "4",
         "--layers", "4", "--out", str(tmp_path / "rf")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "restricted=12, bound=12, full=16" in proc.stdout


HEAP_SCRIPT = """
import sys
from ringskip.attention import SPLIT_MIN_ROWS, pi_attention_forward
from ringskip.checks import random_attention_params
from ringskip.cli import main
from ringskip.neighborhood import AttentionConfig, gather_schedule
from ringskip.numerics import Rng
out = sys.argv[1]
assert main(["train", "--task", "copy", "--out", out + "/train"]) == 0
c = AttentionConfig(d_model=8, n_heads=2, ring_k=1, skip_period=4)
n = SPLIT_MIN_ROWS // c.n_heads
proj, gate = random_attention_params(Rng(0), c.d_model, c.n_heads)
pi_attention_forward(Rng(1).normal((1, n, c.d_model)), proj, gate, gather_schedule(c, n), c)
assert main(["rf-bound", "--out", out + "/rf"]) == 0
"""


def test_manifest_records_heap_retention_and_page_faults(tmp_path):
    # a fresh process: `train --task copy` makes no call at the cut, so the heap
    # is not kept; one attention call at the cut keeps it, where glibc can
    import platform
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", HEAP_SCRIPT, str(tmp_path)], cwd=root,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    train, rf = (json.loads((tmp_path / name / "manifest.json").read_text())
                 for name in ("train", "rf"))
    assert train["heap_kept"] is False
    assert rf["heap_kept"] is (platform.libc_ver()[0] == "glibc")
    for got in (train, rf):
        assert isinstance(got["minor_faults"], int) and got["minor_faults"] >= 0
    assert train["minor_faults"] > 0
    # the sibling's pages are not this process's: its own peak is recorded beside
    forked = train["threads"] == 2 and hasattr(os, "fork")
    assert (train["sibling_peak_rss_mb"] is None) != forked
    assert not forked or train["sibling_peak_rss_mb"] > 0
    assert "sibling_peak_rss_mb" not in rf
    bodies = "".join(csv.read_text() for csv in tmp_path.glob("*/*.csv"))
    assert bodies and "heap_kept" not in bodies and "minor_faults" not in bodies


def test_cost_model_eval_value(tmp_path):
    out = tmp_path / "cm"
    assert main(["cost-model", "--n", "1024", "--k", "4", "--d-h", "64",
                 "--out", str(out)]) == 0
    body = (out / "eval.csv").read_text()
    assert "0.00039321600000000000002" in body or "0.000393216" in body


def test_simulate_ring(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate-ring", "--shards", "4", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["conserved"] is True
    assert summary["formula_elements"] == 2 * 2 * 4 * 8 * 8


def test_simulate_ring_zero_shards_exits_2(tmp_path, capsys):
    assert main(["simulate-ring", "--shards", "0", "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: shards")


def test_global_flags_accepted_after_subcommand(tmp_path):
    out = tmp_path / "g"
    assert main(["cost-model", "--out", str(out), "--seed", "7"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 7


def test_train_then_decode(tmp_path):
    cfg = {
        "model": {"layers": 1, "d_model": 16, "n_heads": 2, "d_ff": 32,
                  "vocab": 16, "max_seq": 16,
                  "attention": {"d_model": 16, "n_heads": 2, "ring_k": 1,
                                "skip_period": 4}},
        "task": {"vocab": 16, "seq_len": 16, "delay": 4},
        "train": {"steps": 3, "batch_size": 4, "eval_interval": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    assert main(["train", "--task", "copy", "--config", str(cfg_path),
                 "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    dec = tmp_path / "dec"
    assert main(["decode", "--ckpt", str(run / "model.ckpt"),
                 "--prompt", "1,2,3", "--steps", "5", "--out", str(dec)]) == 0
    lines = (dec / "tokens.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3 + 5


def test_train_throughput_goes_to_manifest_not_csv(tmp_path):
    att = {"d_model": 8, "n_heads": 2, "ring_k": 1, "skip_period": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"layers": 1, "d_model": 8, "n_heads": 2, "d_ff": 16, "vocab": 16,
                  "max_seq": 16, "attention": att},
        "task": {"vocab": 16, "seq_len": 16, "delay": 4},
        "train": {"steps": 2, "batch_size": 2, "eval_interval": 1},
    }))
    run = tmp_path / "run"
    assert main(["train", "--task", "copy", "--config", str(cfg_path),
                 "--out", str(run)]) == 0
    assert (run / "metrics.csv").read_text().split("\n")[0] == "step,loss,accuracy"
    assert json.loads((run / "manifest.json").read_text())["tokens_per_sec"] > 0


@pytest.fixture
def small_ckpt(tmp_path):
    att = AttentionConfig(d_model=16, n_heads=2, ring_k=1, skip_period=4)
    cfg = ModelConfig(layers=1, d_model=16, n_heads=2, d_ff=32, vocab=16,
                      max_seq=16, attention=att)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, init_model(cfg, seed=0), seed=0)
    return path


@pytest.mark.parametrize("prompt,steps,message", [
    ("-1", 4, "outside the vocabulary"),
    ("1,2,99", 4, "outside the vocabulary"),
    ("1,2,3", 14, "exceeds max_seq"),
    ("1,2,3", -3, "steps: must be >= 0"),
    ("1,2,x", 4, "prompt: expected comma-separated token ids, got '1,2,x'"),
    ("", 4, "prompt: expected comma-separated token ids, got ''"),
    # int() takes each of these: digit-group underscores, spaces, a plus sign
    ("1_0,2", 4, "prompt: expected comma-separated token ids, got '1_0,2'"),
    (" 3,4", 4, "prompt: expected comma-separated token ids, got ' 3,4'"),
    ("+5", 4, "prompt: expected comma-separated token ids, got '+5'"),
])
def test_decode_bad_input_exits_2(small_ckpt, tmp_path, capsys, prompt, steps,
                                  message):
    code = main(["decode", "--ckpt", str(small_ckpt), "--prompt", prompt,
                 "--steps", str(steps), "--out", str(tmp_path / "dec")])
    err = capsys.readouterr().err.strip().split("\n")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not (tmp_path / "dec" / "tokens.csv").exists()


@pytest.mark.parametrize("temp", ["0", "-1", "inf", "nan"])
def test_decode_bad_temperature_exits_2(small_ckpt, tmp_path, capsys, temp):
    code = main(["decode", "--ckpt", str(small_ckpt), "--prompt", "1,2,3",
                 "--steps", "4", "--temp", temp, "--out", str(tmp_path / "dec")])
    err = capsys.readouterr().err.strip().split("\n")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "temperature" in err[0]
    assert not (tmp_path / "dec" / "tokens.csv").exists()


def test_decode_samples_at_the_given_temperature(small_ckpt, tmp_path, capsys):
    seqs = []
    for temp in ("0.01", "1", "100"):
        assert main(["decode", "--ckpt", str(small_ckpt), "--prompt", "1,2,3",
                     "--steps", "12", "--temp", temp, "--out", str(tmp_path / temp)]) == 0
        seqs.append(capsys.readouterr().out)
    assert len(set(seqs)) == 3


@pytest.mark.parametrize("damage", [lambda b: b[:-12], lambda b: b + bytes(8)],
                         ids=["truncated", "trailing_bytes"])
def test_decode_damaged_checkpoint_exits_2(small_ckpt, tmp_path, capsys, damage):
    small_ckpt.write_bytes(damage(small_ckpt.read_bytes()))
    code = main(["decode", "--ckpt", str(small_ckpt), "--prompt", "1,2,3",
                 "--out", str(tmp_path / "dec")])
    err = capsys.readouterr().err.strip().split("\n")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and str(small_ckpt) in err[0]
    assert not (tmp_path / "dec" / "tokens.csv").exists()


def _rewrite_header(blob: bytes, edit) -> bytes:
    """Checkpoint bytes with the JSON header replaced by edit(header dict),
    which returns a dict or raw header bytes; the array data is kept."""
    hlen = int.from_bytes(blob[:8], "little")
    header = edit(json.loads(blob[8:8 + hlen]))
    if isinstance(header, dict):
        header = json.dumps(header).encode("utf-8")
    return len(header).to_bytes(8, "little") + header + blob[8 + hlen:]


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _rename_first_array(h):
    h["arrays"][0]["name"] = "no_such_array"
    return h


def _unknown_attention_field(h):
    h["model"]["attention"]["no_such_field"] = 1
    return h


def _model_field(name, value):
    def edit(h):
        h["model"][name] = value
        return h
    return edit


# huge_vocab and huge_layers keep the array list and the data as saved, so the
# file length matches: only the config's own shapes can reject them, before
# any model array of that size is allocated
@pytest.mark.parametrize("edit", [
    _without("seed"), _without("model"), _without("arrays"), _rename_first_array,
    _unknown_attention_field, lambda h: b"{not json", lambda h: b'{"format": "\xff\xfe"}',
    _model_field("vocab", 2 ** 40), _model_field("layers", 10 ** 9),
    _model_field("d_ff", 32.0), _model_field("layers", True),
], ids=["missing_seed", "missing_model", "missing_arrays", "unknown_array",
        "unknown_attention_field", "garbage_json", "not_utf8", "huge_vocab",
        "huge_layers", "float_d_ff", "bool_layers"])
def test_decode_bad_checkpoint_header_exits_2(small_ckpt, tmp_path, capsys, edit):
    small_ckpt.write_bytes(_rewrite_header(small_ckpt.read_bytes(), edit))
    code = main(["decode", "--ckpt", str(small_ckpt), "--prompt", "1,2,3",
                 "--out", str(tmp_path / "dec")])
    err = capsys.readouterr().err.strip().split("\n")
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and str(small_ckpt) in err[0]
    assert not (tmp_path / "dec" / "tokens.csv").exists()


def _with_removed_fields(**fields):
    """A header edit that writes the attention options this version no longer
    has, as a checkpoint written before their removal carries them."""
    def edit(h):
        h["model"]["attention"].update(fields)
        return h
    return edit


REMOVED_AT_OLD_DEFAULTS = dict(dropout_p=0.0, static_alpha_value=0.5,
                               gate_on_query=False, clamp_after_prior=False,
                               include_self=True)


def test_decode_reads_a_header_with_the_removed_fields_at_their_defaults(small_ckpt, tmp_path):
    argv = ["decode", "--prompt", "1,2,3", "--steps", "8"]
    assert main(argv + ["--ckpt", str(small_ckpt), "--out", str(tmp_path / "new")]) == 0
    old = tmp_path / "old.ckpt"
    old.write_bytes(_rewrite_header(small_ckpt.read_bytes(),
                                    _with_removed_fields(**REMOVED_AT_OLD_DEFAULTS)))
    assert main(argv + ["--ckpt", str(old), "--out", str(tmp_path / "old")]) == 0
    tokens = [(tmp_path / d / "tokens.csv").read_bytes() for d in ("new", "old")]
    assert tokens[0] == tokens[1]


def test_a_checkpoint_of_the_removed_fixed_alpha_ablation_loads_as_no_gate(small_ckpt, tmp_path):
    # alpha fixed at 0.5 puts one constant log-prior on every slot, which cancels
    old = tmp_path / "old.ckpt"
    old.write_bytes(_rewrite_header(small_ckpt.read_bytes(),
                                    _with_removed_fields(ablation="static_alpha")))
    cfg, params, seed = load_checkpoint(old)
    ref_cfg, ref, ref_seed = load_checkpoint(small_ckpt)
    assert cfg.attention.ablation == "no_gate" and seed == ref_seed
    assert dataclasses.replace(cfg.attention, ablation="full") == ref_cfg.attention
    flat, ref_flat = flatten(params), flatten(ref)
    assert flat.keys() == ref_flat.keys()
    assert all(np.array_equal(flat[name], ref_flat[name]) for name in flat)
    assert main(["decode", "--ckpt", str(old), "--prompt", "1,2,3", "--steps", "8",
                 "--out", str(tmp_path / "dec")]) == 0
    assert len((tmp_path / "dec" / "tokens.csv").read_text().splitlines()) == 1 + 3 + 8


def test_a_checkpoint_of_the_removed_ring_free_ablation_loads_as_ring_k_0(small_ckpt, tmp_path):
    # that ablation kept only the token's own ring slot at any ring_k: the plan of ring_k 0
    blob = small_ckpt.read_bytes()
    old, ref = tmp_path / "old.ckpt", tmp_path / "ref.ckpt"
    old.write_bytes(_rewrite_header(blob, _with_removed_fields(ablation="no_ring", ring_k=3)))
    ref.write_bytes(_rewrite_header(blob, _with_removed_fields(ablation="full", ring_k=0)))
    assert load_checkpoint(old)[0] == load_checkpoint(ref)[0]
    argv = ["decode", "--prompt", "1,2,3", "--steps", "8"]
    for path in (old, ref):
        assert main(argv + ["--ckpt", str(path), "--out", str(tmp_path / path.stem)]) == 0
    tokens = [(tmp_path / d / "tokens.csv").read_bytes() for d in ("old", "ref")]
    assert tokens[0] == tokens[1]


@pytest.mark.parametrize("field,value", [("gate_on_query", True), ("gate_on_query", 0),
                                         ("clamp_after_prior", True), ("dropout_p", 0.1),
                                         ("static_alpha_value", 0.3), ("include_self", False)])
def test_decode_rejects_a_removed_field_off_its_default(small_ckpt, tmp_path, capsys,
                                                        field, value):
    fields = {**REMOVED_AT_OLD_DEFAULTS, field: value}
    small_ckpt.write_bytes(_rewrite_header(small_ckpt.read_bytes(),
                                           _with_removed_fields(**fields)))
    code = main(["decode", "--ckpt", str(small_ckpt), "--prompt", "1,2,3",
                 "--out", str(tmp_path / "dec")])
    assert code == 2
    assert one_error_line(capsys) == (f"error: checkpoint {small_ckpt}: "
                                      f"model.attention.{field}: unknown field")
    assert not (tmp_path / "dec").exists()


def test_decode_fills_max_seq_exactly(small_ckpt, tmp_path):
    dec = tmp_path / "dec"
    assert main(["decode", "--ckpt", str(small_ckpt), "--prompt", "1,2,3",
                 "--steps", "13", "--out", str(dec)]) == 0
    assert len((dec / "tokens.csv").read_text().strip().split("\n")) == 1 + 16


def test_grad_check_writes_passing_summary(grad_check_run):
    assert grad_check_run.exit_code == 0
    summary = grad_check_run.summary
    assert summary["pass"] is True
    assert [r["seed"] for r in summary["per_seed"]] == list(range(9))
    assert max(r["max_rel_error"] for r in summary["per_seed"]) == summary["max_rel_error"]
    rows = grad_check_run.csv_rows
    assert rows[0] == "seed,tensor,max_rel_error" and len(rows) == 1 + 9 * 39
    # each seed's worst error in the summary is the largest of its CSV rows
    for r in summary["per_seed"]:
        csv_worst = max(float(x.split(",")[2]) for x in rows[1:]
                        if x.startswith(f"{r['seed']},"))
        assert csv_worst == float(f"{r['max_rel_error']:.6e}")


def one_error_line(capsys) -> str:
    """The single stderr line of a command that exited 2."""
    err = capsys.readouterr().err
    lines = err.strip().split("\n")
    assert "Traceback" not in err
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def write_json(path: Path, doc) -> str:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("task,doc,message", [
    ("copy", {"task": {"seq_len": 64}}, "task.seq_len: 64 exceeds model.max_seq 32"),
    ("copy", {"model": {"attention": {"ring_kk": 2}}}, "model.attention.ring_kk: unknown field"),
    ("copy", {"train": {"bogus": 1}}, "train.bogus: unknown field"),
    ("copy", {"trian": {"steps": 1}}, "trian: unknown section"),
    ("copy", {"model": {"layers": "2"}}, "model.layers: expected int, got '2'"),
    ("copy", {"model": {"layers": True}}, "model.layers: expected int, got True"),
    ("copy", {"model": {"d_model": 64.0}}, "model.d_model: expected int, got 64.0"),
    ("copy", {"model": {"attention": {"causal": "no"}}},
     "model.attention.causal: expected bool, got 'no'"),
    ("copy", {"model": 2}, "model: expected a JSON object"),
    ("copy", [1, 2], "config: expected a JSON object"),
    ("copy", {"task": {"vocab": 8}}, "task.vocab: 8 differs from model.vocab 16"),
    ("copy", {"train": {"lr": -1}}, "train.lr: must be >= 0"),
    ("copy", {"task": {"delay": 32}}, "task.delay: must lie in [1, seq_len - 1]"),
    ("copy", {"task": {"kind": "char_lm"}}, "task.kind: set by --task or --seed"),
    ("copy", {"train": {"seed": 4}}, "train.seed: set by --task or --seed"),
    ("copy", '{"model": {"layers": 2,', "not JSON"),
    ("copy", {"model": {"attention": {"ablation": "static_alpha"}}},
     "model.attention.ablation: unknown value 'static_alpha'"),
    # the learning rate is constant and AdamW's betas and eps are fixed: a
    # config may not set them, not even to the values they always had
    ("copy", {"train": {"warmup_steps": 0}}, "train.warmup_steps: unknown field"),
    ("copy", {"train": {"cosine_decay": False}}, "train.cosine_decay: unknown field"),
    ("copy", {"train": {"beta1": 0.9}}, "train.beta1: unknown field"),
    ("copy", {"train": {"beta2": 0.999}}, "train.beta2: unknown field"),
    ("copy", {"train": {"adam_eps": 1e-8}}, "train.adam_eps: unknown field"),
], ids=["seq_len_over_max_seq", "unknown_attention_key", "unknown_train_key",
        "unknown_section", "string_int", "bool_int", "float_int", "string_bool",
        "section_not_object", "config_not_object", "vocab_mismatch", "negative_lr",
        "copy_delay", "kind_in_file", "seed_in_file", "not_json",
        "removed_ablation", "removed_warmup_steps", "removed_cosine_decay", "removed_beta1",
        "removed_beta2", "removed_adam_eps"])
def test_train_bad_config_exits_2(tmp_path, capsys, task, doc, message):
    cfg = write_json(tmp_path / "cfg.json", doc)
    code = main(["train", "--task", task, "--config", cfg, "--out", str(tmp_path / "run")])
    line = one_error_line(capsys)
    assert code == 2 and message in line
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("doc,layers", [({"train": {"steps": 1}}, 2),
                                        ({"model": {"layers": 1}, "train": {"steps": 1}}, 1)])
def test_train_config_omitted_sections_take_the_defaults(tmp_path, doc, layers):
    # both files used to die with a KeyError ('model', then 'attention')
    run = tmp_path / "run"
    assert main(["train", "--task", "copy", "--config", write_json(tmp_path / "c.json", doc),
                 "--out", str(run)]) == 0
    cfg, _, seed = load_checkpoint(run / "model.ckpt")
    assert (cfg.layers, cfg.d_model, cfg.attention.skip_period, seed) == (layers, 64, 8, 0)


@pytest.mark.parametrize("doc,message", [
    ([{"d_model": 16}], "attention: expected a JSON object, got list"),
    ({"d_model": 16, "n_heads": 2, "ring_k": 1, "skip_period": 4, "causal": "no"},
     "attention.causal: expected bool"),
    ({"d_model": 16.0, "n_heads": 2, "ring_k": 1, "skip_period": 4},
     "attention.d_model: expected int"),
    ({"layers": 1, "d_model": 16, "n_heads": 2, "d_ff": 32, "vocab": 16, "max_seq": 16,
      "attention": {"d_model": 16, "n_heads": 2, "ring_k": 1, "skip_period": 4}},
     "attention.attention: unknown field"),
    ({"model": {"attention": {"ring_k": -1}}}, "model.attention.ring_k: must be >= 0"),
    ({"task": {"seq_len": 40, "delay": 40}}, "task.delay"),
], ids=["json_list", "string_bool", "float_int", "bare_model", "sections", "task_section"])
def test_validate_config_bad_file_exits_2(tmp_path, capsys, doc, message):
    code = main(["validate-config", write_json(tmp_path / "c.json", doc),
                 "--out", str(tmp_path / "o")])
    assert code == 2 and message in one_error_line(capsys)


def test_validate_config_loads_sections_like_train(tmp_path):
    out = tmp_path / "o"
    doc = {"model": {"attention": {"ring_k": 3}}, "train": {"steps": 5}}
    assert main(["validate-config", write_json(tmp_path / "c.json", doc),
                 "--out", str(out), "--n", "8"]) == 0
    # ring_k 3 from the file, skip_period 8 and causal from the defaults
    rows = (out / "union.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 8 * 5
    assert {int(r.split(",")[1]) for r in rows} == {-3, -2, -1, 0, -8}


@pytest.mark.parametrize("option,message", [
    ({"include_self": True}, "attention.include_self: unknown field"),
    ({"ablation": "no_ring"}, "attention.ablation: unknown value 'no_ring'"),
], ids=["include_self", "no_ring"])
@pytest.mark.parametrize("command", ["validate_config", "train"])
def test_a_config_naming_a_removed_ring_option_exits_2(tmp_path, capsys, command, option,
                                                       message):
    # every ring holds the token's own slot, and the plan without a ring is ring_k 0;
    # a checkpoint header may still name either option, a config may not
    if command == "validate_config":
        argv = ["validate-config"]
        doc = {"d_model": 16, "n_heads": 2, "ring_k": 1, "skip_period": 4, **option}
    else:
        argv, doc = ["train", "--task", "copy", "--config"], {"model": {"attention": option}}
    code = main(argv + [write_json(tmp_path / "c.json", doc), "--out", str(tmp_path / "o")])
    assert code == 2 and one_error_line(capsys).endswith(message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,message", [
    (["train", "--task", "needle"], "invalid choice: 'needle'"),
    (["decode", "--ckpt", "m.ckpt", "--prompt", "1", "--greedy"],
     "unrecognized arguments: --greedy"),
], ids=["train_task_needle", "decode_greedy"])
def test_a_removed_command_line_option_exits_2(tmp_path, capsys, argv, message):
    # decoding is greedy unless --temp is given
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err.strip().splitlines()[-1]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--task", "copy"], ["grad-check"], ["oracle-check", "--grid", "small"],
    ["rf-bound"], ["decode", "--ckpt", "model.ckpt", "--prompt", "1"],
], ids=["train", "grad_check", "oracle_check", "rf_bound", "decode"])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    assert "seed: must be >= 0, got -1" in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra,code", [(1, 2), (2, 0)])
def test_charlm_corpus_needs_seq_len_plus_two_bytes(tmp_path, capsys, extra, code):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abcdefghijklmnopqrstuvwxyz"[:16 + extra])
    doc = {"model": {"layers": 1, "d_model": 8, "n_heads": 2, "d_ff": 16, "max_seq": 16,
                     "attention": {"d_model": 8, "n_heads": 2, "ring_k": 1, "skip_period": 4}},
           "task": {"seq_len": 16, "corpus_path": str(corpus)},
           "train": {"steps": 1, "batch_size": 2, "eval_interval": 1}}
    run = tmp_path / "run"
    assert main(["train", "--task", "charlm", "--config",
                 write_json(tmp_path / "c.json", doc), "--out", str(run)]) == code
    if code == 2:
        assert "task.corpus_path" in one_error_line(capsys)
        assert not run.exists()
    else:
        assert (run / "model.ckpt").exists()


@pytest.mark.parametrize("argv,message", [
    (["cost-model", "--gamma", "0"], "gamma_tc: must be strictly positive"),
    # before, an infinite rate predicted 0 s and exited 0
    (["cost-model", "--gamma", "inf"], "gamma_tc: must be strictly positive and finite"),
    (["cost-model", "--n", "0"], "n: must be >= 1, got 0"),
    (["cost-model", "--k", "-1"], "k: must be >= 0, got -1"),
    (["kl-check", "--seeds", "0"], "seeds: must be >= 1, got 0"),
    (["simulate-ring", "--shards", "2", "--d-h", "0"], "d_h: must be >= 1, got 0"),
    (["simulate-ring", "--shards", "2", "--heads", "0"], "heads: must be >= 1, got 0"),
    (["simulate-ring", "--shards", "4", "--batch", "0"], "batch: must be >= 1, got 0"),
    (["simulate-ring", "--shards", "4", "--batch", "-1"], "batch: must be >= 1, got -1"),
    # flags a command would ignore: before, each ran and exited 0, and the
    # manifest of the first named a config that was never read
    (["--config", "/nonexistent.json", "rf-bound", "--k", "1"],
     "config: only train reads --config, not rf-bound"),
    (["oracle-check", "--grid", "small", "--config", "c.json"],
     "config: only train reads --config, not oracle-check"),
    (["rf-bound", "--layers", "0"], "layers: applies only with --k"),
    (["rf-bound", "--pi", "4"], "pi: applies only with --k"),
    # an evaluation's flags beside --fit: before, the fit ran from the file
    # and exited 0; the file is never opened, so it need not exist
    (["cost-model", "--fit", "fit.csv", "--n", "5"], "n: applies only to an evaluation"),
    (["cost-model", "--fit", "fit.csv", "--k", "9"], "k: applies only to an evaluation"),
    (["cost-model", "--fit", "fit.csv", "--d-h", "8"], "d_h: applies only to an evaluation"),
    (["cost-model", "--fit", "fit.csv", "--gamma", "3"],
     "gamma: applies only to an evaluation"),
], ids=["gamma_0", "gamma_inf", "n_0", "k_negative", "kl_seeds_0", "sim_d_h_0", "sim_heads_0",
        "sim_batch_0", "sim_batch_negative", "config_rf_bound", "config_oracle_check",
        "rf_layers_without_k", "rf_pi_without_k", "fit_with_n", "fit_with_k",
        "fit_with_d_h", "fit_with_gamma"])
def test_bad_numeric_flag_exits_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


FIT_HEADER = "n,k,d_h,seconds,gamma_tc,gamma_hbm,gamma_net,gamma_act"


# a row without its four rates is as wrong as one with too few fields: a
# file of such rows took --gamma for every rate and could never fit
@pytest.mark.parametrize("row", ["1024,4,64", "1024,4,64,0.1", "1024,4,64,0.1,9",
                                 "1024,4,64,0.1,1e9,1e9,1e9,1e9,1", "n,k,d_h,s", ""])
def test_cost_model_fit_bad_row_names_file_and_line(tmp_path, capsys, row):
    fit = tmp_path / "m.csv"
    fit.write_text(f"{FIT_HEADER}\n256,1,8,0.001,1e9,1e9,1e9,1e9\n{row}\n"
                   f"512,2,8,0.002,1e9,1e9,1e9,1e9\n")
    assert main(["cost-model", "--fit", str(fit), "--out", str(tmp_path / "o")]) == 2
    assert f"{fit} line 3: expected 8 fields {FIT_HEADER}" in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,doc,message", [
    (["validate-config"], '{"d_model": 16, "n_heads": 2, "ring_k": 1, "skip_period": 4, '
                          '"logit_clamp": NaN}', "attention.logit_clamp: must be > 0"),
    (["train", "--task", "copy", "--config"], '{"model": {"attention": {"logit_clamp": NaN}}}',
     "model.attention.logit_clamp: must be > 0"),
    (["train", "--task", "copy", "--config"], '{"train": {"lr": NaN}}', "train.lr: must be >= 0"),
    (["train", "--task", "copy", "--config"], '{"train": {"weight_decay": NaN}}',
     "train.weight_decay: must be >= 0"),
    (["train", "--task", "copy", "--config"], '{"train": {"clip_norm": NaN}}',
     "train.clip_norm: must be > 0"),
    (["cost-model", "--gamma", "nan"], None, "gamma_tc: must be strictly positive"),
], ids=["validate_clamp", "train_clamp", "train_lr", "train_weight_decay", "train_clip_norm",
        "cost_gamma"])
def test_nan_fails_the_config_checks(tmp_path, capsys, argv, doc, message):
    # NaN fails every comparison, so each check is written as `not x > 0`
    # (or `not x >= 0`); before, NaN passed and training died in the gate
    if doc is not None:
        argv = argv + [write_json(tmp_path / "c.json", doc)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_infinite_logit_clamp_stays_legal(tmp_path):
    # the KL check's ideal distribution runs with no clamp at all
    doc = '{"d_model": 16, "n_heads": 2, "ring_k": 1, "skip_period": 4, "logit_clamp": Infinity}'
    assert main(["validate-config", write_json(tmp_path / "c.json", doc),
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("body", ["256,1,8,0.001\n512,2,8,0.002\n1024,4,8,0.005\n",
                                  "n,k,d_h\n256,1,8,0.001\n", "", "seconds,n,k,d_h\n",
                                  "n,k,d_h,seconds\n256,1,8,0.001\n"],
                         ids=["headerless", "short_header", "empty", "reordered_header",
                              "header_without_rates"])
def test_cost_model_fit_needs_its_header_line(tmp_path, capsys, body):
    # before, line 1 was dropped unread: three headerless rows lost the first
    # and failed with "need at least 3 measurements"
    fit = tmp_path / "m.csv"
    fit.write_text(body)
    assert main(["cost-model", "--fit", str(fit), "--out", str(tmp_path / "o")]) == 2
    assert one_error_line(capsys).endswith(f"{fit} line 1: expected the header {FIT_HEADER}")
    assert not (tmp_path / "o").exists()


def test_cost_model_fit_non_utf8_exits_2(tmp_path, capsys):
    fit = tmp_path / "m.csv"
    fit.write_bytes(FIT_HEADER.encode() + b"\n\xff\xfe,1,8,0.001,1e9,1e9,1e9,1e9\n")
    assert main(["cost-model", "--fit", str(fit), "--out", str(tmp_path / "o")]) == 2
    assert f"{fit}: not UTF-8 text" in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["--config", "{dir}", "train", "--task", "copy"],
    ["cost-model", "--fit", "{dir}"],
    ["decode", "--ckpt", "{dir}", "--prompt", "1"],
    ["validate-config", "{dir}"],
    ["--out", "{file}", "rf-bound", "--k", "1"],
    ["--out", "{file}/sub", "rf-bound", "--k", "1"],
], ids=["config_dir", "fit_dir", "ckpt_dir", "validate_dir", "out_is_file", "out_under_file"])
def test_unusable_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    # each was an OSError traceback with exit 1 (IsADirectoryError,
    # FileExistsError, NotADirectoryError)
    monkeypatch.chdir(tmp_path)  # a command without --out writes under ./runs
    (tmp_path / "file").write_text("x")
    (tmp_path / "dir").mkdir()
    argv = [a.format(dir=tmp_path / "dir", file=tmp_path / "file") for a in argv]
    assert main(argv) == 2
    one_error_line(capsys)
    assert not (tmp_path / "runs").exists()
    assert (tmp_path / "file").read_text() == "x"


def test_cost_model_fit_shared_gamma_exits_2(tmp_path, capsys):
    # one set of rates for every row makes the c2 and c3 columns proportional
    # (--gamma, an evaluation's one rate, is refused beside --fit)
    fit = tmp_path / "m.csv"
    rates = "2e9,4e9,3e9,5e8"
    fit.write_text(f"{FIT_HEADER}\n128,1,8,1e-6,{rates}\n256,2,8,2e-6,{rates}\n"
                   f"512,4,16,9e-6,{rates}\n1024,1,32,3e-5,{rates}\n")
    assert main(["cost-model", "--fit", str(fit), "--out", str(tmp_path / "o")]) == 2
    line = one_error_line(capsys)
    assert f"{fit}: rank-deficient design matrix" in line
    assert not (tmp_path / "o").exists()


def test_cost_model_fit_rows_with_own_rates_recover_constants(tmp_path):
    true = (2.0, 3.0, 5.0)
    rate_sets = [(1e9, 1e9, 1e9, 1e9), (2e9, 4e9, 3e9, 5e8)]
    lines = [FIT_HEADER]
    for i, (n, k, d_h) in enumerate([(128, 1, 8), (256, 2, 8), (512, 4, 16),
                                     (1024, 1, 32), (256, 8, 8), (640, 3, 16)]):
        gammas = rate_sets[i % 2]
        secs = cost_model_eval(CostParams(*gammas, *true), n, k, d_h)
        lines.append(",".join(map(repr, (n, k, d_h, secs) + gammas)))
    fit = tmp_path / "m.csv"
    fit.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["cost-model", "--fit", str(fit), "--out", str(out)]) == 0
    header, row = (out / "fit.csv").read_text().strip().split("\n")
    assert header == "c1,c2,c3,relative_residual"
    c1, c2, c3, resid = map(float, row.split(","))
    assert max(abs(c1 - 2), abs(c2 - 3), abs(c3 - 5)) < 1e-9
    assert resid < 1e-9


def test_cost_model_fit_bad_row_rate_names_file_and_line(tmp_path, capsys):
    # before, an infinite rate fitted and exited 0
    for rates, name in (("1e9,1e9,0,1e9", "gamma_net"), ("inf,1e9,1e9,1e9", "gamma_tc")):
        fit = tmp_path / "m.csv"
        fit.write_text(f"{FIT_HEADER}\n256,1,8,0.001,1e9,1e9,1e9,1e9\n"
                       f"512,2,8,0.002,{rates}\n")
        assert main(["cost-model", "--fit", str(fit), "--out", str(tmp_path / "o")]) == 2
        assert (f"{fit} line 3: {name}: must be strictly positive and finite"
                in one_error_line(capsys))
        assert not (tmp_path / "o").exists()


def test_manifest_records_versions_and_thread_settings(tmp_path, monkeypatch):
    import numpy as np
    import scipy
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    att = {"d_model": 8, "n_heads": 2, "ring_k": 1, "skip_period": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"layers": 1, "d_model": 8, "n_heads": 2, "d_ff": 16, "vocab": 16,
                  "max_seq": 16, "attention": att},
        "task": {"vocab": 16, "seq_len": 16, "delay": 4},
        "train": {"steps": 2, "batch_size": 2, "eval_interval": 1},
    }))
    train_job = ["train", "--task", "copy", "--config", str(cfg_path)]
    peaks = []

    def recording_grad_check(**kw):
        errors = run_stacked_grad_check(**kw)
        if errors.sibling_peak_rss_mb is not None:
            peaks.append(errors.sibling_peak_rss_mb)
        return errors

    monkeypatch.setattr(cli, "GRAD_CHECK_SEEDS", 2)
    monkeypatch.setattr(cli, "run_stacked_grad_check", recording_grad_check)

    def manifest(job, name):
        assert main(job + ["--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name / "manifest.json").read_text())

    for name, job in (("rf", ["rf-bound"]), ("train", train_job)):
        got = manifest(job, name)
        assert got["numpy"] == np.__version__ and got["scipy"] == scipy.__version__
        assert got["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert got["OMP_NUM_THREADS"] == "1" and got["MKL_NUM_THREADS"] is None
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for name, job in (("rf", ["rf-bound"]), ("train", train_job)):
            got = manifest(job, f"{name}{cpus}")
            assert got["threads"] == cpus and "train_threads" not in got
        # the second halves ran in a sibling process on two CPUs, here on one
        forked = cpus == 2 and hasattr(os, "fork")
        assert (got["sibling_peak_rss_mb"] is None) != forked
        # so did the second sets of the oracle sweep and of each seed's gradient
        # check; grad-check records the largest of its seeds' sibling peaks
        oracle = manifest(["oracle-check", "--grid", "small"], f"oracle{cpus}")
        assert (oracle["sibling_peak_rss_mb"] is None) != forked
        assert not forked or oracle["sibling_peak_rss_mb"] > 0
        got = manifest(["grad-check"], f"grad{cpus}")
        assert len(peaks) == (cli.GRAD_CHECK_SEEDS if forked else 0)
        assert got["sibling_peak_rss_mb"] == max(peaks, default=None)
        peaks.clear()
