"""Command-line interface: argument handling, smoke runs of every
subcommand at toy sizes, and byte-level reproducibility of artifacts."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from prefalign import training, world
from prefalign.cli import dispatch
from prefalign.model import init_params, save_checkpoint


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def test_no_arguments_is_usage_error():
    code, _, _ = _run([])
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    code, _, _ = _run(["frobnicate"])
    assert code == 2


def test_help_lists_exactly_the_six_subcommands():
    code, out, _ = _run(["--help"])
    assert code == 0
    assert "{check-theory,gen-world,construct,train,experiment,chair}" in out
    for removed in ("compare", "aggregate-scores"):
        assert _run([removed])[0] == 2


def test_runtime_failure_exits_1_with_json_stderr(tmp_path):
    code, _, err = _run(["gen-world", "--n", "0", "--seed", "0",
                         "--out", str(tmp_path / "d.jsonl")])
    assert code == 1
    payload = json.loads(err.strip())
    assert payload["error"] == "ValueError"
    assert payload["message"]


def test_gen_world_negative_seed_exits_1(tmp_path):
    out = tmp_path / "d.jsonl"
    code, _, err = _run(["gen-world", "--n", "2", "--seed", "-1", "--out", str(out)])
    assert code == 1
    assert json.loads(err.strip()) == {"error": "ValueError",
                                       "message": "seed must be >= 0, got -1"}
    assert not out.exists()


def test_check_theory_smoke():
    code, out, _ = _run(["check-theory", "--seeds", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


# Recorded on the commit before the closed-form sweeps became array
# expressions: every check's worst error, digit for digit.
CHECK_THEORY_SEEDS_2 = [
    "PASS logit-sft-identity: max |p'_dpo + dL_sft| = 0.000e+00 (tol 1e-10)",
    "PASS frozen-reference-gradients: max |grad diff| = 0.000e+00 (tol 1e-10)",
    "PASS gradient-decomposition: max componentwise rel err = 2.580e-12 (tol 1e-06)",
    "PASS losses-vs-finite-diff: max rel err vs finite differences = 7.613e-06 (tol 1e-05)",
    "PASS update-rate-ratio: max |ratio - t2/t1| = 1.421e-14 (tol 1e-10)",
    "PASS partials-vs-finite-diff: max rel err of partials = 4.566e-08 (tol 1e-07)",
    "PASS closed-form-anchors: |dpo-ln2|=0.000e+00 (tol 1e-12), |sft-LlnV|=0.000e+00 (tol 1e-10), kl=0.000e+00 (exact 0)",
    "PASS softmax-row-gradient: max |row grad sum| = 2.776e-16 (tol 1e-12)",
    "PASS implicit-reward-identity: max |BT - sigma(beta p)| = 5.551e-17 (tol 1e-10)",
]


def test_check_theory_prints_recorded_lines():
    code, out, _ = _run(["check-theory", "--seeds", "2"])
    assert code == 0
    assert out.splitlines() == CHECK_THEORY_SEEDS_2


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_check_theory_rejects_non_positive_seeds(seeds):
    code, out, err = _run(["check-theory", "--seeds", seeds])
    assert code == 1
    assert "PASS" not in out
    assert json.loads(err.strip())["error"] == "ValueError"


def _gen_world(tmp_path, name, n=8, seed=3):
    path = tmp_path / name
    code, _, err = _run(["gen-world", "--n", str(n), "--seed", str(seed),
                         "--out", str(path)])
    assert code == 0, err
    return path


def test_gen_world_reproducible(tmp_path):
    a = _gen_world(tmp_path, "a.jsonl")
    b = _gen_world(tmp_path, "b.jsonl")
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 8


def test_construct_smoke_and_reproducible(tmp_path):
    data = _gen_world(tmp_path, "data.jsonl")
    outs = []
    for name in ("c1.jsonl", "c2.jsonl"):
        path = tmp_path / name
        code, _, err = _run(["construct", "--in", str(data), "--out", str(path),
                             "--k", "3", "--mode", "concat_separate", "--seed", "1"])
        assert code == 0, err
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    records = [json.loads(l) for l in outs[0].decode().splitlines()]
    assert len(records) == 16  # gt + constructed per sample
    assert all("conversations" in r for r in records)


# sha256 of `construct --k 3 --seed 1` on `gen-world --n 8 --seed 3`,
# recorded before the GT conversation came from `PreferenceSample`
CONSTRUCT_SHA256 = {
    "append": "87b9908ce124c946cebcdb9e8f61bcb50ad12eefdf474cc283c11b7adf10d0ec",
    "concat_separate": "4678342f611eea1b41ca83a3e211517f9a026cfed8787ee8797ddc77685806ea",
}


@pytest.mark.parametrize("mode", sorted(CONSTRUCT_SHA256))
def test_construct_output_matches_recorded_bytes(tmp_path, mode):
    data = _gen_world(tmp_path, "data.jsonl")
    path = tmp_path / "c.jsonl"
    code, _, err = _run(["construct", "--in", str(data), "--out", str(path),
                         "--k", "3", "--mode", mode, "--seed", "1"])
    assert code == 0, err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONSTRUCT_SHA256[mode]


def test_train_smoke_and_reproducible(tmp_path):
    data = _gen_world(tmp_path, "data.jsonl")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_size": 4, "dim": 16}))
    artifacts = []
    for tag in ("1", "2"):
        ckpt, log = tmp_path / f"m{tag}.json", tmp_path / f"log{tag}.csv"
        code, _, err = _run(["train", "--config", str(cfg), "--data", str(data),
                             "--method", "gt_dpo", "--steps", "3", "--seed", "0",
                             "--out", str(ckpt), "--log-csv", str(log)])
        assert code == 0, err
        artifacts.append((ckpt.read_bytes(), log.read_bytes()))
    assert artifacts[0] == artifacts[1]


def test_train_config_unknown_key_exits_1(tmp_path):
    data = _gen_world(tmp_path, "data.jsonl")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr_schedule": "cosin"}))
    code, _, err = _run(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(tmp_path / "m.json")])
    assert code == 1
    payload = json.loads(err.strip())
    assert payload["error"] == "TypeError" and "lr_schedule" in payload["message"]


@pytest.mark.parametrize("command, input_flag, message", [
    ("train", "--data", "TrainConfig.seed must be >= 0, got -1"),
    ("construct", "--in", "--seed must be >= 0, got -1"),
], ids=["train", "construct"])
def test_negative_seed_exits_1_before_reading_input(tmp_path, command, input_flag, message):
    # the input does not exist, so reading it first would fail another way
    out = tmp_path / "out.json"
    code, _, err = _run([command, input_flag, str(tmp_path / "missing.jsonl"), "--seed", "-1",
                         "--out", str(out)])
    assert code == 1
    assert json.loads(err.strip()) == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_experiment_smoke_and_reproducible(tmp_path):
    blobs = []
    for tag in ("1", "2"):
        out = tmp_path / f"exp{tag}.json"
        code, _, err = _run(["experiment", "--seed", "0", "--train-n", "3",
                             "--steps", "2", "--dim", "16", "--eval-n", "3",
                             "--eval-seed", "5", "--pretrain-n", "6",
                             "--pretrain-steps", "3", "--out", str(out)])
        assert code == 0, err
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert set(report["methods"]) == {"cont_sft", "gt_dpo", "nsft", "sft_kl"}


@pytest.mark.parametrize("field, bad, flag", [
    ("train_n", 0, "--train-n"), ("eval_n", 0, "--eval-n"), ("pretrain_n", 0, "--pretrain-n"),
    ("steps", 0, "--steps"), ("pretrain_steps", -5, "--pretrain-steps"),
    ("batch_size", 0, None), ("max_decode_len", 0, None),
    ("seed", -1, "--seed"), ("eval_seed", -5, "--eval-seed"), ("pretrain_seed", -1, None),
])
def test_experiment_bad_size_fails_before_pretraining(tmp_path, monkeypatch, field, bad, flag):
    with pytest.raises(ValueError, match=f"ExperimentSpec.{field} must be"):
        training.ExperimentSpec(**{field: bad})
    if flag is None:  # not exposed on the command line
        return
    pretrained = []
    monkeypatch.setattr(training, "make_base_model", lambda *a, **k: pretrained.append(1))
    code, _, err = _run(["experiment", flag, str(bad), "--out", str(tmp_path / "e.json")])
    assert code == 1
    assert json.loads(err.strip())["message"].startswith(f"ExperimentSpec.{field} must be")
    assert pretrained == []
    assert not (tmp_path / "e.json").exists()


def test_experiment_flag_defaults_are_the_spec_defaults(tmp_path, monkeypatch):
    specs = []

    def stop(spec):
        specs.append(spec)
        raise RuntimeError("stop before pretraining")

    monkeypatch.setattr(training, "pretrain_base", stop)
    code, _, _ = _run(["experiment", "--out", str(tmp_path / "e.json")])
    assert code == 1
    assert specs == [training.ExperimentSpec()]


def test_experiment_base_checkpoint_round_trip(tmp_path):
    base = tmp_path / "base.json"
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    common = ["--seed", "0", "--train-n", "3", "--steps", "2", "--dim", "16",
              "--eval-n", "3", "--eval-seed", "5", "--pretrain-n", "6",
              "--pretrain-steps", "3"]
    code, _, err = _run(["experiment", *common, "--save-base", str(base),
                         "--out", str(out1)])
    assert code == 0, err
    code, _, err = _run(["experiment", *common, "--base-ckpt", str(base),
                         "--out", str(out2)])
    assert code == 0, err
    assert out1.read_bytes() == out2.read_bytes()


def _fail(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran on a rejected base checkpoint")
    return fail


@pytest.mark.parametrize("shape", [dict(dim=16, n_blocks=1), dict(dim=64, n_blocks=1),
                                   dict(dim=16, n_blocks=2, vocab_size=48),
                                   dict(dim=16, n_blocks=2, latent_dim=5)])
def test_experiment_rejects_base_checkpoint_of_another_shape(tmp_path, monkeypatch, shape):
    shape = {"vocab_size": world.VOCAB_SIZE, "latent_dim": world.latent_dim(), **shape}
    base = tmp_path / "base.json"
    save_checkpoint(init_params(shape["vocab_size"], shape["dim"], shape["latent_dim"],
                                n_blocks=shape["n_blocks"]), base)
    monkeypatch.setattr(training, "self_response_records", _fail("decoding"))
    monkeypatch.setattr(training, "train", _fail("training"))
    code, _, err = _run(["experiment", "--dim", "16", "--train-n", "3", "--eval-n", "3",
                         "--base-ckpt", str(base), "--out", str(tmp_path / "e.json")])
    assert code == 1
    assert json.loads(err.strip())["error"] == "ValueError"
    assert not (tmp_path / "e.json").exists()


def test_chair_smoke_and_reproducible(tmp_path):
    evals = tmp_path / "evals.jsonl"
    evals.write_text('{"mentioned": [[1, 2, 3]], "ground_truth": [1, 2]}\n'
                     '{"mentioned": [[1]], "ground_truth": [1]}\n')
    outs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        code, _, err = _run(["chair", "--in", str(evals), "--out", str(path)])
        assert code == 0, err
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
