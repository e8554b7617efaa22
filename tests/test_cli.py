"""Command-line interface: argument handling, smoke runs of every
subcommand at toy sizes, and byte-level reproducibility of artifacts."""

import csv
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


def test_help_lists_exactly_the_five_subcommands():
    code, out, _ = _run(["--help"])
    assert code == 0
    assert "{check-theory,gen-world,construct,train,experiment}" in out
    for removed in ("compare", "aggregate-scores", "chair"):
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


# sha256 of `gen-world --n 500` by seed, recorded before `corrupt` and
# `diff_captions` were rewritten: each record stores its corruptions in the
# injector's draw order with their target indexes, which no other golden reads
GEN_WORLD_SHA256 = {
    0: "e69669917468dc159a905fc2070a317427ece72737679dafa7cc66dcb2563560",
    3: "d23b24611d56b5fa2669b0de5db4305036db77b5188c52aed9a1c38a5c7f1e55",
}


@pytest.mark.parametrize("seed", sorted(GEN_WORLD_SHA256))
def test_gen_world_output_matches_recorded_bytes(tmp_path, seed):
    path = _gen_world(tmp_path, "data.jsonl", n=500, seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_WORLD_SHA256[seed]


def test_construct_smoke_and_reproducible(tmp_path):
    data = _gen_world(tmp_path, "data.jsonl")
    outs = []
    for name in ("c1.jsonl", "c2.jsonl"):
        path = tmp_path / name
        code, _, err = _run(["construct", "--in", str(data), "--out", str(path),
                             "--k", "3", "--seed", "1"])
        assert code == 0, err
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    records = [json.loads(l) for l in outs[0].decode().splitlines()]
    assert len(records) == 16  # gt + constructed per sample
    assert all("conversations" in r for r in records)


# sha256 of `construct --k 3 --seed 1` on `gen-world --n 8 --seed 3`, keyed
# by layout, recorded before the GT conversation came from `PreferenceSample`;
# concat_separate (GT then constructed conversation) is the only layout left
CONSTRUCT_SHA256 = {
    "concat_separate": "4678342f611eea1b41ca83a3e211517f9a026cfed8787ee8797ddc77685806ea",
}


@pytest.mark.parametrize("layout", sorted(CONSTRUCT_SHA256))
def test_construct_output_matches_recorded_bytes(tmp_path, layout):
    data = _gen_world(tmp_path, "data.jsonl")
    path = tmp_path / "c.jsonl"
    code, _, err = _run(["construct", "--in", str(data), "--out", str(path),
                         "--k", "3", "--seed", "1"])
    assert code == 0, err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONSTRUCT_SHA256[layout]


# sha256 of the checkpoint and the `--log-csv` trajectory of `train --steps 3
# --seed 0` (batch_size 4, dim 16) on `gen-world --n 8 --seed 3`, recorded
# before every method's batch became one pack of flattened rows
TRAIN_SHA256 = {
    "cont_sft": ("8c4cfa3e8687fef450f73eca171b35455c38e9425a2e1d0be6dbd90688a4d7ae",
                 "9fe13badc523198aecded8b83b5da3ce124d725cfe805f1f289a74a03ff128cf"),
    "gt_dpo": ("2923b82098ac394d06c84d428bf89dd3eaed42ff491849fe7902237bd3e08109",
               "a117fd817aede676cd85b354577bcb3b0bc3a6ed2b51e36b630444774e292964"),
    "nsft": ("03619a8ee8248d13512a22bc588cc5f90466b5bda2388331d6e98d3fcaa1805f",
             "af3356ce6ff1275d178f215e516b40f26ce8915d5d011ef6349ffd7f8cfc0782"),
    "sft_kl": ("542608ff2a75fbee5b0754c8fa5ecd7c6fc0a6cfbd635af1af016e1b79f9fe17",
               "fc42d9abb048c3d9e696976d643e230e8074cc309d630d0e3f331d15d558c644"),
    "nsft_kl": ("910e3401622831ad4b93827bbb7328a7d3f335770cc39b3f94277fcc97f9ad45",
                "b6af671dbfe22d1016e699007dec2754036a817043018c5ca8025120c6c88bba"),
}


@pytest.mark.parametrize("method", sorted(TRAIN_SHA256))
def test_train_output_matches_recorded_bytes(tmp_path, method):
    data = _gen_world(tmp_path, "data.jsonl")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"batch_size": 4, "dim": 16}))
    ckpt, log = tmp_path / "m.json", tmp_path / "log.csv"
    code, _, err = _run(["train", "--config", str(cfg), "--data", str(data), "--method", method,
                         "--steps", "3", "--seed", "0", "--out", str(ckpt), "--log-csv", str(log)])
    assert code == 0, err
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (ckpt, log))
    assert got == TRAIN_SHA256[method]
    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # only gt_dpo logs t1; None is written as an empty cell
    assert len(rows) == 3 and all((r["t1"] == "") == (method != "gt_dpo") for r in rows)
    # without --log-csv no trajectory is computed, and the checkpoint is the same
    bare = tmp_path / "bare.json"
    code, _, err = _run(["train", "--config", str(cfg), "--data", str(data), "--method", method,
                         "--steps", "3", "--seed", "0", "--out", str(bare)])
    assert code == 0, err
    assert hashlib.sha256(bare.read_bytes()).hexdigest() == TRAIN_SHA256[method][0]


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
    # yes_no_band is no TrainConfig field: the balancing takes one yes_floor
    for key, value in (("lr_schedule", "cosin"), ("yes_no_band", [0.4, 0.6])):
        cfg.write_text(json.dumps({key: value}))
        code, _, err = _run(["train", "--config", str(cfg), "--data", str(data),
                             "--out", str(tmp_path / "m.json")])
        assert code == 1
        payload = json.loads(err.strip())
        assert payload["error"] == "TypeError" and key in payload["message"]


def test_train_non_finite_config_exits_1_without_checkpoint(tmp_path):
    data = _gen_world(tmp_path, "data.jsonl")
    cfg, ckpt = tmp_path / "cfg.json", tmp_path / "m.json"
    cfg.write_text('{"lr": NaN}')
    code, _, err = _run(["train", "--config", str(cfg), "--data", str(data), "--steps", "1",
                         "--out", str(ckpt)])
    assert code == 1
    assert json.loads(err.strip()) == {"error": "ValueError",
                                       "message": "TrainConfig.lr must be finite, got nan"}
    assert not ckpt.exists()


@pytest.mark.parametrize("text, message", [
    ('{"steps": true, "dim": 8}', "TrainConfig.steps must be an integer, got True"),
    ('{"construct_k": 2.5, "steps": 2, "dim": 8}',
     "TrainConfig.construct_k must be an integer, got 2.5"),
    ('{"lr": true, "dim": 8, "steps": 2}', "TrainConfig.lr must be a number, got True"),
    ('{"lr": "0.01", "dim": 8, "steps": 2}', "TrainConfig.lr must be a number, got '0.01'"),
    ("[]", "--config must hold a JSON object, got []"),
    ('[["dim", 8], ["steps", 2]]',
     "--config must hold a JSON object, got [['dim', 8], ['steps', 2]]"),
], ids=["bool-steps", "float-construct-k", "bool-lr", "str-lr", "empty-array", "pair-array"])
def test_train_bad_config_file_exits_1_without_checkpoint(tmp_path, text, message):
    # a bool or a float would pass a bare floor comparison, and a JSON array dict.update
    data = _gen_world(tmp_path, "data.jsonl")
    cfg, ckpt = tmp_path / "cfg.json", tmp_path / "m.json"
    cfg.write_text(text)
    code, _, err = _run(["train", "--config", str(cfg), "--data", str(data), "--method", "nsft",
                         "--out", str(ckpt)])
    assert code == 1
    assert json.loads(err.strip()) == {"error": "ValueError", "message": message}
    assert not ckpt.exists()


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
    ("dim", 4, "--dim"),
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


def test_experiment_base_checkpoint_without_arrays_exits_1(tmp_path, monkeypatch):
    base = tmp_path / "base.json"
    base.write_text('{"version": 1}')
    monkeypatch.setattr(training, "self_response_records", _fail("decoding"))
    code, _, err = _run(["experiment", "--base-ckpt", str(base), "--out", str(tmp_path / "e.json")])
    assert code == 1
    assert json.loads(err.strip()) == {"error": "ValueError",
                                       "message": 'checkpoint has no "arrays" object'}


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

