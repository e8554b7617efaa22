"""Continual-alignment training loop: determinism, logging, method
comparison scaffolding, and the experiment pipeline at toy sizes."""

import ctypes
import dataclasses
import hashlib
import io
import json
import math
import re
import resource
from contextlib import redirect_stdout

import numpy as np
import pytest

import prefalign.autodiff as ad
from prefalign import constructor, data, training, world
from prefalign.autodiff import Tensor, backward, relative_error
from prefalign.cli import dispatch
from prefalign.data import InputContext
from prefalign.losses import (
    batch_sft_loss,
    dpo_margin,
    dpo_margin_loss,
    per_token_kl,
    sequence_logprob,
    sft_loss,
)
from prefalign.model import (
    batch_logprob_matrix,
    encode_context,
    greedy_decode,
    greedy_decode_batch,
    init_params,
    pack,
    params_hash,
)
from prefalign.training import (
    METHODS,
    ExperimentSpec,
    TrainConfig,
    TrainingDivergedError,
    _caption_rows,
    _decode_records,
    batch_loss,
    build_training_views,
    cosine_lr,
    evaluate_model,
    make_base_model,
    mean_sequence_logprobs,
    run_experiment,
    self_response_records,
    train,
)

RECORDS = world.make_preference_dataset(12, 40)


def _config(**kw):
    base = dict(method="cont_sft", steps=3, batch_size=4, dim=16, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.5) == pytest.approx(0.5)
    assert cosine_lr(100, 100, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert cosine_lr(50, 100, 0.5) == pytest.approx(0.25)


def test_cosine_lr_nonincreasing_and_validated():
    values = [cosine_lr(s, 20, 1.0) for s in range(21)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 1.0)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 1.0)
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 1.0)  # passes 0 <= step <= total, then would divide by zero


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(method="ppo")
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    for bad in (dict(beta=0.0), dict(beta=-1.0), dict(kl_weight=-5.0), dict(construct_k=0),
                dict(seed=-1), dict(batch_size=0), dict(lr=-1e-3),
                dict(yes_floor=-0.1), dict(yes_floor=1.5), dict(n_blocks=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    with pytest.raises(ValueError, match="TrainConfig.dim must be >= 8, got 4"):
        TrainConfig(dim=4)
    for name in ("lr", "beta", "kl_weight"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"TrainConfig.{name} must be finite"):
                TrainConfig(**{name: value})
    # a bool (an int subclass) or a float would pass a bare floor comparison
    for name, value in (("steps", True), ("construct_k", 2.5), ("dim", 8.0), ("seed", False),
                        ("batch_size", np.float64(4))):
        with pytest.raises(ValueError, match=rf"TrainConfig.{name} must be an integer, got "):
            TrainConfig(**{name: value})
    # a bool in a float field would train at 1.0 or 0.0
    for name, value in (("lr", True), ("beta", True), ("kl_weight", False), ("yes_floor", True)):
        with pytest.raises(ValueError, match=rf"TrainConfig.{name} must be a number, got {value}"):
            TrainConfig(**{name: value})
    # a non-number would fail the floor comparison with a TypeError naming no field
    for name, value in (("lr", "0.1"), ("yes_floor", None), ("kl_weight", [1])):
        with pytest.raises(ValueError, match=rf"TrainConfig.{name} must be a number, got "):
            TrainConfig(**{name: value})
    config = TrainConfig(steps=np.int64(3), dim=np.int32(8), lr=1, kl_weight=0)
    assert (config.steps, config.dim) == (3, 8)
    assert set(METHODS) == {"cont_sft", "gt_dpo", "nsft", "sft_kl", "nsft_kl"}


@pytest.mark.parametrize("dim, n_blocks, vocab_size", [
    (32, 1, world.VOCAB_SIZE), (32, 2, world.VOCAB_SIZE), (16, 1, world.VOCAB_SIZE),
    (16, 3, world.VOCAB_SIZE), (16, 2, 48),
], ids=["32-1", "32-2", "16-1", "16-3", "vocab_48"])
def test_train_rejects_init_model_of_another_shape(monkeypatch, dim, n_blocks, vocab_size):
    # a 48-token base has the config's dim and blocks, but would train with eos_id 47
    def fail(*args, **kwargs):
        raise AssertionError("training views built for a rejected init_model")

    monkeypatch.setattr(training, "build_training_views", fail)
    init = init_params(vocab_size, dim, world.latent_dim(), n_blocks=n_blocks)
    with pytest.raises(ValueError, match=r"init_model shapes \{'embed': "
                                         rf"\({vocab_size}, {dim}\), .*, but dim 16, 2 blocks need"):
        train(_config(dim=16, n_blocks=2), RECORDS, init_model=init)


@pytest.mark.parametrize("trajectory", [True, False])
@pytest.mark.parametrize("method", METHODS)
def test_train_never_writes_its_base(method, trajectory):
    # the reference is a frozen view of the base, so only a copy may train
    init = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=5)
    before = params_hash(init)
    params, _ = train(_config(method=method, lr=1e-2), RECORDS, init_model=init,
                      trajectory=trajectory)
    assert params_hash(init) == before
    assert params_hash(params) != before  # it trained
    assert not any(np.shares_memory(a.values, b.values)
                   for a in params.tensors() for b in init.tensors())


# Recorded from the per-sample training loop before it shared one SGD step
# with pretraining; every float operation and its order must be unchanged.
GOLDEN_STEP_LOSSES = {
    "cont_sft": [30.156129866205035, 45.21755982477429, 41.01416963320774],
    "gt_dpo": [0.6931471805599453, 0.6931101571956216, 0.6930766579010613],
    "nsft": [68.88893327229418, 82.73919506436697, 77.72035573707319],
    "sft_kl": [30.156129866205035, 45.21757212282934, 41.01423357029948],
    "nsft_kl": [68.88893327229418, 82.73928416134544, 77.7207559298686],
}
GOLDEN_BASE_SUM_SQUARES = [7.510876838810438, 15.879835531085746, 2.6779917887068088,
                           2.4402335646861846, 2.6528737903532846, 2.4156544349014886,
                           6.950370301476186]


@pytest.mark.parametrize("method", METHODS)
def test_train_step_losses_match_golden(method):
    _, log = train(_config(method=method), RECORDS)
    assert [r.loss for r in log] == pytest.approx(GOLDEN_STEP_LOSSES[method], rel=1e-12)


def test_make_base_model_matches_golden():
    base = make_base_model(RECORDS, dim=16, steps=3)
    sums = [float(np.sum(t.values ** 2)) for t in base.tensors()]
    assert sums == pytest.approx(GOLDEN_BASE_SUM_SQUARES, rel=1e-12)


# Recorded on the commit before pretraining packed each caption once. At
# this size the steps draw both QA and caption items, so the hash pins the
# rng order of both kinds and every float of the packed SGD steps.
GOLDEN_BASE_HASH = "1816f6229a6e5a0e47a889ee613bbbeb0da7d15dcd0161c5ddc8ace74c42aef4"


def test_make_base_model_params_hash_matches_golden():
    records = world.make_preference_dataset(40, 5)
    assert params_hash(make_base_model(records, dim=16, steps=200)) == GOLDEN_BASE_HASH


# Recorded before every method's batch became one pack of flattened rows:
# the final parameters of each method's three steps, every float of them.
GOLDEN_TRAIN_HASHES = {
    "cont_sft": "a6f3257225e7f817dfad173548f23e249b6f2dd9d691db1a1615a2bb20c812fe",
    "gt_dpo": "0670616f884dc636602448355024a43eb45f794024aae162b4f1d717571c05e3",
    "nsft": "cc9d2c5d5dda0e141bc9433d007082baea4d167674a46473a3b4fa93451fdf35",
    "sft_kl": "c9fa6f541b2f6deeeef39b0993f2b7738ed801674176d2648bdbce76edaff956",
    "nsft_kl": "b41bca8974e51e2a9b84215d54ddb328e354d08772ef87a6e204fd64d03b6c10",
}


@pytest.mark.parametrize("method", METHODS)
def test_train_params_hash_matches_golden(method):
    params, _ = train(_config(method=method), RECORDS)
    assert params_hash(params) == GOLDEN_TRAIN_HASHES[method]


# Every StepRecord field of those runs, recorded from the per-sample loop
# before each batch became one packed graph: (loss, mean_chosen_logprob,
# mean_rejected_logprob, t1, t2, p_dpo, kl_to_reference).
GOLDEN_STEP_RECORDS = {
    "cont_sft": [
        (30.156129866205035, -30.156129866205035, -26.320389973574635, None, None, None, 0.00012489348629764652),
        (45.21755982477429, -45.21755982477429, -26.284857611832216, None, None, None, 0.000440442407997604),
        (41.01416963320774, -41.01416963320774, -29.77149533473873, None, None, None, 0.0005831892397851298),
    ],
    "gt_dpo": [
        (0.6931471805599453, -30.156129866205035, -26.320389973574635, 1.0, 1.0, 0.0, 2.250054599997527e-08),
        (0.6931101571956216, -45.43873881784842, -26.42353933241898, 1.0017361149480044, 1.0009946420673694, 0.0007404823325787291, 1.10174945297274e-07),
        (0.6930766579010613, -41.396751307165644, -30.0616063851105, 1.005080675637827, 1.0036635077712766, 0.001410600444485155, 1.3325630809005296e-07),
    ],
    "nsft": [
        (68.88893327229418, -30.156129866205035, -26.320389973574635, None, None, None, 0.0008988864121766921),
        (82.73919506436697, -45.030586034208, -26.122569807065815, None, None, None, 0.002745769196162983),
        (77.72035573707319, -40.698087483625805, -29.473706640245844, None, None, None, 0.0036373428182543393),
    ],
    "sft_kl": [
        (30.156129866205035, -30.156129866205035, -26.320389973574635, None, None, None, 0.00012489348629764652),
        (45.21757212282934, -45.21755982477429, -26.284857611832216, None, None, None, 0.00044038958178507933),
        (41.01423357029948, -41.01418911634135, -29.77151014365923, None, None, None, 0.0005830874757470663),
    ],
    "nsft_kl": [
        (68.88893327229418, -30.156129866205035, -26.320389973574635, None, None, None, 0.0008988864121766921),
        (82.73928416134544, -45.030586034208, -26.122569807065815, None, None, None, 0.002745401986409691),
        (77.7207559298686, -40.69812606029651, -29.473737843631003, None, None, None, 0.0036366414459054865),
    ],
}
STEP_FIELDS = ("loss", "mean_chosen_logprob", "mean_rejected_logprob", "t1", "t2", "p_dpo",
               "kl_to_reference")


@pytest.mark.parametrize("method", METHODS)
def test_step_records_match_per_sample_golden(method):
    _, log = train(_config(method=method), RECORDS)
    assert len(log) == len(GOLDEN_STEP_RECORDS[method])
    for record, want in zip(log, GOLDEN_STEP_RECORDS[method]):
        for field, w in zip(STEP_FIELDS, want):
            got = getattr(record, field)
            if w is None:
                assert got is None, field
            else:
                # floor 1e-6: gt_dpo's KL (~1e-7) is what is left after its
                # ~1e-4 terms cancel, so float order alone moves it ~1e-9
                assert relative_error(got, w, floor=1e-6) <= 1e-10, (field, got, w)


@pytest.mark.parametrize("method", METHODS)
def test_training_without_trajectory_is_the_same_training(method):
    # the log-only forwards read the parameters and write nothing
    full_params, full = train(_config(method=method), RECORDS)
    params, log = train(_config(method=method), RECORDS, trajectory=False)
    assert params_hash(params) == params_hash(full_params) == GOLDEN_TRAIN_HASHES[method]
    kept = ("loss", "lr", "mean_chosen_logprob", "t1", "t2", "p_dpo")
    assert [[getattr(r, f) for f in kept] for r in log] == \
        [[getattr(r, f) for f in kept] for r in full]
    assert all(r.kl_to_reference is None for r in log)
    rejected_in_loss = METHODS[method].row == "rejected"
    assert [r.mean_rejected_logprob for r in log] == \
        [r.mean_rejected_logprob if rejected_in_loss else None for r in full]


@pytest.mark.parametrize("method", METHODS)
def test_training_without_trajectory_packs_once_per_step(monkeypatch, method):
    # a cost guard: a log-only forward that creeps back into the loop fails here
    packs, real = [], training.pack
    monkeypatch.setattr(training, "pack", lambda *a: packs.append(1) or real(*a))

    def count(steps, trajectory):
        del packs[:]
        train(_config(method=method, steps=steps), RECORDS, trajectory=trajectory)
        return len(packs)

    views = count(0, False)  # gt_dpo's views pack the reference's scoring forwards
    assert count(5, False) == views + 5
    assert count(5, True) == views + 5 * (2 if METHODS[method].row == "rejected" else 3)


def test_make_base_model_builds_no_turn_per_step(monkeypatch):
    # a cost guard: QA items are rows drawn straight from the token tables,
    # and `PreferenceRecord.caption_rows()` flattens the records' captions
    # without a `Turn`, so pretraining builds none at all
    turns = []
    for module in (data, constructor):
        real = module.Turn
        monkeypatch.setattr(module, "Turn", lambda *a, real=real: turns.append(1) or real(*a))
    make_base_model(RECORDS, dim=16, steps=20)
    assert len(turns) == 0


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_make_base_model_does_not_refault_its_heap():
    # a cost guard: `autodiff` fixes glibc's trim threshold, so each step's freed
    # graph stays on the heap for the next step instead of being trimmed and faulted
    # back in (without it the second call took 700-6000 minor faults, with it 5-40)
    records = world.make_preference_dataset(200, 999)
    make_base_model(records, dim=64, steps=100)  # the heap grows to a step's working size
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    make_base_model(records, dim=64, steps=300)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 300


def _per_sample_loss(params, reference, i, views, ref_scores, config):
    """Sample i's loss from the single-sample functions, as the training
    loop built it before batches were packed."""
    sample = RECORDS[i].to_sample()
    if config.method == "gt_dpo":
        lp_c = sequence_logprob(params, sample.context, sample.chosen)
        lp_r = sequence_logprob(params, sample.context, sample.rejected)
        p = dpo_margin(lp_c, lp_r, *ref_scores[i])
        return dpo_margin_loss(p, config.beta)
    # the SFT family: one graph per trained row (the chosen caption, then
    # nSFT's constructed conversation), summed
    terms = [sft_loss(params, InputContext(latent, question), y, mask)
             for latent, question, y, mask in views[i][:1] + views[i][2:]]
    loss = sum(terms[1:], terms[0])
    if config.method in ("sft_kl", "nsft_kl"):
        loss = loss + config.kl_weight * per_token_kl(params, sample.context, sample.chosen, reference)
    return loss


@pytest.mark.parametrize("method", METHODS)
def test_packed_batch_loss_matches_per_sample_graphs(method):
    config = _config(method=method, batch_size=8)
    params = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=0)
    reference = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=1).frozen()
    views, ref_scores = build_training_views(RECORDS, config, reference=reference)
    assert (ref_scores is None) == (METHODS[method].row != "rejected")
    idx = np.random.default_rng(3).integers(0, len(views), size=8)
    batch = [views[i] for i in idx]

    packed, stats = batch_loss(params, reference, batch, config,
                               None if ref_scores is None else ref_scores[idx])
    total = _per_sample_loss(params, reference, idx[0], views, ref_scores, config)
    for i in idx[1:]:
        total = total + _per_sample_loss(params, reference, i, views, ref_scores, config)
    total = total / len(batch)
    assert relative_error(packed.item(), total.item()) <= 1e-10
    g_packed = backward(packed, params.tensors())
    g_total = backward(total, params.tensors())
    for t in params.tensors():
        assert np.max(np.abs(g_packed[t] - g_total[t])) <= 1e-10 * np.max(np.abs(g_total[t]))

    samples = [RECORDS[i].to_sample() for i in idx]
    lp_c = [sequence_logprob(params, s.context, s.chosen).item() for s in samples]
    lp_r = [sequence_logprob(params, s.context, s.rejected).item() for s in samples]
    assert relative_error(stats["lp_c"], lp_c) <= 1e-10
    if METHODS[method].row == "rejected":  # the loss forward scores the rejected captions
        assert set(stats) == {"lp_c", "lp_r", "p_dpo", "t1", "t2"}
        assert relative_error(stats["lp_r"], lp_r) <= 1e-10
        return
    # the SFT family's loss forward never sees them: `train` logs a frozen
    # forward of them before its first update, over the batch it draws
    assert set(stats) == {"lp_c"}
    _, log = train(dataclasses.replace(config, steps=1), RECORDS, init_model=params)
    drawn = np.random.default_rng(config.seed).integers(0, len(RECORDS), size=config.batch_size)
    want = np.mean([sequence_logprob(params, RECORDS[i].to_sample().context,
                                     RECORDS[i].rejected).item() for i in drawn])
    assert relative_error(log[0].mean_rejected_logprob, want) <= 1e-10


def test_pruned_positions_match_masked_full_batch():
    # nSFT conversations: follow-up questions are prefix only, no position
    params = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=0)
    views, _ = build_training_views(RECORDS[:4], _config(method="nsft"))
    rows = [v[0] for v in views] + [v[2] for v in views]
    pruned = batch_sft_loss(params, pack(params, rows))
    full = pack(params, [(*row[:3], [True] * len(row[2])) for row in rows])
    mask = np.concatenate([row[3] for row in rows]).astype(np.float64)
    assert 0 < mask.sum() < mask.size
    lp = ad.take_along_rows(batch_logprob_matrix(params, full), full.targets)
    masked = -ad.tsum(ad.mul(lp, Tensor(mask)))
    assert relative_error(pruned.item(), masked.item()) <= 1e-10
    g_pruned = backward(pruned, params.tensors())
    g_masked = backward(masked, params.tensors())
    for t in params.tensors():
        assert np.max(np.abs(g_pruned[t] - g_masked[t])) <= 1e-10 * np.max(np.abs(g_masked[t]))


def test_zero_steps_leaves_params_and_log_empty():
    init = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=3)
    params, log = train(_config(steps=0), RECORDS, init_model=init)
    assert params_hash(params) == params_hash(init)
    assert len(log) == 0


def test_train_bitwise_deterministic():
    p1, log1 = train(_config(method="gt_dpo"), RECORDS)
    p2, log2 = train(_config(method="gt_dpo"), RECORDS)
    assert params_hash(p1) == params_hash(p2)
    assert [(r.loss, r.t1, r.t2) for r in log1] == [(r.loss, r.t1, r.t2) for r in log2]


def test_zero_lr_keeps_params_exactly():
    init = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=3)
    params, log = train(_config(lr=0.0), RECORDS, init_model=init)
    assert params_hash(params) == params_hash(init)
    assert len(log) == 3


def test_gt_dpo_logs_ratio_statistics_and_sft_does_not():
    _, dpo_log = train(_config(method="gt_dpo"), RECORDS)
    assert all(r.t1 is not None and r.t2 is not None and r.p_dpo is not None for r in dpo_log)
    _, sft_log = train(_config(method="cont_sft"), RECORDS)
    assert all(r.t1 is None and r.p_dpo is None for r in sft_log)
    assert all(r.kl_to_reference is not None for r in sft_log)


def test_training_views_constructed_only_for_nsft_methods():
    # every view's rows are its chosen caption, then its rejected caption;
    # nSFT adds the constructed conversation, which opens with a QA turn
    reference = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=0).frozen()
    for method in ("cont_sft", "gt_dpo", "nsft"):
        views, ref_scores = build_training_views(RECORDS, _config(method=method),
                                                 reference=reference)
        samples = [rec.to_sample() for rec in RECORDS]
        if method == "gt_dpo":  # the frozen reference's chosen and rejected sequence log-probs
            want = [[sequence_logprob(reference, s.context, y).item() for y in (s.chosen, s.rejected)]
                    for s in samples]
            assert relative_error(ref_scores, np.array(want)) <= 1e-10
        else:
            assert ref_scores is None
        assert len(views) == len(RECORDS)
        for v, s in zip(views, samples):
            assert np.array_equal(v[0][0], s.context.image_latent)
            assert v[0][1:] == (s.context.question, s.chosen, [True] * len(s.chosen))
            assert v[1][1:] == (s.context.question, s.rejected, [True] * len(s.rejected))
            assert len(v) == (3 if method == "nsft" else 2)
            if method == "nsft":
                assert v[2][1] != s.context.question


def test_gt_dpo_views_without_reference_fail_early():
    with pytest.raises(ValueError, match="reference"):
        build_training_views(RECORDS, _config(method="gt_dpo"))


@pytest.mark.parametrize("method", METHODS)
def test_no_records_fail_before_any_work(method):
    # one message for every method, before a reference is asked for; train's
    # batch draw would otherwise fail with numpy's "high <= 0"
    for run in (lambda: build_training_views([], _config(method=method)),
                lambda: train(_config(method=method), [])):
        with pytest.raises(ValueError, match="^need at least one record$"):
            run()


def test_nsft_at_one_constructed_turn_keeps_every_conversation():
    # at k=1, 12 of these 50 conversations hold only 'No' turns, no 'Yes'
    # turn to balance them; erasing them would leave nothing (and warn)
    records = world.make_preference_dataset(50, 0)
    views, _ = build_training_views(records, _config(method="nsft", construct_k=1))
    assert all(len(v) == 3 for v in views)
    train(TrainConfig(method="nsft", construct_k=1, steps=3, dim=8), records)


def test_each_path_featurizes_a_record_once_per_call(monkeypatch, tmp_path):
    data = tmp_path / "world.jsonl"
    world.write_dataset_jsonl(RECORDS, data)
    calls, real = [], world.featurize
    monkeypatch.setattr(world, "featurize", lambda scene: calls.append(scene) or real(scene))
    params, initial = _eval_models()

    def count(run):
        del calls[:]
        run()
        return len(calls)

    n_eval = len(EVAL_RECORDS)
    assert count(lambda: evaluate_model(params, EVAL_RECORDS, initial_model=initial)) == n_eval
    assert count(lambda: mean_sequence_logprobs(params, RECORDS)) == len(RECORDS)
    assert count(lambda: self_response_records(params, RECORDS)) == len(RECORDS)
    assert count(lambda: build_training_views(RECORDS, _config(method="gt_dpo"),
                                              reference=initial)) == len(RECORDS)
    for method in ("nsft", "nsft_kl"):
        assert count(lambda: build_training_views(RECORDS, _config(method=method))) == len(RECORDS)
    argv = ["construct", "--in", str(data), "--out", str(tmp_path / "c.jsonl")]
    assert count(lambda: dispatch(argv)) == len(RECORDS)
    assert count(lambda: make_base_model(RECORDS, dim=16, steps=20)) <= len(RECORDS)


def test_training_diverges_loudly():
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train(_config(lr=1e18, steps=30), RECORDS)


def test_make_base_model_deterministic():
    records = world.make_preference_dataset(6, 7)
    a = make_base_model(records, dim=16, steps=3)
    b = make_base_model(records, dim=16, steps=3)
    assert params_hash(a) == params_hash(b)


@pytest.mark.parametrize("records, kwargs", [
    (RECORDS, {"steps": -5}),
    (RECORDS, {"batch_size": 0}),
    ([], {"steps": 0}),
])
def test_make_base_model_rejects_bad_arguments(records, kwargs):
    with pytest.raises(ValueError):
        make_base_model(records, dim=16, **kwargs)


def test_self_response_records_contract():
    base = make_base_model(world.make_preference_dataset(6, 7), dim=16, steps=3)
    out = self_response_records(base, RECORDS)
    assert len(out) == len(RECORDS)
    for rec, orig in zip(out, RECORDS):
        assert rec.chosen == orig.chosen
        assert rec.rejected != rec.chosen
        assert rec.corruptions  # either recovered from the decode or inherited
        if rec.rejected != orig.rejected:  # a genuine self-response
            clauses = world.parse_caption(rec.rejected)
            assert len({c.obj for c in clauses}) == len(clauses)
    again = self_response_records(base, RECORDS)
    assert [r.rejected for r in again] == [r.rejected for r in out]


def test_self_response_records_keeps_a_decode_only_when_it_is_a_preference_record(monkeypatch):
    recs = [r for r in RECORDS if len(r.scene.objects) >= 2][:3]
    reordered = recs[0].chosen[4:8] + recs[0].chosen[:4] + recs[0].chosen[8:]
    twice = recs[1].chosen[:4] * 2 + [world.EOS_ID]
    wrong = world.corrupt(recs[2].chosen, 0)[0]
    assert wrong not in (recs[2].chosen, recs[2].rejected)
    monkeypatch.setattr(training, "_decode_records",
                        lambda params, rows, max_decode_len: [reordered, twice, wrong])
    out = self_response_records(None, recs)
    assert out[0] is recs[0] and out[1] is recs[1]
    assert out[2].rejected == wrong
    assert out[2].corruptions == constructor.RuleBasedOracle().identify(wrong, recs[2].chosen)


def test_caption_rows_match_the_caption_conversation_route(tmp_path, monkeypatch):
    path = tmp_path / "world.jsonl"
    world.write_dataset_jsonl(RECORDS, path)
    # a toy base model's decodes seldom parse, so the self-responses are other corruptions
    monkeypatch.setattr(training, "_decode_records", lambda params, rows, max_decode_len:
                        [world.corrupt(rec.chosen, rec.seed + 1)[0] for rec in RECORDS])
    self_response = self_response_records(None, RECORDS)
    assert sum(a.rejected != b.rejected for a, b in zip(self_response, RECORDS)) > 6
    pooled = world.make_preference_dataset(12, 3, object_pool={0, 1, 2, 3})
    for rec in RECORDS + pooled + world.read_dataset_jsonl(path) + self_response:
        context = rec.to_sample().context
        rows = rec.caption_rows()
        assert len(rows) == 2 and rows[0][0] is rows[1][0]  # one latent array
        for row, y in zip(rows, (rec.chosen, rec.rejected)):
            latent, question, answer, mask = context.caption_conversation(y).flatten()
            assert np.array_equal(row[0], latent)
            assert (row[1], row[2], row[3]) == (question, answer, mask)
        chosen, rejected = list(rec.chosen), list(rec.rejected)
        for row in rows:  # the token lists are copies
            row[1].append(0)
            row[2].append(0)
        assert (rec.chosen, rec.rejected) == (chosen, rejected)
        assert rec.caption_rows()[0][1] == world.CAPTION_QUESTION


@pytest.mark.parametrize("max_decode_len", [True, 2.5])
def test_read_path_rejects_a_max_decode_len_that_is_not_an_integer_of_at_least_1(max_decode_len):
    params, initial = _eval_models()
    with pytest.raises(ValueError, match="max_len"):
        evaluate_model(params, RECORDS, initial_model=initial, max_decode_len=max_decode_len)
    with pytest.raises(ValueError, match="max_len"):
        self_response_records(params, RECORDS, max_decode_len=max_decode_len)


def test_mean_sequence_logprobs_matches_manual():
    from prefalign.losses import sequence_logprob

    params = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=1)
    recs = RECORDS[:2]
    c, r = mean_sequence_logprobs(params, recs)
    want_c = np.mean([sequence_logprob(params, x.to_sample().context, x.chosen).item()
                      for x in recs])
    want_r = np.mean([sequence_logprob(params, x.to_sample().context, x.rejected).item()
                      for x in recs])
    assert c == pytest.approx(want_c, abs=1e-12)
    assert r == pytest.approx(want_r, abs=1e-12)


EVAL_RECORDS = world.make_preference_dataset(70, 41)  # more records than one decode chunk


def _eval_models():
    """A dim-16 policy whose captions stop at lengths 1 to 16, and a
    different initial model."""
    params = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=17, scale=1.0)
    params.out.values[:, params.eos_id] += 4.0
    return params, init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=3)


# Recorded from evaluate_model when it decoded in chunks of 8 records and
# ran the policy twice per chunk, once for the KL and once for the scores.
GOLDEN_EVALUATE = {
    "chair_i": 0.8571428571428571,
    "chair_s": 0.08571428571428572,
    "object_recall": 0.006993006993006993,
    "mean_caption_len": 12.414285714285715,
    "mean_chosen_logprob": -385.14581797321716,
    "mean_rejected_logprob": -382.4228877761445,
    "kl_drift": 3.6926864733127833,
}


def test_evaluate_model_matches_golden_bit_for_bit():
    params, initial = _eval_models()
    assert evaluate_model(params, EVAL_RECORDS, initial_model=initial) == GOLDEN_EVALUATE
    captions = _decode_records(params, _caption_rows(EVAL_RECORDS), 16)
    contexts = [rec.to_sample().context for rec in EVAL_RECORDS]
    x = [encode_context(params, c.image_latent, c.question) for c in contexts]
    assert captions == [greedy_decode(params, xi, 16) for xi in x]
    assert len({len(c) for c in captions}) > 2


# sha256 of evaluate_model's report and of the decoded captions on a
# pretrained model, recorded before caption rows were built without
# `to_sample()` and decoding without `np.add.at`: the read path's outputs
# bit for bit. Every caption there is 3-5 tokens long, <eos> included.
READ_PATH_SHA256 = {
    "evaluate": "2ffbcb2157871482db14842a3b0879b7bbdd416801b7fc7d796f9f5073ebbd79",
    "decode": "757aac555ae3ab7a67b77e009a406b72bb39c2e3a84ad5f94c98410b881c3d8c",
}


def test_read_path_outputs_match_recorded_sha256():
    base = make_base_model(world.make_preference_dataset(200, 999), dim=16, steps=1000)
    initial = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=3)
    evals = world.make_preference_dataset(100, 7)
    report = json.dumps(evaluate_model(base, evals, initial_model=initial), sort_keys=True)
    captions = json.dumps(_decode_records(base, _caption_rows(evals), 16))
    assert {"evaluate": hashlib.sha256(report.encode()).hexdigest(),
            "decode": hashlib.sha256(captions.encode()).hexdigest()} == READ_PATH_SHA256


def test_kl_drift_is_mean_per_record_per_token_kl():
    params, initial = _eval_models()
    kl_drift = evaluate_model(params, EVAL_RECORDS, initial_model=initial)["kl_drift"]
    want = np.mean([per_token_kl(params, rec.to_sample().context, rec.chosen, initial).item()
                    for rec in EVAL_RECORDS])
    assert kl_drift == pytest.approx(want, rel=1e-12)


def test_scoring_no_records_fails_loudly():
    params, _ = _eval_models()
    for score in (lambda: evaluate_model(params, [], params), lambda: mean_sequence_logprobs(params, [])):
        with pytest.raises(ValueError, match="need at least one record"):
            score()


def test_silent_model_reports_no_chair_i():
    # a model that names no object must not score a perfect chair_i of 0.0
    params = init_params(world.VOCAB_SIZE, 16, world.latent_dim(), seed=2)
    params.out.values[:, world.EOS_ID] += 50.0
    chosen_rows = [chosen for chosen, _ in _caption_rows(RECORDS[:4])]
    assert greedy_decode_batch(params, chosen_rows, 16) == [[world.EOS_ID]] * 4
    ev = evaluate_model(params, RECORDS[:4], initial_model=params)
    assert ev["chair_i"] is None and ev["chair_s"] == 0.0
    assert ev["object_recall"] == 0.0 and ev["mean_caption_len"] == 0.0


def test_experiment_trains_each_recipe_in_the_table(monkeypatch):
    """`run_experiment` trains every `METHODS` entry that has a recipe, in
    table order, at the recipe's settings and the spec's shared sizes."""
    configs, real_train = [], training.train
    monkeypatch.setattr(training, "train", lambda config, *args, **kwargs:
                        configs.append(config) or real_train(config, *args, **kwargs))
    run_experiment(ExperimentSpec(seed=3, train_n=3, steps=2, dim=8, n_blocks=1, batch_size=2,
                                  eval_n=2, pretrain_n=4, pretrain_steps=1))
    assert [(c.method, c.lr, c.beta, c.kl_weight) for c in configs] == [
        ("cont_sft", 1e-2, 0.1, 0.1), ("gt_dpo", 5e-4, 2.0, 0.1), ("nsft", 2e-3, 0.1, 0.1),
        ("sft_kl", 1e-2, 0.1, 1.0)]
    shared = {(c.steps, c.dim, c.n_blocks, c.seed, c.batch_size) for c in configs}
    assert shared == {(2, 8, 1, 3, 2)}
    with redirect_stdout(io.StringIO()) as out:
        assert dispatch(["train", "--help"]) == 0
    choices = re.search(r"--method \{(.+?)\}", out.getvalue()).group(1)
    assert tuple(choices.split(",")) == tuple(METHODS)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(object_pool_size=0)
    with pytest.raises(ValueError):
        ExperimentSpec(object_pool_size=len(world.OBJECTS) + 1)
    with pytest.raises(ValueError, match="ExperimentSpec.n_blocks"):
        ExperimentSpec(n_blocks=-1)
    for name, value in (("train_n", 2.5), ("seed", True), ("object_pool_size", 3.0),
                        ("pretrain_steps", np.float64(2))):
        with pytest.raises(ValueError, match=rf"ExperimentSpec.{name} must be an integer, got "):
            ExperimentSpec(**{name: value})
    assert ExperimentSpec(train_n=np.int64(2), object_pool_size=np.int8(3)).train_n == 2


def test_run_experiment_tiny_smoke():
    spec = ExperimentSpec(train_n=3, steps=2, dim=16, eval_n=3, eval_seed=5,
                          pretrain_n=6, pretrain_steps=3, batch_size=4)
    result = run_experiment(spec)
    assert set(result["methods"]) == {"cont_sft", "gt_dpo", "nsft", "sft_kl"}
    for entry in result["methods"].values():
        assert math.isfinite(entry["train_delta_chosen_logprob"])
        assert 0.0 <= entry["eval"]["chair_s"] <= 1.0
    assert 0.0 <= result["methods"]["gt_dpo"]["fraction_ratio_below_1"] <= 1.0
    assert 0 <= result["n_self_response"] <= 3
