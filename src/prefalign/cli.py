"""Command-line entry point.

All randomness flows from explicit --seed flags; identical invocations
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, metrics, training, world
from .constructor import (
    RuleBasedOracle,
    balance_yes_no,
    construct_conversation,
    conversation_to_llava_record,
)
from .data import write_jsonl
from .model import load_checkpoint, save_checkpoint

# ExperimentSpec fields exposed as `experiment` flags, at the spec's defaults
_EXPERIMENT_FLAGS = ("seed", "train_n", "steps", "dim", "object_pool_size", "eval_n",
                     "eval_seed", "pretrain_n", "pretrain_steps")


def _build_parser():
    parser = argparse.ArgumentParser(prog="prefalign",
                                     description="preference-alignment desk laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-theory", help="run the loss/gradient identity suite")
    p.add_argument("--seeds", type=int, default=100)

    p = sub.add_parser("gen-world", help="generate a synthetic preference dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("construct", help="build negative-supervision conversations")
    p.add_argument("--in", dest="input", required=True, help="dataset JSONL from gen-world")
    p.add_argument("--out", required=True, help="LLaVA-style conversation JSONL")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--mode", choices=["append", "concat_separate"], default="concat_separate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--balance-low", type=float, default=0.4)
    p.add_argument("--balance-high", type=float, default=0.6)

    p = sub.add_parser("train", help="train one continual-alignment method")
    p.add_argument("--config", help="JSON file of TrainConfig overrides")
    p.add_argument("--data", required=True, help="dataset JSONL from gen-world")
    p.add_argument("--method", choices=training.METHODS)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--kl-weight", type=float)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log-csv", help="trajectory CSV path")

    p = sub.add_parser("experiment", help="full continual-alignment comparison")
    spec = training.ExperimentSpec()
    for name in _EXPERIMENT_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(spec, name))
    p.add_argument("--base-ckpt", help="existing base checkpoint; skips pretraining")
    p.add_argument("--save-base", help="write the pretrained base checkpoint here")
    p.add_argument("--out", required=True, help="experiment report JSON")

    p = sub.add_parser("chair", help="CHAIR metrics from caption evals JSONL")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_check_theory(args):
    results = checks.run_all_checks(seeds=args.seeds)
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_gen_world(args):
    records = world.make_preference_dataset(args.n, args.seed)
    world.write_dataset_jsonl(records, args.out)
    print(f"wrote {len(records)} samples to {args.out}")
    return 0


def _cmd_construct(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    records = world.read_dataset_jsonl(args.input)
    oracle = RuleBasedOracle()
    out_records = []
    for rec in records:
        sample = rec.to_sample()
        errors = oracle.identify(rec.rejected, rec.chosen)
        conv = construct_conversation(errors, rec.scene, sample.context.image_latent, k=args.k)
        conv = balance_yes_no(conv, args.balance_low, args.balance_high, seed=args.seed + rec.seed)
        gt = sample.caption_conversation(rec.chosen)
        image_ref = f"seed://{rec.seed}"
        if args.mode == "append":  # short-answer style: one conversation, GT turns first
            gt.turns.extend(conv.turns)
            out_records.append(conversation_to_llava_record(gt, f"scene-{rec.seed}", image_ref))
        else:  # caption style: the two conversations the nSFT loss consumes separately
            out_records.append(conversation_to_llava_record(gt, f"scene-{rec.seed}/gt", image_ref))
            out_records.append(conversation_to_llava_record(conv, f"scene-{rec.seed}/constructed",
                                                            image_ref))
    write_jsonl(out_records, args.out)
    print(f"wrote {len(out_records)} conversations to {args.out}")
    return 0


def _load_train_config(args):
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides.update(json.load(fh))
    for key in ("method", "steps", "seed", "beta", "kl_weight"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    if "yes_no_band" in overrides:
        overrides["yes_no_band"] = tuple(overrides["yes_no_band"])
    return training.TrainConfig(**overrides)


def _cmd_train(args):
    config = _load_train_config(args)
    records = world.read_dataset_jsonl(args.data)
    params, log = training.train(config, records)
    save_checkpoint(params, args.out)
    if args.log_csv:
        training.write_trajectory_log_csv(log, args.log_csv)
    print(f"trained {config.method} for {config.steps} steps; checkpoint at {args.out}")
    return 0


def _cmd_experiment(args):
    spec = training.ExperimentSpec(**{name: getattr(args, name) for name in _EXPERIMENT_FLAGS})
    if args.base_ckpt:
        base = load_checkpoint(args.base_ckpt)
    else:
        base = training.pretrain_base(spec)
        if args.save_base:
            save_checkpoint(base, args.save_base)
    result = training.run_experiment(spec, base_model=base)
    training.write_experiment_json(result, args.out)
    print(f"experiment report written to {args.out}")
    return 0


def _cmd_chair(args):
    evals = metrics.read_caption_evals_jsonl(args.input)
    result = metrics.chair(evals)
    metrics.write_chair_csv(result, args.out)
    print(f"chair metrics written to {args.out}")
    return 0


_COMMANDS = {
    "check-theory": _cmd_check_theory,
    "gen-world": _cmd_gen_world,
    "construct": _cmd_construct,
    "train": _cmd_train,
    "experiment": _cmd_experiment,
    "chair": _cmd_chair,
}


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


def main():
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
