"""Small-scale continual-alignment comparison.

Pretrains a toy captioner with deliberate hallucination habits, then
continues training on a narrow slice of the world with four methods
(plain SFT, preference training on ground-truth pairs, negative-
supervision SFT, and KL-regularized SFT) and prints held-out
hallucination rates and drift.

This is a fast, scaled-down cousin of the full seeded experiment
(`prefalign experiment`, ~30 s); it runs in about 11 s and
the held-out orderings at this size are noisier (the log-prob movement
contrasts are the stable part).

Run: python3 demos/continual_alignment.py
"""

from prefalign import world
from prefalign.training import ExperimentSpec, run_experiment


def _chair(value):
    """chair_i is None when no caption names an object."""
    return "n/a" if value is None else f"{value:.3f}"


def main():
    spec = ExperimentSpec(train_n=250, steps=250, dim=48, eval_n=300,
                          pretrain_n=1000, pretrain_steps=4000)
    print("pretraining base model and running four methods...")
    result = run_experiment(spec)
    base = result["base_eval"]
    print(f"\nbase model: chair_i={_chair(base['chair_i'])} recall={base['object_recall']:.3f} "
          f"mean logp chosen/rejected = {base['mean_chosen_logprob']:.2f} / "
          f"{base['mean_rejected_logprob']:.2f}")
    print(f"self-response negatives used: {result['n_self_response']}/{spec.train_n}")

    print(f"\n{'method':10s} {'chair_i':>8s} {'recall':>7s} {'kl_drift':>9s} "
          f"{'d_chosen':>9s} {'d_rejected':>11s}")
    for method, entry in result["methods"].items():
        ev = entry["eval"]
        print(f"{method:10s} {_chair(ev['chair_i']):>8s} {ev['object_recall']:7.3f} {ev['kl_drift']:9.4f} "
              f"{entry['train_delta_chosen_logprob']:+9.3f} "
              f"{entry['train_delta_rejected_logprob']:+11.3f}")
    frac = result["methods"]["gt_dpo"]["fraction_ratio_below_1"]
    print(f"\ngt_dpo update-rate ratio below 1 on {frac:.0%} of post-warmup steps:")
    print("preference training pushes the rejected side down faster than it")
    print("lifts the chosen side, while negative supervision does the reverse.")


if __name__ == "__main__":
    main()
