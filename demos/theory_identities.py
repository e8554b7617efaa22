"""Walk through the loss and gradient identities numerically.

Shows, on random tiny models:
  1. the reference-free preference logit equals the difference of two
     SFT losses,
  2. the preference-loss gradient is a positive scalar times the
     difference of the chosen/rejected SFT gradients,
  3. the update-rate ratio |dL/dt1| / |dL/dt2| equals t2/t1, so the
     lower-probability side of a pair always moves faster.

Run: python3 demos/theory_identities.py
"""

import math

import numpy as np

from prefalign.autodiff import backward
from prefalign.checks import tiny_instance
from prefalign.losses import dpo_logit, dpo_loss, sft_loss
from prefalign.theory import RatioPoint, dpo_partials, update_rate_ratio


def main():
    print("1) preference logit as an SFT-loss difference")
    for seed in range(3):
        policy, _, sample = tiny_instance(seed)
        p = dpo_logit(policy, sample).item()
        l_c = sft_loss(policy, sample.context, sample.chosen).item()
        l_r = sft_loss(policy, sample.context, sample.rejected).item()
        print(f"   seed {seed}: p = {p:+.6f}   -(L_c - L_r) = {-(l_c - l_r):+.6f}"
              f"   |diff| = {abs(p + l_c - l_r):.2e}")

    print("\n2) preference gradient = scalar * (grad SFT_chosen - grad SFT_rejected)")
    policy, reference, sample = tiny_instance(11)
    beta = 0.5
    p = dpo_logit(policy, sample, reference).item()
    scale = beta / (1.0 + math.exp(beta * p))
    g_dpo = backward(dpo_loss(policy, sample, beta, reference), policy.tensors())
    g_c = backward(sft_loss(policy, sample.context, sample.chosen), policy.tensors())
    g_r = backward(sft_loss(policy, sample.context, sample.rejected), policy.tensors())
    worst = max(float(np.max(np.abs(g_dpo[t] - scale * (g_c[t] - g_r[t]))))
                for t in policy.tensors())
    print(f"   scalar = beta * sigma(-beta p) = {scale:.6f}")
    print(f"   max |grad_dpo - scalar * (grad_c - grad_r)| = {worst:.2e}")

    print("\n3) update-rate ratio: the rarer sequence moves faster")
    for t1, t2 in [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)]:
        pt = RatioPoint(t1, t2, beta=1.0)
        d1, d2 = dpo_partials(pt)
        print(f"   t1={t1:.1f} t2={t2:.1f}: |dL/dt1|/|dL/dt2| = "
              f"{update_rate_ratio(pt):.4f}  (t2/t1 = {t2 / t1:.4f}; "
              f"dL/dt1={d1:+.4f}, dL/dt2={d2:+.4f})")
    print("   with t2 < t1 the ratio is below 1: the chosen sequence is")
    print("   reinforced more slowly than the rejected one is suppressed.")


if __name__ == "__main__":
    main()
