"""prefalign: a desk-scale laboratory for preference-alignment analysis.

Verifies the loss and gradient relations between DPO-style preference
optimization and supervised finetuning on an exactly-differentiable toy
vision-language model, and implements negative supervised finetuning
(nSFT): the caption diff between a rejected and a chosen response names
its errors, one of `world.CORRUPTION_CATEGORIES` each, and every error
becomes a corrective question-answer turn.
"""

from .autodiff import Tensor, backward, finite_diff, relative_error
from .data import Conversation, InputContext, PreferenceSample, TrajectoryLog, Turn
from .losses import (
    DpoConfig,
    bt_probability,
    dpo_logit,
    dpo_logit_noref,
    dpo_loss,
    implicit_reward,
    nsft_loss,
    per_token_kl,
    sft_loss,
)
from .metrics import CaptionEval, chair
from .model import ModelParams, encode_context, greedy_decode, init_params, token_logprobs
from .theory import RatioPoint, bias_trajectory_report, dpo_loss_t, dpo_partials, update_rate_ratio
from .training import (
    ExperimentSpec,
    TrainConfig,
    cosine_lr,
    make_base_model,
    run_experiment,
    self_response_records,
    train,
)
from .world import Scene, corrupt, generate_scene, make_preference_dataset, render_caption

__version__ = "0.1.0"
