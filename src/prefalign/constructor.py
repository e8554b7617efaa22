"""Negative-supervision construction: the caption diff between the
rejected and chosen responses becomes corrective conversation turns.

The rule-based oracle is exact by construction on the synthetic world,
and everything downstream of it is deterministic.
"""

from __future__ import annotations

import numpy as np

from . import world
from .data import Conversation, Turn
from .world import (
    CAT_COLOR,
    CAT_COUNT,
    CAT_FABRICATION,
    CAT_OMISSION,
    CAT_OBJECT_SWAP,
    COLORS,
    COUNT_WORDS,
    EOS_ID,
    OBJECTS,
    TOKEN_TO_ID,
    diff_captions,
    parse_caption,
)

__all__ = [
    "RuleBasedOracle",
    "qa_turns_from_clauses",
    "construct_conversation",
    "balance_yes_no",
    "conversation_to_llava_record",
]

_YES = TOKEN_TO_ID["yes"]
_NO = TOKEN_TO_ID["no"]


class RuleBasedOracle:
    """Deterministic error identifier for synthetic captions.

    The errors of y_r are the `world.Corruption`s of the clause-level
    diff against y_c, one of `world.CORRUPTION_CATEGORIES` each; on
    synthetic data this recovers injected corruptions with precision =
    recall = 1.
    """

    def identify(self, y_r, y_c):
        if list(y_r) == list(y_c):
            return []
        return diff_captions(parse_caption(y_c), parse_caption(y_r))


# ---------------------------------------------------------------------------
# conversation construction (token-level templates over the synthetic vocab)


def _q_exists(obj):
    return world.words_to_tokens(["is", "there", "a", OBJECTS[obj], "?"])


def _q_color(obj):
    return world.words_to_tokens(["what", "color", "is", "the", OBJECTS[obj], "?"])


def _q_count(obj):
    return world.words_to_tokens(["how", "many", OBJECTS[obj], "?"])


def _a(words):
    return world.words_to_tokens(words) + [EOS_ID]


def _corrective_turn(error: world.Corruption):
    cat = error.category
    if cat in (CAT_FABRICATION, CAT_OBJECT_SWAP):
        return Turn(_q_exists(error.replacement[0]), _a(["no"]))
    if cat == CAT_OMISSION:
        return Turn(_q_exists(error.original[0]), _a(["yes"]))
    if cat == CAT_COLOR:
        obj, color, _ = error.original
        return Turn(_q_color(obj), _a([COLORS[color]]))
    if cat == CAT_COUNT:
        obj, _, count = error.original
        return Turn(_q_count(obj), _a([COUNT_WORDS[count - 1]]))
    raise ValueError(f"no template for category {cat!r}")


def _gt_turns(scene):
    """Endless GT-grounded turn supply cycling per-object facts."""
    while True:
        for o in scene.objects:
            yield Turn(_q_exists(o.obj), _a(["yes"]))
            yield Turn(_q_color(o.obj), _a([COLORS[o.color]]))
            yield Turn(_q_count(o.obj), _a([COUNT_WORDS[o.count - 1]]))


# token tables of the QA templates, by object, color and count - 1
_Q_EXISTS = [_q_exists(o) for o in range(len(OBJECTS))]
_Q_COLOR = [_q_color(o) for o in range(len(OBJECTS))]
_Q_COUNT = [_q_count(o) for o in range(len(OBJECTS))]
_A_YES, _A_NO = _a(["yes"]), _a(["no"])
_A_COLOR = [_a([c]) for c in COLORS]
_A_COUNT = [_a([w]) for w in COUNT_WORDS]


def _table_turn(question, answer):
    return Turn(list(question), list(answer))  # copies: a turn must not alias a table


def qa_turns_from_clauses(clauses, rng, n):
    """n random QA turns consistent with a clause list (a believed scene).

    Existence questions split between present objects ('yes') and absent
    ones ('no'); color/count questions quote the clause attributes.
    """
    turns = []
    present = sorted({cl.obj for cl in clauses})
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            if rng.random() < 0.5:
                turns.append(_table_turn(_Q_EXISTS[present[int(rng.integers(len(present)))]],
                                         _A_YES))
            else:
                absent = [o for o in range(len(OBJECTS)) if o not in present]
                turns.append(_table_turn(_Q_EXISTS[absent[int(rng.integers(len(absent)))]], _A_NO))
        elif kind == 1:
            cl = clauses[int(rng.integers(0, len(clauses)))]
            turns.append(_table_turn(_Q_COLOR[cl.obj], _A_COLOR[cl.color]))
        else:
            cl = clauses[int(rng.integers(0, len(clauses)))]
            turns.append(_table_turn(_Q_COUNT[cl.obj], _A_COUNT[cl.count - 1]))
    return turns


def construct_conversation(errors, scene, image_latent, k=5):
    """Build a k-turn corrective conversation over `image_latent`, the
    latent of `scene`.

    One corrective turn per identified error (caption style), then
    GT-grounded filler turns up to k; with no errors all k turns come
    from the ground truth.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    turns = [_corrective_turn(e) for e in errors]
    supply = _gt_turns(scene)
    while len(turns) < k:
        turns.append(next(supply))
    return Conversation(image_latent, turns)


def _is_yes_no(turn):
    a = turn.answer
    return len(a) >= 1 and a[0] in (_YES, _NO)


def balance_yes_no(conversation, target_low, target_high, seed):
    """Randomly erase 'No' turns until the yes-fraction among yes/no
    turns lands in [target_low, target_high].

    Only 'No' turns are ever removed, so a conversation with no 'Yes'
    turn, or with its yes-fraction above the band, is left as it is;
    deterministic in the seed.
    """
    if not (0.0 <= target_low <= target_high <= 1.0):
        raise ValueError("need 0 <= target_low <= target_high <= 1")
    rng = np.random.default_rng(int(seed))
    turns = list(conversation.turns)
    while True:
        answers = [t.answer[0] for t in turns if _is_yes_no(t)]
        n_yes = answers.count(_YES)
        if not n_yes or n_yes / len(answers) >= target_low:
            break
        no_turns = [i for i, t in enumerate(turns) if _is_yes_no(t) and t.answer[0] == _NO]
        turns.pop(int(rng.choice(no_turns)))
    return Conversation(conversation.image_latent, turns)


# ---------------------------------------------------------------------------
# LLaVA-style JSONL interchange


def conversation_to_llava_record(conversation, record_id, image_ref):
    convs = []
    for turn in conversation.turns:
        convs.append({"from": "human", "value": " ".join(world.tokens_to_words(turn.question))})
        convs.append({"from": "gpt", "value": " ".join(world.tokens_to_words(turn.answer))})
    return {"id": record_id, "image_ref": image_ref, "conversations": convs}
