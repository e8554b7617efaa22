"""Negative-supervision construction: the caption diff between the
rejected and chosen responses becomes corrective conversation turns.

The rule-based oracle is exact by construction on the synthetic world,
and everything downstream of it is deterministic.
"""

from __future__ import annotations

import numpy as np

from . import world
from .data import Conversation, Turn, flatten_pairs
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
    "qa_row",
    "construct_conversation",
    "balance_yes_no",
    "nsft_conversation",
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


def _a(words):
    return world.words_to_tokens(words) + [EOS_ID]


# token tables of the QA templates, by object, color and count - 1
_Q_EXISTS = [world.words_to_tokens(["is", "there", "a", o, "?"]) for o in OBJECTS]
_Q_COLOR = [world.words_to_tokens(["what", "color", "is", "the", o, "?"]) for o in OBJECTS]
_Q_COUNT = [world.words_to_tokens(["how", "many", o, "?"]) for o in OBJECTS]
_A_YES, _A_NO = _a(["yes"]), _a(["no"])
_A_COLOR = [_a([c]) for c in COLORS]
_A_COUNT = [_a([w]) for w in COUNT_WORDS]


def _table_turn(question, answer):
    return Turn(list(question), list(answer))  # copies: a turn must not alias a table


def _corrective_turn(error: world.Corruption):
    cat = error.category
    if cat in (CAT_FABRICATION, CAT_OBJECT_SWAP):
        return _table_turn(_Q_EXISTS[error.replacement[0]], _A_NO)
    if cat == CAT_OMISSION:
        return _table_turn(_Q_EXISTS[error.original[0]], _A_YES)
    if cat == CAT_COLOR:
        obj, color, _ = error.original
        return _table_turn(_Q_COLOR[obj], _A_COLOR[color])
    if cat == CAT_COUNT:
        obj, _, count = error.original
        return _table_turn(_Q_COUNT[obj], _A_COUNT[count - 1])
    raise ValueError(f"no template for category {cat!r}")


def _gt_turns(scene):
    """Endless GT-grounded turn supply cycling per-object facts."""
    while True:
        for o in scene.objects:
            yield _table_turn(_Q_EXISTS[o.obj], _A_YES)
            yield _table_turn(_Q_COLOR[o.obj], _A_COLOR[o.color])
            yield _table_turn(_Q_COUNT[o.obj], _A_COUNT[o.count - 1])


def _qa_pairs(clauses, rng, n):
    """The (question, answer) token tables of n random QA turns consistent
    with a clause list (a believed scene), drawn lazily in a fixed order.

    Existence questions split between present objects ('yes') and absent
    ones ('no'); color/count questions quote the clause attributes. The
    tables are shared, so a consumer copies what it keeps.
    """
    present = sorted({cl.obj for cl in clauses})
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            if rng.random() < 0.5:
                yield _Q_EXISTS[present[int(rng.integers(len(present)))]], _A_YES
            else:  # the obj-th absent object: step past each present one at or below it
                obj = int(rng.integers(len(OBJECTS) - len(present)))
                for o in present:
                    if o > obj:
                        break
                    obj += 1
                yield _Q_EXISTS[obj], _A_NO
        elif kind == 1:
            cl = clauses[int(rng.integers(0, len(clauses)))]
            yield _Q_COLOR[cl.obj], _A_COLOR[cl.color]
        else:
            cl = clauses[int(rng.integers(0, len(clauses)))]
            yield _Q_COUNT[cl.obj], _A_COUNT[cl.count - 1]


def qa_turns_from_clauses(clauses, rng, n):
    """n random QA turns consistent with a clause list (a believed scene);
    see `_qa_pairs` for the draws."""
    return [_table_turn(q, a) for q, a in _qa_pairs(clauses, rng, n)]


def qa_row(image_latent, clauses, rng, n):
    """The model-input row of `Conversation(image_latent,
    qa_turns_from_clauses(clauses, rng, n)).flatten()`, from the same draws
    and with no `Turn` built; `image_latent` is passed through as given."""
    return flatten_pairs(image_latent, _qa_pairs(clauses, rng, n))


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


def balance_yes_no(conversation, yes_floor, seed):
    """Randomly erase 'No' turns until 'Yes' answers make up at least
    `yes_floor` of the yes/no turns.

    Each erasure raises the yes share, and erasing stops at the first
    share at or above the floor, so the share may end above it: this is
    a floor, not a band. Only 'No' turns are ever erased, so a
    conversation with no 'Yes' turn, or already at the floor, is left as
    it is. Deterministic in the seed; raises ValueError unless
    0 <= yes_floor <= 1.
    """
    if not 0.0 <= yes_floor <= 1.0:
        raise ValueError(f"need 0 <= yes_floor <= 1, got {yes_floor}")
    rng = np.random.default_rng(int(seed))
    turns = list(conversation.turns)
    while True:
        answers = [t.answer[0] for t in turns if _is_yes_no(t)]
        n_yes = answers.count(_YES)
        if not n_yes or n_yes / len(answers) >= yes_floor:
            break
        no_turns = [i for i, t in enumerate(turns) if _is_yes_no(t) and t.answer[0] == _NO]
        turns.pop(int(rng.choice(no_turns)))
    return Conversation(conversation.image_latent, turns)


def nsft_conversation(record, image_latent, k, yes_floor, seed):
    """The constructed conversation nSFT trains on for a `world.PreferenceRecord`:
    one corrective turn per oracle-identified error of its rejected caption,
    filled to k turns over `image_latent` (its scene's latent), then yes/no
    balanced to `yes_floor` with `seed`."""
    errors = RuleBasedOracle().identify(record.rejected, record.chosen)
    conv = construct_conversation(errors, record.scene, image_latent, k=k)
    return balance_yes_no(conv, yes_floor, seed=seed)


# ---------------------------------------------------------------------------
# LLaVA-style JSONL interchange


def conversation_to_llava_record(conversation, record_id, image_ref):
    convs = []
    for turn in conversation.turns:
        convs.append({"from": "human", "value": " ".join(world.tokens_to_words(turn.question))})
        convs.append({"from": "gpt", "value": " ".join(world.tokens_to_words(turn.answer))})
    return {"id": record_id, "image_ref": image_ref, "conversations": convs}
