"""Negative-supervision construction: error identification against the
vision error codebook plus corrective-conversation building.

Two oracle routes exist: a deterministic rule-based oracle for the
synthetic world (exact by construction) and an external LLM client for
real data (see llm_client). Everything downstream of the oracle is
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import world
from .data import Conversation, Turn, read_jsonl, write_jsonl
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
    render_caption,
)

__all__ = [
    "CodebookCategory",
    "ErrorCodebook",
    "IdentifiedError",
    "RuleBasedOracle",
    "identify_errors",
    "qa_turns_from_clauses",
    "construct_conversation",
    "ocrvqa_pairs",
    "balance_yes_no",
    "assemble_nsft_sample",
    "load_default_codebook",
    "load_prompt_template",
    "conversation_to_llava_record",
    "write_llava_jsonl",
    "read_llava_jsonl",
]

_YES = TOKEN_TO_ID["yes"]
_NO = TOKEN_TO_ID["no"]


@dataclass(frozen=True)
class CodebookCategory:
    name: str
    level: str  # "instance" | "image"
    description: str


@dataclass
class ErrorCodebook:
    categories: list
    version: int = 1

    def __post_init__(self):
        if not self.categories:
            raise ValueError("codebook must not be empty")
        names = [c.name for c in self.categories]
        if len(set(names)) != len(names):
            raise ValueError("codebook category names must be unique")

    def names(self):
        return {c.name for c in self.categories}

    @classmethod
    def from_dict(cls, d):
        return cls(
            categories=[CodebookCategory(c["name"], c["level"], c["description"]) for c in d["categories"]],
            version=d.get("version", 1),
        )


def load_default_codebook():
    text = resources.files("prefalign.assets").joinpath("codebook.json").read_text()
    return ErrorCodebook.from_dict(json.loads(text))


def load_prompt_template():
    return resources.files("prefalign.assets").joinpath("prompt_template.txt").read_text()


@dataclass
class IdentifiedError:
    category: str
    span: tuple          # token range [start, end) in y_r
    correction: tuple | None  # corrected (obj, color, count), None for fabrication
    evidence: tuple      # token range [start, end) in y_c backing the correction
    wrong_value: tuple | None = None  # offending (obj, color, count) if any


class RuleBasedOracle:
    """Deterministic error identifier for synthetic captions.

    Parses both captions and classifies the clause-level diff against
    the codebook; on synthetic data this recovers injected corruptions
    with precision = recall = 1.
    """

    def identify(self, y_r, y_c, codebook: ErrorCodebook):
        if list(y_r) == list(y_c):
            return []
        chosen = parse_caption(y_c)
        rejected = parse_caption(y_r)
        corruptions = diff_captions(chosen, rejected)
        known = codebook.names()
        errors = []
        for corr in corruptions:
            if corr.category not in known:
                raise ValueError(f"category {corr.category!r} missing from codebook")
            errors.append(self._to_error(corr, chosen, rejected))
        return errors

    @staticmethod
    def _clause_index(clauses, obj):
        for i, cl in enumerate(clauses):
            if cl.obj == obj:
                return i
        return None

    def _to_error(self, corr, chosen, rejected):
        cat = corr.category
        if cat == CAT_FABRICATION:
            j = self._clause_index(rejected, corr.replacement[0])
            return IdentifiedError(cat, span=(4 * j, 4 * j + 3), correction=None,
                                   evidence=(0, 0), wrong_value=corr.replacement)
        i = corr.target_index
        evidence = (4 * i, 4 * i + 3)
        if cat == CAT_OMISSION:
            # nothing to point at in y_r: zero-length span at its end
            end = len(list(rejected)) * 4
            return IdentifiedError(cat, span=(end, end), correction=corr.original,
                                   evidence=evidence, wrong_value=None)
        j = self._clause_index(rejected, corr.replacement[0])
        if cat == CAT_OBJECT_SWAP:
            span = (4 * j + 2, 4 * j + 3)  # the object token
        elif cat == CAT_COLOR:
            span = (4 * j + 1, 4 * j + 2)  # the color token
        else:  # CAT_COUNT
            span = (4 * j, 4 * j + 1)      # the count token
        return IdentifiedError(cat, span=span, correction=corr.original,
                               evidence=evidence, wrong_value=corr.replacement)


def identify_errors(oracle, y_r, y_c, codebook: ErrorCodebook):
    """Run an error oracle; every returned error cites a codebook category."""
    errors = oracle.identify(y_r, y_c, codebook)
    known = codebook.names()
    for e in errors:
        if e.category not in known:
            raise ValueError(f"oracle returned unknown category {e.category!r}")
    return errors


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


def _corrective_turn(error: IdentifiedError):
    cat = error.category
    if cat == CAT_FABRICATION:
        return Turn(_q_exists(error.wrong_value[0]), _a(["no"]))
    if cat == CAT_OMISSION:
        return Turn(_q_exists(error.correction[0]), _a(["yes"]))
    if cat == CAT_OBJECT_SWAP:
        return Turn(_q_exists(error.wrong_value[0]), _a(["no"]))
    if cat == CAT_COLOR:
        obj, color, _ = error.correction
        return Turn(_q_color(obj), _a([COLORS[color]]))
    if cat == CAT_COUNT:
        obj, _, count = error.correction
        return Turn(_q_count(obj), _a([COUNT_WORDS[count - 1]]))
    raise ValueError(f"no template for category {cat!r}")


def _gt_turns(scene):
    """Endless GT-grounded turn supply cycling per-object facts."""
    while True:
        for o in scene.objects:
            yield Turn(_q_exists(o.obj), _a(["yes"]))
            yield Turn(_q_color(o.obj), _a([COLORS[o.color]]))
            yield Turn(_q_count(o.obj), _a([COUNT_WORDS[o.count - 1]]))


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
                turns.append(Turn(_q_exists(present[int(rng.integers(len(present)))]), _a(["yes"])))
            else:
                absent = [o for o in range(len(OBJECTS)) if o not in present]
                turns.append(Turn(_q_exists(absent[int(rng.integers(len(absent)))]), _a(["no"])))
        elif kind == 1:
            cl = clauses[int(rng.integers(0, len(clauses)))]
            turns.append(Turn(_q_color(cl.obj), _a([COLORS[cl.color]])))
        else:
            cl = clauses[int(rng.integers(0, len(clauses)))]
            turns.append(Turn(_q_count(cl.obj), _a([COUNT_WORDS[cl.count - 1]])))
    return turns


def construct_conversation(errors, y_c, scene, k=5):
    """Build a k-turn corrective conversation.

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
    return Conversation(world.featurize(scene), turns, provenance="constructed")


def ocrvqa_pairs(wrong_answer, correct_answer):
    """Doubled Q/A pairs for a short-answer mistake: affirm the correct
    class, deny the predicted one."""
    if wrong_answer == correct_answer:
        raise ValueError("answers must differ")
    return [
        (f"Is this a {correct_answer} book?", "Yes"),
        (f"Is this a {wrong_answer} book?", "No"),
    ]


def _is_yes_no(turn):
    a = turn.answer
    return len(a) >= 1 and a[0] in (_YES, _NO)


def balance_yes_no(conversation, target_low, target_high, seed):
    """Randomly erase 'No' turns until the yes-fraction among yes/no
    turns lands in [target_low, target_high] or no 'No' turns remain.

    'Yes' turns and non-yes/no turns are never removed; deterministic
    in the seed.
    """
    if not (0.0 <= target_low <= target_high <= 1.0):
        raise ValueError("need 0 <= target_low <= target_high <= 1")
    rng = np.random.default_rng(int(seed))
    turns = list(conversation.turns)

    def yes_fraction(ts):
        yn = [t for t in ts if _is_yes_no(t)]
        if not yn:
            return None
        return sum(1 for t in yn if t.answer[0] == _YES) / len(yn)

    while True:
        frac = yes_fraction(turns)
        no_turns = [i for i, t in enumerate(turns) if _is_yes_no(t) and t.answer[0] == _NO]
        if frac is None or target_low <= frac <= target_high or not no_turns:
            break
        if frac > target_high:
            break  # only 'No' removal is allowed; overshoot is left as-is
        turns.pop(int(rng.choice(no_turns)))
    return Conversation(conversation.image_latent, turns, provenance=conversation.provenance)


def assemble_nsft_sample(gt_conversation, constructed, mode):
    """Combine GT and constructed turns for training.

    append: one conversation with constructed turns after the GT ones
    (short-answer style). concat_separate: the (gt, constructed) pair
    consumed by the two terms of the nSFT loss (caption style).
    """
    if mode == "append":
        extra = list(constructed.turns) if constructed is not None else []
        return Conversation(gt_conversation.image_latent,
                            list(gt_conversation.turns) + extra,
                            provenance="appended")
    if mode == "concat_separate":
        return gt_conversation, constructed
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# LLaVA-style JSONL interchange


def conversation_to_llava_record(conversation, record_id, image_ref):
    convs = []
    for turn in conversation.turns:
        convs.append({"from": "human", "value": " ".join(world.tokens_to_words(turn.question))})
        convs.append({"from": "gpt", "value": " ".join(world.tokens_to_words(turn.answer))})
    return {"id": record_id, "image_ref": image_ref, "conversations": convs}


def write_llava_jsonl(records, path):
    write_jsonl(records, path)


def read_llava_jsonl(path):
    return read_jsonl(path)
