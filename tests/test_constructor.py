"""Negative-supervision construction: error identification, corrective
conversations, balancing, assembly, and interchange formats."""

import numpy as np
import pytest

from prefalign import world
from prefalign.cli import dispatch
from prefalign.constructor import (
    RuleBasedOracle,
    balance_yes_no,
    construct_conversation,
    conversation_to_llava_record,
    qa_turns_from_clauses,
)
from prefalign.data import Conversation, Turn, read_jsonl, write_jsonl
from prefalign.losses import conversation_sft_loss, nsft_loss
from prefalign.model import init_params
from prefalign.world import (
    CAT_COLOR,
    COLORS,
    COUNT_WORDS,
    OBJECTS,
    Scene,
    SceneObject,
    render_caption,
)

_YES = world.TOKEN_TO_ID["yes"]
_NO = world.TOKEN_TO_ID["no"]


def test_every_corruption_category_has_a_corrective_turn():
    s = Scene([SceneObject(2, 1, 2)])  # two blue cup
    triple = (2, 1, 2)
    for cat in world.CORRUPTION_CATEGORIES:
        error = world.Corruption(cat, 0, triple, triple)
        (turn,) = construct_conversation([error], s, world.featurize(s), k=1).turns
        assert turn.question and turn.answer[-1] == world.EOS_ID
    with pytest.raises(ValueError, match="no template"):
        construct_conversation([world.Corruption("scene/lighting", 0, triple, triple)],
                               s, world.featurize(s), k=1)


def test_identify_errors_empty_for_identical_captions():
    s = world.generate_scene(0)
    caption = render_caption(s)
    assert RuleBasedOracle().identify(caption, caption) == []


def test_identify_errors_color_swap():
    s = Scene([SceneObject(2, 1, 2)])  # two blue cup
    caption = render_caption(s)
    rejected = render_caption(Scene([SceneObject(2, 4, 2)]))  # color swapped
    assert RuleBasedOracle().identify(rejected, caption) == [
        world.Corruption(CAT_COLOR, 0, (2, 1, 2), (2, 4, 2))]


def _key(corruption):
    return corruption.category, corruption.original, corruption.replacement


def test_identify_errors_perfect_on_double_corruptions():
    oracle = RuleBasedOracle()
    seen_double = 0
    for rec in world.make_preference_dataset(300, 2):
        if len(rec.corruptions) != 2:
            continue
        seen_double += 1
        errors = oracle.identify(rec.rejected, rec.chosen)
        assert sorted(map(_key, errors)) == sorted(map(_key, rec.corruptions))
    assert seen_double > 20


def _answer_words(turn):
    return world.tokens_to_words([t for t in turn.answer if t != world.EOS_ID])


def test_construct_conversation_zero_errors_gives_k_gt_turns():
    s = world.generate_scene(4)
    conv = construct_conversation([], s, world.featurize(s), k=5)
    assert len(conv.turns) == 5
    assert np.array_equal(conv.image_latent, world.featurize(s))
    _assert_consistent_with_scene(conv, s)


def test_construct_conversation_fabrication_yields_no_answer():
    s = Scene([SceneObject(0, 0, 1)])  # one red cat
    fabricated = Scene([SceneObject(0, 0, 1), SceneObject(1, 2, 2)])  # adds dog
    caption = render_caption(s)
    rejected = render_caption(fabricated)
    errors = RuleBasedOracle().identify(rejected, caption)
    conv = construct_conversation(errors, s, world.featurize(s), k=5)
    q = world.words_to_tokens(["is", "there", "a", "dog", "?"])
    corrective = [t for t in conv.turns if t.question == q]
    assert len(corrective) == 1
    assert _answer_words(corrective[0]) == ["no"]


def test_construct_conversation_color_swap_asserts_correct_color():
    s = Scene([SceneObject(3, 0, 2)])  # two red hat
    caption = render_caption(s)
    rejected = render_caption(Scene([SceneObject(3, 1, 2)]))  # blue instead
    errors = RuleBasedOracle().identify(rejected, caption)
    conv = construct_conversation(errors, s, world.featurize(s), k=3)
    q = world.words_to_tokens(["what", "color", "is", "the", "hat", "?"])
    corrective = [t for t in conv.turns if t.question == q]
    assert corrective and _answer_words(corrective[0]) == ["red"]


def _assert_consistent_with_scene(conv, scene):
    """Every answer must agree with the scene (and hence with y_c)."""
    by_obj = {o.obj: o for o in scene.objects}
    for turn in conv.turns:
        words = world.tokens_to_words(turn.question)
        answer = _answer_words(turn)
        if words[:3] == ["is", "there", "a"]:
            obj = OBJECTS.index(words[3])
            assert answer == (["yes"] if obj in by_obj else ["no"])
        elif words[:2] == ["what", "color"]:
            obj = OBJECTS.index(words[4])
            assert answer == [COLORS[by_obj[obj].color]]
        elif words[:2] == ["how", "many"]:
            obj = OBJECTS.index(words[2])
            assert answer == [COUNT_WORDS[by_obj[obj].count - 1]]
        else:
            raise AssertionError(f"unexpected question template: {words}")


def test_constructed_answers_never_contradict_chosen():
    oracle = RuleBasedOracle()
    for rec in world.make_preference_dataset(200, 8):
        # corrections about fabricated/swapped-in objects answer "no" about
        # objects absent from the scene, which the checker also covers
        errors = oracle.identify(rec.rejected, rec.chosen)
        conv = construct_conversation(errors, rec.scene, world.featurize(rec.scene), k=5)
        _assert_consistent_with_scene(conv, rec.scene)


def test_construct_conversation_rejects_bad_k():
    s = world.generate_scene(1)
    with pytest.raises(ValueError):
        construct_conversation([], s, world.featurize(s), k=0)


def _yes_no_conversation(n_yes, n_no):
    turns = [Turn(world.words_to_tokens(["is", "there", "a", "cat", "?"]),
                  [_YES, world.EOS_ID]) for _ in range(n_yes)]
    turns += [Turn(world.words_to_tokens(["is", "there", "a", "dog", "?"]),
                   [_NO, world.EOS_ID]) for _ in range(n_no)]
    return Conversation(np.zeros(world.latent_dim()), turns)


def _yes_fraction(conv):
    yn = [t for t in conv.turns if t.answer[0] in (_YES, _NO)]
    return sum(1 for t in yn if t.answer[0] == _YES) / len(yn)


def test_balance_yes_no_all_yes_unchanged():
    conv = _yes_no_conversation(4, 0)
    out = balance_yes_no(conv, 0.4, 0.6, seed=0)
    assert len(out.turns) == 4


def test_balance_yes_no_reaches_band():
    conv = _yes_no_conversation(1, 9)
    out = balance_yes_no(conv, 0.4, 0.6, seed=0)
    n_no = sum(1 for t in out.turns if t.answer[0] == _NO)
    assert 1 <= n_no <= 2
    assert 0.4 <= _yes_fraction(out) <= 0.6


def test_balance_yes_no_deterministic():
    conv = _yes_no_conversation(2, 8)
    a = balance_yes_no(conv, 0.4, 0.6, seed=7)
    b = balance_yes_no(conv, 0.4, 0.6, seed=7)
    assert [(t.question, t.answer) for t in a.turns] == [(t.question, t.answer) for t in b.turns]


def test_balance_yes_no_never_removes_yes_or_non_yes_no_turns():
    conv = _yes_no_conversation(2, 6)
    color_q = Turn(world.words_to_tokens(["what", "color", "is", "the", "cat", "?"]),
                   world.words_to_tokens(["red"]) + [world.EOS_ID])
    conv.turns.append(color_q)
    out = balance_yes_no(conv, 0.4, 0.6, seed=3)
    assert sum(1 for t in out.turns if t.answer[0] == _YES) == 2
    assert any(t.question == color_q.question for t in out.turns)


def test_balance_yes_no_keeps_no_turns_it_cannot_balance():
    conv = _yes_no_conversation(0, 3)
    out = balance_yes_no(conv, 0.4, 0.6, seed=0)
    assert [(t.question, t.answer) for t in out.turns] == [(t.question, t.answer) for t in conv.turns]


def test_balance_yes_no_validates_band():
    conv = _yes_no_conversation(1, 1)
    with pytest.raises(ValueError):
        balance_yes_no(conv, 0.8, 0.2, seed=0)


def _construct(tmp_path, mode):
    data, out = tmp_path / "world.jsonl", tmp_path / f"{mode}.jsonl"
    world.write_dataset_jsonl(world.make_preference_dataset(6, 4), data)
    assert dispatch(["construct", "--in", str(data), "--out", str(out), "--k", "3",
                     "--mode", mode]) == 0
    return read_jsonl(out)


def test_assemble_append_mode(tmp_path, capsys):
    separate = _construct(tmp_path, "concat_separate")
    appended = _construct(tmp_path, "append")
    assert len(separate) == 2 * len(appended)
    for merged, gt, constructed in zip(appended, separate[::2], separate[1::2]):
        assert gt["id"] == merged["id"] + "/gt" and constructed["id"] == merged["id"] + "/constructed"
        assert merged["conversations"] == gt["conversations"] + constructed["conversations"]
        assert len(gt["conversations"]) == 2  # one GT caption turn


def test_assemble_concat_separate_feeds_nsft_loss():
    s = world.generate_scene(3)
    gt = Conversation(world.featurize(s), [Turn(list(world.CAPTION_QUESTION), list(render_caption(s)))])
    constructed = construct_conversation([], s, world.featurize(s), k=2)
    params = init_params(world.VOCAB_SIZE, 8, world.latent_dim(), n_blocks=1, seed=0)
    total = nsft_loss(params, gt, constructed).item()
    parts = conversation_sft_loss(params, gt).item() + conversation_sft_loss(params, constructed).item()
    assert total == pytest.approx(parts, abs=1e-12)


def test_assemble_rejects_unknown_mode(tmp_path, capsys):
    data = tmp_path / "world.jsonl"
    world.write_dataset_jsonl(world.make_preference_dataset(2, 4), data)
    code = dispatch(["construct", "--in", str(data), "--out", str(tmp_path / "out.jsonl"),
                     "--mode", "zip"])
    assert code == 2 and "invalid choice: 'zip'" in capsys.readouterr().err


def test_qa_turns_from_clauses_consistent():
    s = world.generate_scene(6)
    rng = np.random.default_rng(0)
    turns = qa_turns_from_clauses(list(s.objects), rng, 20)
    conv = Conversation(world.featurize(s), turns)
    _assert_consistent_with_scene(conv, s)


def test_llava_jsonl_round_trip(tmp_path):
    s = world.generate_scene(9)
    conv = construct_conversation([], s, world.featurize(s), k=2)
    rec = conversation_to_llava_record(conv, "scene-9", "seed://9")
    assert [c["from"] for c in rec["conversations"]] == ["human", "gpt"] * 2
    path = tmp_path / "convs.jsonl"
    write_jsonl([rec], path)
    assert read_jsonl(path) == [rec]


# Recorded on the commit before qa_turns_from_clauses stopped calling
# rng.choice: the same turns, and the generator left in the same state.
GOLDEN_QA_TURNS = [
    "how many shoe ? four <eos> | how many shoe ? four <eos> | is there a leaf ? no <eos> | what color is the shoe ? purple <eos>",
    "is there a tree ? yes <eos> | is there a tree ? yes <eos> | what color is the tree ? purple <eos> | is there a tree ? yes <eos>",
    "is there a hat ? no <eos> | what color is the box ? purple <eos> | how many box ? four <eos> | is there a box ? yes <eos>",
    "is there a drum ? no <eos> | how many dog ? one <eos> | is there a dog ? yes <eos> | what color is the dog ? purple <eos>",
    "what color is the fish ? purple <eos> | how many star ? one <eos> | how many fish ? three <eos> | what color is the star ? brown <eos>",
    "is there a dog ? no <eos> | is there a fish ? yes <eos> | what color is the bird ? brown <eos> | how many bird ? one <eos>",
    "is there a cat ? no <eos> | how many car ? four <eos> | is there a bird ? no <eos> | what color is the car ? black <eos>",
    "how many car ? three <eos> | what color is the car ? black <eos> | is there a key ? yes <eos> | is there a cup ? no <eos>",
]


def test_qa_turns_from_clauses_match_golden():
    rng = np.random.default_rng(5)
    got = []
    for rec in world.make_preference_dataset(4, 11):
        for clauses in (list(rec.scene.objects), world.parse_caption(rec.rejected)):
            turns = qa_turns_from_clauses(clauses, rng, 4)
            got.append(" | ".join(" ".join(world.tokens_to_words(t.question + t.answer))
                                  for t in turns))
    assert got == GOLDEN_QA_TURNS
    assert rng.integers(0, 2**31) == 1244563294
