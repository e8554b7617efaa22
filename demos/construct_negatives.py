"""From a corrupted caption to a corrective conversation.

Generates a synthetic scene, corrupts its caption, identifies the
injected errors against the clean caption with the rule-based oracle,
and prints the corrective + grounding conversation that turns the
negative into supervision.

Run: python3 demos/construct_negatives.py
"""

from prefalign import world
from prefalign.constructor import RuleBasedOracle, balance_yes_no, construct_conversation


def words(tokens):
    return " ".join(world.tokens_to_words([t for t in tokens if t != world.EOS_ID]))


def clause_words(triple):
    """'two red cup' for an (object, color, count) triple; '-' for none."""
    if triple is None:
        return "-"
    obj, color, count = triple
    return f"{world.COUNT_WORDS[count - 1]} {world.COLORS[color]} {world.OBJECTS[obj]}"


def main():
    rec = world.make_preference_dataset(6, seed=2024)[3]
    print("scene objects:")
    for o in rec.scene.objects:
        print(f"   {world.COUNT_WORDS[o.count - 1]} {world.COLORS[o.color]} "
              f"{world.OBJECTS[o.obj]}")
    print(f"\nchosen caption:   {words(rec.chosen)}")
    print(f"rejected caption: {words(rec.rejected)}")

    sample = rec.to_sample()
    errors = RuleBasedOracle().identify(rec.rejected, rec.chosen)
    print("\nidentified errors (chosen -> rejected):")
    for err in errors:
        print(f"   {err.category:28s} {clause_words(err.original)!r} -> "
              f"{clause_words(err.replacement)!r}")

    conv = construct_conversation(errors, rec.scene, sample.context.image_latent, k=5)
    conv = balance_yes_no(conv, 0.4, seed=0)
    print(f"\nconstructed conversation ({len(conv.turns)} turns):")
    for turn in conv.turns:
        print(f"   Q: {words(turn.question):34s} A: {words(turn.answer)}")


if __name__ == "__main__":
    main()
