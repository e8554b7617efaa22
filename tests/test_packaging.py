"""Packaging: every third-party module the code imports is declared, and
the record-to-model-input decision stays in one module."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules():
    names = set()
    for path in [*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_distributions():
    project = tomllib.loads(ROOT.joinpath("pyproject.toml").read_text())["project"]
    reqs = [*project["dependencies"], *(r for extra in project["optional-dependencies"].values() for r in extra)]
    # every dependency here installs a top-level module of its own name
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower().replace("-", "_") for req in reqs}


def test_every_third_party_import_is_declared():
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"prefalign"}
    assert third_party, "the scan found no third-party imports at all"
    undeclared = third_party - _declared_distributions()
    assert not undeclared, f"imported but not declared in pyproject.toml: {sorted(undeclared)}"


# A record's model input is `PreferenceRecord.to_sample()` and its caption
# conversation `PreferenceSample.caption_conversation`; these modules use them.
_INPUT_BUILDING_NAMES = {"featurize", "CAPTION_QUESTION", "Turn"}


@pytest.mark.parametrize("module", ["training.py", "cli.py"])
def test_driver_modules_do_not_build_model_input(module):
    tree = ast.parse(ROOT.joinpath("src", "prefalign", module).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & _INPUT_BUILDING_NAMES, f"{module} uses {sorted(used & _INPUT_BUILDING_NAMES)}"
