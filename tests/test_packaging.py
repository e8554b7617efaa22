"""Packaging: every third-party module the code imports is declared, the
record-to-model-input decision stays in one module, the names the
benchmark pins exist, and every import is read."""

import ast
import importlib.util
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


def _load_by_path(path):
    spec = importlib.util.spec_from_file_location(f"_pinned_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names_imported_from(path, module):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module for alias in node.names]


def test_benchmark_pinned_names_resolve():
    """perfbench traces and imports these by name; a rename or deletion
    in the package must fail here, not only in a traced benchmark run."""
    tracing = _load_by_path(ROOT / "perfbench" / "tracing.py")
    pinned = [(mod, attr) for _, mod, attr in tracing.SELF_TIMED + tracing.PHASES]
    pinned += [("model", name) for name in
               _names_imported_from(ROOT / "perfbench" / "workloads.py", "prefalign.model")]
    assert len(pinned) > len(tracing.SELF_TIMED)
    for mod, attr in pinned:
        owner = importlib.import_module(f"prefalign.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"perfbench names prefalign.{mod}.{attr}, which is gone"
        assert callable(owner), f"prefalign.{mod}.{attr} is not callable"


def _unused_imports(path):
    """Names an import binds in `path` that no expression reads, apart from
    `__future__` features and names listed in the module's `__all__`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                   for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    """A lint step: every import is read. `__init__.py` files are skipped,
    since their imports are the package's re-exports."""
    paths = [p for d in ("src", "tests", "demos") for p in sorted(ROOT.joinpath(d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 20, "the scan found too few files"
    unused = {str(p.relative_to(ROOT)): u for p in paths if (u := _unused_imports(p))}
    assert not unused, f"unused imports (line, name): {unused}"
