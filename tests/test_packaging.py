"""Packaging: every third-party module the code imports is declared, the
record-to-model-input decision and the scorer each stay in one module, the
caption diff is read only where records and corrective turns are built,
the identity checks run the training loss, the names the benchmark pins
exist and its calls of them bind, every import is read, every loss takes its
reference model last, README's examples match the code, and the pytest
settings report failures normally."""

import ast
import importlib.util
import inspect
import io
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from prefalign import losses, world
from prefalign.cli import dispatch
from prefalign.training import METHODS

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


# A record's model input is `PreferenceRecord.caption_rows()`, its caption
# rows, and its nSFT conversation `constructor.nsft_conversation`; these
# modules use them.
_INPUT_BUILDING_NAMES = {"featurize", "CAPTION_QUESTION", "Turn", "RuleBasedOracle",
                         "construct_conversation", "balance_yes_no"}
# Every sequence log-prob and KL of a packed forward is `losses.packed_logprobs`.
_SCORING_NAMES = {"batch_logprob_matrix", "take_along_rows", "gather_rows", "segment_matrix",
                  "head"}


def _names_used(module):
    """Every imported name, attribute and bare name in a `prefalign` module."""
    tree = ast.parse(ROOT.joinpath("src", "prefalign", module).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return used


@pytest.mark.parametrize("module", ["training.py", "cli.py"])
def test_driver_modules_do_not_build_model_input(module):
    used = _names_used(module) & _INPUT_BUILDING_NAMES
    assert not used, f"{module} uses {sorted(used)}"


def test_only_world_and_constructor_read_the_caption_diff():
    # whether a rejected caption is usable is decided once, in `world.PreferenceRecord`
    readers = {p.name for p in ROOT.joinpath("src", "prefalign").glob("*.py")
               if "diff_captions" in _names_used(p.name)}
    assert readers <= {"world.py", "constructor.py"}, f"{sorted(readers)} read diff_captions"


def test_one_module_sets_the_allocator():
    # the glibc trim threshold is process-wide, so it is set in one place
    for word in ("ctypes", "mallopt"):
        modules = {p.name for p in ROOT.joinpath("src").rglob("*.py")
                   if re.search(rf"\b{word}\b", p.read_text())}
        assert modules == {"autodiff.py"}, f"{word} appears in {sorted(modules)}"


# The single-sample loss forms, which no training step runs, and two reward
# helpers that `prefalign` no longer has.
_SINGLE_SAMPLE_LOSSES = {"sft_loss", "dpo_logit", "dpo_loss", "per_token_kl", "sequence_logprob",
                         "conversation_sft_loss", "implicit_reward", "bt_probability"}


def test_identity_checks_run_the_training_loss():
    used = _names_used("checks.py")
    assert "batch_loss" in used, "checks.py does not read training.batch_loss"
    assert not used & _SINGLE_SAMPLE_LOSSES, f"checks.py uses {sorted(used & _SINGLE_SAMPLE_LOSSES)}"


def test_training_scores_only_through_packed_logprobs():
    used = _names_used("training.py") & _SCORING_NAMES
    assert not used, f"training.py uses {sorted(used)}; score through losses.packed_logprobs"


def _load_by_path(path):
    spec = importlib.util.spec_from_file_location(f"_pinned_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _prefalign_reads(path):
    """(module, attribute, call) for every attribute that `path` reads off a
    `prefalign` module it imports and every name it imports from one; call is
    the `ast.Call` that calls it there, or None for a plain read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, names = {}, {}  # local name -> module; local name -> (module, attribute)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "prefalign":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prefalign."):
            names.update((a.asname or a.name, (node.module[10:], a.name)) for a in node.names)

    def target(node):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            return modules[node.value.id], node.attr
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return names.get(node.id)
        return None

    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return [(*t, calls.get(id(n))) for n in ast.walk(tree) if (t := target(n))]


def _bound_reads(path):
    """The parameter names `path` reads by subscript off a `self._bound(...)` call."""
    return {node.slice.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", None) == "_bound"}


def test_benchmark_pinned_names_resolve():
    """perfbench traces and imports these by name and calls some with
    keywords; a rename, deletion or signature change in the package must
    fail here, not only in a benchmark run."""
    tracing = _load_by_path(ROOT / "perfbench" / "tracing.py")
    pinned = [(mod, attr, None) for _, mod, attr in tracing.SELF_TIMED + tracing.PHASES]
    reads = [r for name in ("workloads.py", "tracing.py")
             for r in _prefalign_reads(ROOT / "perfbench" / name)]
    assert {("cli", "dispatch"), ("checks", "CHECKS"), ("world", "VOCAB_SIZE"),
            ("training", "evaluate_model"), ("model", "init_params")} <= {r[:2] for r in reads}
    for mod, attr, call in pinned + reads:
        owner = importlib.import_module(f"prefalign.{mod}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"perfbench names prefalign.{mod}.{attr}, which is gone"
            owner = getattr(owner, part)
        assert (mod, attr, None) not in pinned or callable(owner), f"{mod}.{attr} is not callable"
        if call is not None:  # perfbench's positional count and keywords still bind
            try:
                inspect.signature(owner).bind_partial(*call.args,
                                                      **{k.arg: None for k in call.keywords})
            except TypeError as exc:
                raise AssertionError(f"perfbench's call of prefalign.{mod}.{attr} "
                                     f"(line {call.lineno}) no longer binds: {exc}") from None
    # the tracer's observers read these parameters by name off each traced call
    bound = {("training", "train"): "config", ("training", "make_base_model"): "steps",
             ("training", "self_response_records"): "records"}
    assert set(bound.values()) == _bound_reads(ROOT / "perfbench" / "tracing.py")
    for (mod, attr), name in bound.items():
        params = inspect.signature(getattr(importlib.import_module(f"prefalign.{mod}"), attr))
        assert name in params.parameters, f"perfbench reads prefalign.{mod}.{attr}'s {name!r}"
    # EvalDecode's decode check reads a record's context fields
    context = world.make_preference_dataset(1, 0)[0].to_sample().context
    assert context.image_latent.ndim == 1 and context.question


def _method_names_outside_the_table(path, names):
    """(line, name) for every string constant in `path` equal to a method
    name, apart from the `METHODS` assignment and `TrainConfig.method`'s
    default. A docstring or f-string is not equal to a name, so it passes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["METHODS"]:
            allowed.update(map(id, ast.walk(node.value)))
        elif isinstance(node, ast.ClassDef) and node.name == "TrainConfig":
            allowed.update(id(stmt.value) for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                           and stmt.target.id == "method")
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in names and id(node) not in allowed)


def test_method_names_live_only_in_the_table():
    """A lint step: code reads a method's behaviour from its `training.METHODS`
    entry and never branches on its name, so adding a method is adding an entry."""
    paths = sorted(ROOT.joinpath("src").rglob("*.py"))
    assert len(paths) > 10, "the scan found too few files"
    named = {str(p.relative_to(ROOT)): n for p in paths
             if (n := _method_names_outside_the_table(p, set(METHODS)))}
    assert not named, f"method names outside training.METHODS (line, name): {named}"


def test_parameter_names_live_only_in_the_model():
    """A lint step: no `src/` module but `model.py` holds a parameter's name
    ("embed", "img_proj", "out" or one starting "blocks.") as a string
    constant, so adding a parameter is adding a `model.param_shapes` entry."""
    paths = [p for p in sorted(ROOT.joinpath("src").rglob("*.py")) if p.name != "model.py"]
    assert len(paths) > 10, "the scan found too few files"
    named = {}
    for path in paths:
        found = sorted((node.lineno, node.value) for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and (node.value in ("embed", "img_proj", "out")
                            or node.value.startswith("blocks.")))
        if found:
            named[str(path.relative_to(ROOT))] = found
    assert not named, f"parameter names outside model.py (line, name): {named}"


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


def test_losses_take_the_reference_last():
    """A lint step: every function in `losses.__all__` with a `reference`
    parameter takes it last, as the "no reference" default of
    `packed_logprobs` and `dpo_logit` needs."""
    params = {name: list(inspect.signature(getattr(losses, name)).parameters)
              for name in losses.__all__}
    with_ref = {name: p for name, p in params.items() if "reference" in p}
    assert len(with_ref) > 3, "the scan found too few functions that take a reference"
    misplaced = {name: p for name, p in with_ref.items() if p[-1] != "reference"}
    assert not misplaced, f"reference is not the last parameter: {misplaced}"


def test_readme_library_snippet_runs():
    """README's ```python block runs as written, in a fresh namespace, so a
    deleted or renamed public name fails here instead of leaving the docs stale."""
    blocks = re.findall(r"```python\n(.*?)```", ROOT.joinpath("README.md").read_text(), re.S)
    assert len(blocks) == 1, f"README has {len(blocks)} python blocks, expected the one snippet"
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_snippet"})


def test_readme_command_list_matches_parser():
    """README's `## Command line` block shows each subcommand once, in the
    parser's order, so a removed or added subcommand cannot leave it stale."""
    with redirect_stdout(io.StringIO()) as out:
        assert dispatch(["--help"]) == 0
    choices = re.search(r"\{(.+?)\}", out.getvalue()).group(1).split(",")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", ROOT.joinpath("README.md").read_text(),
                      re.S).group(1)
    assert re.findall(r"^prefalign (\S+)", block, re.M) == choices


def _unread_parameters(path):
    """(line, function, parameter) for every parameter of a `def` in `path`,
    other than `self` and `cls`, that no expression in its body reads; a
    read inside a nested function or lambda counts."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [(fn.lineno, fn.name, p.arg) for p in params
                   if p.arg not in ("self", "cls") and p.arg not in read]
    return unread


def test_every_parameter_is_read():
    """A lint step: a parameter no body reads is a settable value that
    changes nothing, so it goes."""
    paths = sorted(ROOT.joinpath("src").rglob("*.py"))
    assert len(paths) > 10, "the scan found too few files"
    unread = {str(p.relative_to(ROOT)): u for p in paths if (u := _unread_parameters(p))}
    assert not unread, f"parameters never read (line, function, parameter): {unread}"


_FAILING_TESTS = """\
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_runtime_warning_fails():
    np.log(np.zeros(1))
"""


def test_pytest_settings_report_failures_normally(tmp_path):
    """Under the repo's pytest settings a failing `@given` test ends in a
    "Falsifying example" report, not in an INTERNALERROR from a warning the
    hypothesis plugin raises while reporting, and a numpy RuntimeWarning
    still fails its test."""
    pytest.importorskip("hypothesis")
    tmp_path.joinpath("pyproject.toml").write_text(ROOT.joinpath("pyproject.toml").read_text())
    tmp_path.joinpath("test_failing.py").write_text(_FAILING_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
                          "test_failing.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert re.search(r"^E +Falsifying example", out, re.M), out
    assert "FAILED test_failing.py::test_runtime_warning_fails - RuntimeWarning" in out, out
    assert "2 failed" in out, out
