"""The connrules names the benchmark scripts reach into exist, so dropping
or renaming one fails here and not only in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reached(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name a script takes from connrules: imported
    by `from connrules... import`, read as an attribute of a module so
    imported, or patched by `tracer.patch(module, "attr", ...)`."""
    tree = ast.parse(path.read_text())
    bound = {}  # local name -> what a from-import bound it to
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "connrules":
            for alias in node.names:
                names.append((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            names.append((bound[node.value.id], node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "patch" and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "tracer":
            module, attr = node.args[:2]
            names.append((bound[module.id], attr.value))
    return names


NAMES = sorted({(script, *name) for script in ("run.py", "record_digests.py")
                for name in reached(BENCH / script)})


def test_scripts_reach_the_known_patch_targets():
    # the parse finds what the traced runs patch, so the check below has teeth
    assert {("run.py", "connrules.learner", "enumerate_candidates"),
            ("run.py", "connrules.crossval", "learn"), ("run.py", "connrules.cli", "learn"),
            ("run.py", "connrules.crossval", "fit_fold"),
            ("record_digests.py", "connrules.crossval", "run_pipeline")} <= set(NAMES)


@pytest.mark.parametrize("script, module, name", NAMES)
def test_name_exists(script, module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        importlib.import_module(f"{module}.{name}")  # a submodule, or ModuleNotFoundError


def timed_names() -> set[str]:
    """The layer.func names run.py times: those in BUSY, and those whose
    calls per_layer counts by looping over a literal tuple."""
    tree = ast.parse((BENCH / "run.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["BUSY"]:
            names |= {elt.value for elt in node.value.elts}
        elif isinstance(node, ast.FunctionDef) and node.name == "per_layer":
            for loop in ast.walk(node):
                if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple):
                    names |= {elt.value for elt in loop.iter.elts}
    return names


def test_timed_names_exist_but_the_known_stale_one():
    # a timed name with no connrules function reads 0 on working code; the
    # one already stale is left for a change to the benchmark to drop, and a
    # newly stale one fails here
    names = timed_names()
    assert {"learner.enumerate_candidates", "learner.learn", "crossval.fit_fold",
            "cohort.load_cohort"} <= names
    missing = {name for name in names
               if not hasattr(importlib.import_module(f"connrules.{name.split('.')[0]}"),
                              name.split(".")[1])}
    assert missing == {"taskgen.context_from_weights"}
