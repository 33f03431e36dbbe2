"""Every top-level function and class in ``src/`` has a caller there or a pin that keeps it.

A computation ships one path: the array kernel the CLI runs. A top-level
definition that no other code in ``src/`` names, exported or not, is either
kept because a file outside ``src/`` pins it, listed in ``KEPT`` with that
file, or a second path to something a kernel already computes, which should
go. A kept name leaves ``KEPT`` once code in ``src/`` calls it or its pin
file stops naming it.
"""
import ast
from pathlib import Path

import insidermc

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(insidermc.__file__).parent.glob("*.py"))

# name -> the file outside src/ that pins it
KEPT = {
    # the divergence integral of acceptance criterion 8, until ROADMAP item 18
    # moves criterion 8 onto a kernel
    "skorokhod_integral": "tests/test_acceptance.py",
    # the benchmark's self-test patches the one-path sampler (until ROADMAP item 6)
    "generate_path": "bench/selftest.py",
    # the benchmark's sweep check draws one set at a time (until ROADMAP item 6)
    "random_params": "bench/workloads.py",
}


def _names(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _definitions() -> set[str]:
    """The functions and classes defined at the top level of a module in ``src/``."""
    return {
        top.name
        for source in SOURCES
        for top in ast.parse(source.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
    }


def _called_names() -> set[str]:
    """Names that code in ``src/`` refers to, outside ``__init__`` and outside each
    definition's own body (a definition does not keep itself alive)."""
    names = set()
    for source in SOURCES:
        if source.name == "__init__.py":
            continue
        for top in ast.parse(source.read_text()).body:
            used = _names(top)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                used.discard(top.name)
            names |= used
    return names


def test_every_top_level_definition_has_a_caller_or_a_reason():
    defined = _definitions()
    assert set(KEPT) <= defined, f"kept but not defined: {sorted(set(KEPT) - defined)}"
    uncalled = defined - _called_names() - set(KEPT)
    assert not uncalled, f"top-level definitions with no caller in src/: {sorted(uncalled)}"


def test_every_kept_name_is_uncalled_in_src_and_named_by_its_pin():
    called = sorted(set(KEPT) & _called_names())
    assert not called, f"kept names with a caller in src/, which need no pin: {called}"
    unpinned = sorted(
        name for name, pin in KEPT.items() if name not in _names(ast.parse((ROOT / pin).read_text()))
    )
    assert not unpinned, f"kept names their pin file no longer names: {unpinned}"
