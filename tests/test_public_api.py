"""Every function the package exports has a caller in ``src/`` or a pin that keeps it.

A computation ships one path: the array kernel the CLI runs. An exported
function that no code in ``src/`` calls is either kept because a file outside
``src/`` pins it, listed in ``KEPT`` with that file, or a second path to
something a kernel already computes, which should go. A kept name leaves
``KEPT`` once code in ``src/`` calls it or its pin file stops naming it.
"""
import ast
import inspect
from pathlib import Path

import insidermc

ROOT = Path(__file__).resolve().parent.parent

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


def _called_names() -> set[str]:
    """Names that code in ``src/`` refers to, outside ``__init__`` and outside each
    function's own body (a function does not keep itself alive)."""
    names = set()
    for source in Path(insidermc.__file__).parent.glob("*.py"):
        if source.name == "__init__.py":
            continue
        for top in ast.parse(source.read_text()).body:
            used = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            if isinstance(top, ast.FunctionDef):
                used.discard(top.name)
            names |= used
    return names


def _named_in(path: Path) -> set[str]:
    """Names and attributes that the Python file at ``path`` refers to."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_exported_function_has_a_caller_or_a_reason():
    exported = {
        name for name, obj in vars(insidermc).items()
        if inspect.isfunction(obj) and not name.startswith("_")
    }
    assert set(KEPT) <= exported, f"kept but not exported: {sorted(set(KEPT) - exported)}"
    uncalled = exported - _called_names() - set(KEPT)
    assert not uncalled, f"exported functions with no caller in src/: {sorted(uncalled)}"


def test_every_kept_name_is_uncalled_in_src_and_named_by_its_pin():
    called = sorted(set(KEPT) & _called_names())
    assert not called, f"kept names with a caller in src/, which need no pin: {called}"
    unpinned = sorted(name for name, pin in KEPT.items() if name not in _named_in(ROOT / pin))
    assert not unpinned, f"kept names their pin file no longer names: {unpinned}"
