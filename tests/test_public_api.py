"""Every function the package exports has a caller in ``src/`` or a named reason to stay.

A computation ships one path: the array kernel the CLI runs. An exported
function that no code in ``src/`` calls is either a primitive kept for its
own sake, listed in ``KEPT`` with the reason, or a second path to something
a kernel already computes, which should go.
"""
import ast
import inspect
from pathlib import Path

import insidermc

KEPT = {
    "ak_integral": "the paper's mixed-endpoint (Ayed-Kuo) integral on one path",
    "forward_integral": "the paper's forward (Russo-Vallois) integral on one path",
    "skorokhod_integral": "the paper's divergence (Hitsuda-Skorokhod) integral on one path",
    "wick_with_exponential": "the paper's Wick product with the stochastic exponential",
    "generate_path": "the one-path sampler the integral primitives and bench/selftest.py take",
    "random_params": "one draw from the sweep ranges, used by the benchmark's sweep check",
    "expected_honest": "a closed form: the honest trader's expected wealth for any split",
    "expected_honest_max": "a closed form: the honest trader's best expected wealth",
    "expected_insider": "a closed form: the partial-trust insider's expected wealth",
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


def test_every_exported_function_has_a_caller_or_a_reason():
    exported = {
        name for name, obj in vars(insidermc).items()
        if inspect.isfunction(obj) and not name.startswith("_")
    }
    assert set(KEPT) <= exported, f"kept but not exported: {sorted(set(KEPT) - exported)}"
    uncalled = exported - _called_names() - set(KEPT)
    assert not uncalled, f"exported functions with no caller in src/: {sorted(uncalled)}"
