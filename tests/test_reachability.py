"""Every function in the package is reached by a CLI job.

The package holds what the jobs run; test oracles live under
tests/oracles/.  This test runs every GOLDEN argv in process under
`sys.setprofile`, plus one cached run (store, then hit) and the
top-level and `ext` help, and asserts that every function defined under
src/chromadefect was entered.  It first clears every cache a package
module holds, so a cache that earlier tests filled hides no function.
Dunder methods are exempt.  EXEMPT names the other exemptions, one
group per planned change that takes them as its main path or replaces
them; no group is left, so EXEMPT is empty.  An exempt function that a
job enters fails the test too, so a group shrinks as soon as its code
gets a path.
A second test holds every package module's `__all__` to names the
module defines, so a deleted function leaves no stale export.
"""

import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

from chromadefect import cli

from test_cli import GOLDEN

SRC = Path(cli.__file__).resolve().parent

# Exemptions name a function, a class (all its methods) or an outer
# function (all its nested functions).
EXEMPT = set()


def dunder(name):
    last = name.split(":")[1].split(".")[-1]
    return last.startswith("__") and last.endswith("__")


def exempt(name):
    """Names inside an exempt function or class."""
    where, qualname = name.split(":")
    parts = qualname.split(".")
    return any(f"{where}:{'.'.join(parts[:k])}" in EXEMPT for k in range(1, len(parts) + 1))


def defined_functions():
    """{(file, first line of the code object): "file:qualname"} for every
    function under the package; a decorated function's code starts at
    its first decorator."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{rel}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def entered_during(jobs):
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            jobs()
    finally:
        sys.setprofile(None)
    return seen


def test_every_package_function_is_reached(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chromadefect":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def jobs():
        for name, argv in GOLDEN.items():
            assert cli.main([*argv, "--no-cache", "--out", str(tmp_path / name)]) == 0
        for run in ("store", "hit"):
            assert cli.main(["fgl", "--n", "1", "--out", str(tmp_path / run)]) == 0
        for argv in (["--help"], ["ext", "--help"]):
            assert cli.main(argv) == 0

    seen = {(str(Path(f).resolve()), line) for f, line in entered_during(jobs)}
    defined = defined_functions()
    missed = sorted(
        name
        for where, name in defined.items()
        if where not in seen and not exempt(name) and not dunder(name)
    )
    assert not missed, "functions no CLI job enters:\n" + "\n".join(missed)
    reached = sorted(name for where, name in defined.items() if where in seen and exempt(name))
    assert not reached, "exempt functions a CLI job enters:\n" + "\n".join(reached)
    names = set(defined.values())
    stale = sorted(
        e for e in EXEMPT if e not in names and not any(n.startswith(e + ".") for n in names)
    )
    assert not stale, f"exempt names that are not defined: {stale}"


def test_every_export_is_defined():
    stale = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        stale += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not stale, f"names in __all__ that the module does not define: {stale}"
