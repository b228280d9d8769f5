"""Every public name of ``bsca`` has a use in the library, its scripts or
its benchmark: a name that is only defined and exported is dead API.
Likewise every ``SolverConfig`` field is set by one of their callers: a
field that only tests set is a dead setting."""

import ast
import dataclasses
import re
import types
from pathlib import Path

import bsca

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_INIT = ROOT / "src" / "bsca" / "__init__.py"
SOURCES = [path for folder in ("src/bsca", "scripts", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))
           if path != PACKAGE_INIT]


def _is_used(name: str, lines: list[str]) -> bool:
    """True when ``name`` appears on a line other than its own
    ``def``/``class`` line."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not own.match(line) for line in lines)


def test_every_public_name_has_a_caller():
    lines = [line for path in SOURCES
             for line in path.read_text(encoding="utf-8").splitlines()]
    public = [name for name in bsca.__all__
              if not isinstance(getattr(bsca, name), types.ModuleType)]
    unused = [name for name in public if not _is_used(name, lines)]
    assert not unused, f"exported by bsca but used nowhere: {unused}"


def test_every_solver_config_field_is_set_by_a_caller():
    # keywords of SolverConfig(...) and dataclasses.replace(...) calls
    set_by_callers = {keyword.arg for path in SOURCES
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      in ("SolverConfig", "replace")
                      for keyword in node.keywords}
    fields = {field.name for field in dataclasses.fields(bsca.SolverConfig)}
    assert not fields - set_by_callers, (
        f"SolverConfig fields no caller sets: {sorted(fields - set_by_callers)}")
