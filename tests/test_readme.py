"""The README's module table against the modules it describes."""

import builtins
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# A backticked class name, bare or after a module name: `RunSet`,
# `analysis.Analysis`. Constants such as `VARIANTS` have no lower-case letter.
CLASS_NAME = re.compile(r"`(?:(\w+)\.)?([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`")


def module_rows():
    """(module name, purpose) per row of the "What is in the box" table."""
    section = README.read_text(encoding="utf-8").split("## What is in the box", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(ragharness\.\w+)` \| (.*) \|$", section, re.MULTILINE)


def test_every_class_the_module_table_names_is_its_modules():
    """A bare name is the row module's (or a builtin, such as `ValueError`);
    a qualified one is the named package module's."""
    rows = module_rows()
    package = README.parent / "src" / "ragharness"
    modules = {f"ragharness.{path.stem}" for path in package.glob("[!_]*.py")}
    assert sorted(name for name, _ in rows) == sorted(modules)
    stale = []
    for module_name, purpose in rows:
        for qualifier, name in CLASS_NAME.findall(purpose):
            if qualifier:
                owner = importlib.import_module(f"ragharness.{qualifier}")
            elif hasattr(builtins, name):
                continue
            else:
                owner = importlib.import_module(module_name)
            if not hasattr(owner, name):
                stale.append(f"{module_name}: {qualifier + '.' if qualifier else ''}{name}")
    assert stale == []
