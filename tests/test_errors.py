import importlib
import pkgutil

import ragharness
from ragharness.errors import HarnessError


def test_harness_error_is_the_one_input_error():
    """No module of the package defines its own input error: every check
    raises HarnessError itself, which cli.main reports as one line."""
    modules = [info.name for info in pkgutil.iter_modules(ragharness.__path__)]
    assert "cli" in modules and "analysis" in modules
    for name in modules:
        importlib.import_module(f"ragharness.{name}")
    assert HarnessError.__subclasses__() == []
    assert issubclass(HarnessError, ValueError)
