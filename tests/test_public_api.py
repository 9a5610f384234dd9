"""Public-API surface checks.

Every name exported through a subpackage's ``__all__`` must resolve to a real
attribute and every public callable/class must carry a docstring — these are
the guarantees a downstream user relies on when exploring the library, and
this test keeps ``__all__`` lists from drifting out of sync with the code.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.experiments",
    "repro.layering",
    "repro.network",
    "repro.protocols",
    "repro.simulator",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} must define __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(f"{module_name}.{name}")
    assert not undocumented, f"missing docstrings: {undocumented}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_modules_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} needs a module docstring"


def test_exceptions_derive_from_repro_error():
    import repro.errors as errors

    for name in dir(errors):
        obj = getattr(errors, name)
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj is not Exception:
            assert issubclass(obj, errors.ReproError) or obj is errors.ReproError


def test_version_is_semver_like():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_import_leaves_scipy_stats_unloaded():
    """``import repro`` stays light: scipy.stats alone was most of its import time."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(sorted(m for m in sys.modules "
         "if m == 'scipy.stats' or m.startswith('scipy.stats.')))"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_import_leaves_networkx_unloaded():
    """``import repro`` needs only the declared dependencies: networkx is not one."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(sorted(m for m in sys.modules "
         "if m == 'networkx' or m.startswith('networkx.')))"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"
