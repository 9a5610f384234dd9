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


# Runs ``repro`` in-process, then prints, as its last stdout line, the SciPy
# subpackages it loaded along the way.
_SCIPY_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is not None:
    from repro.__main__ import main
    try:
        main(argv)
    except SystemExit:
        pass
else:
    import repro, repro.experiments.registry
print()
print(json.dumps(sorted({m.split(".")[1] if "." in m else m
                         for m in sys.modules if m.split(".")[0] == "scipy"})))
"""


def _scipy_loaded_by(argv, cwd=None):
    """SciPy subpackages loaded by ``repro <argv>`` (``None``: just the import)."""
    import json

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300, check=True,
    )
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


def test_scipy_loads_only_where_a_run_calls_it(tmp_path):
    """SciPy is imported at its call sites: routing and confidence intervals."""
    assert _scipy_loaded_by(None) == set()
    assert _scipy_loaded_by(["--help"]) == set()
    cache = str(tmp_path / "cache")
    # The fresh run routes its networks; the store hit answers without them.
    assert "sparse" in _scipy_loaded_by(["run", "figure1", "--cache", cache])
    assert _scipy_loaded_by(["run", "figure1", "--cache", cache]) == set()
    tiny = ["--set", "num_receivers=8", "--set", "duration_units=100",
            "--set", "repetitions=2"]
    loaded = _scipy_loaded_by(["run", "figure8_panel", *tiny])
    assert "special" in loaded
    assert "sparse" not in loaded


# Starts ``repro serve`` on a thread, prints the SciPy subpackages loaded once
# its socket is bound, then shuts it down.
_SERVE_PROBE = """
import json, os, sys, threading, time
from repro.experiments.serve import request, serve
from repro.experiments.store import ResultStore
thread = threading.Thread(target=serve, args=(ResultStore("cache"),),
                          kwargs={"socket_path": "serve.sock"}, daemon=True)
thread.start()
deadline = time.monotonic() + 60
while not os.path.exists("serve.sock") and time.monotonic() < deadline:
    time.sleep(0.05)
print(json.dumps(sorted({m.split(".")[1] for m in sys.modules
                         if m.startswith("scipy.")})))
request("serve.sock", {"op": "shutdown"}, timeout=30)
thread.join(timeout=60)
"""


def test_serve_loads_scipy_before_its_pool_forks(tmp_path):
    """The daemon imports SciPy at start-up, so its forked workers never pay it."""
    import json

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _SERVE_PROBE],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300, check=True,
    )
    loaded = set(json.loads(result.stdout.strip().splitlines()[-1]))
    assert {"sparse", "special"} <= loaded
