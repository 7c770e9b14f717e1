"""The public surface: every ``repro`` module imports cleanly and exports what it declares.

The modules are imported in a fresh interpreter with ``DeprecationWarning``
turned into an error, so a module that warns on import fails here, and so
does a stale ``__all__`` entry (it breaks ``from module import *``).
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, json, pkgutil, sys, warnings

warnings.simplefilter("error", DeprecationWarning)
import repro

skip = set(sys.argv[1:])
modules, problems = ["repro"], []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rsplit(".", 1)[-1] in skip:
        continue
    modules.append(info.name)
for name in modules:
    try:
        module = importlib.import_module(name)
    except Exception as exc:
        problems.append(f"{name}: {type(exc).__name__}: {exc}")
        continue
    problems += [
        f"{name}.__all__ lists missing {export!r}"
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
print(json.dumps({"modules": modules, "problems": problems}))
"""


def test_every_module_imports_and_resolves_its_exports():
    skip = [] if importlib.util.find_spec("numba") else ["numba_backend"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *skip],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    surface = json.loads(result.stdout)
    assert surface["problems"] == []
    assert "repro.queries.workload" in surface["modules"]
    assert ("repro.core.kernels.numba_backend" in surface["modules"]) == (not skip)
