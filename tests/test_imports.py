"""The top-level surface: what ``import repro`` loads and what it exports.

``import repro`` must load the solve path only (grid, kernels, engines,
core execution, the API and the tracer).  The backends, the serving
layer, the analyzer, the perf harness and the performance rail load on
first use.  The probe runs in a fresh interpreter because the test
session itself has imported all of them long before this file runs.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

#: Packages and modules a bare ``import repro`` must not load.
OFF_PATH = (
    "repro.sim",
    "repro.models",
    "repro.machine",
    "repro.bench",
    "repro.obs.monitor",
    "repro.obs.differential",
    "repro.serve",
    "repro.dist",
    "repro.threads",
    "repro.analysis",
    "repro.perf",
)


def _fresh_import_modules() -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    probe = ("import json, sys\n"
             "import repro\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m.startswith('repro'))))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_import_repro_loads_only_the_solve_path():
    loaded = _fresh_import_modules()
    stray = sorted(m for m in loaded
                   if any(m == p or m.startswith(p + ".") for p in OFF_PATH))
    assert not stray, f"import repro loaded {stray}"
    assert {"repro.api", "repro.core.executor", "repro.kernels.reference",
            "repro.obs.tracer"} <= loaded


def test_top_level_surface_is_small_and_resolves():
    assert len(repro.__all__) <= 20
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.map is repro.map_jobs


def test_lazy_names_resolve_to_their_definitions():
    import repro.core.autotune as autotune_module
    import repro.serve as serve

    # Once its module is imported, ``repro.core.autotune`` names the
    # submodule; the top-level name must still be the function.
    assert repro.autotune is autotune_module.autotune
    assert callable(repro.autotune)
    assert repro.TuneResult is autotune_module.TuneResult
    assert repro.Service is serve.Service and isinstance(repro.Service, type)
    assert repro.SolveJob is serve.SolveJob
    with pytest.raises(AttributeError):
        repro.no_such_name


def _documented_names() -> set:
    """Every ``repro.<name>`` and ``from repro import ...`` name used by
    the README, the examples and the wall-clock benchmark."""
    files = [REPO / "README.md", *sorted((REPO / "examples").glob("*.py")),
             *sorted((REPO / "perfbench").glob("*.py"))]
    names = set()
    for path in files:
        text = path.read_text()
        names.update(re.findall(r"\brepro\.([A-Za-z_]\w*)", text))
        for group in re.findall(r"from repro import (\([^)]*\)|[^\n]+)", text):
            names.update(re.findall(r"[A-Za-z_]\w*",
                                    re.sub(r"#.*", "", group.strip("()"))))
    return names


def test_every_documented_top_level_name_resolves():
    names = _documented_names()
    assert {"solve", "Grid3D", "Service"} <= names
    missing = sorted(n for n in names
                     if not hasattr(repro, n)
                     and importlib.util.find_spec(f"repro.{n}") is None)
    assert not missing, f"repro has no attribute or submodule {missing}"
