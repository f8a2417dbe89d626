"""The run harness imports what its runs execute, and runs import nothing.

Each check runs in a fresh interpreter (``PYTHONPATH=src``), because this
test session has long since imported the whole package.

* ``import repro.runtime.harness`` and ``import repro.cli`` leave the
  module tree (:mod:`repro.nn`, the network and cell builders, the
  module-tree kernels, the autograd tape and its ops), benchmark data
  and the reporting, int8, graph, deployment, alternative-latency,
  macro-search and training code unloaded.  The compiled proxy plans
  call the window kernels of ``repro.autograd.arrays``, which imports
  neither ``repro.autograd.tensor`` nor ``repro.autograd.functional``.
* A harness built for a pruning run or a device-matrix run has imported
  everything its run needs: ``run()`` / ``run_matrix()`` add no
  ``repro`` module, so no import lands in the timed search (or, for
  forked pool workers, after the fork).
"""

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

NOT_LOADED = (
    "repro.nn",
    "repro.autograd.tensor",
    "repro.autograd.functional",
    "repro.searchspace.network",
    "repro.searchspace.cell",
    "repro.engine.kernels",
    "repro.proxies.analysis",
    "repro.benchdata",
    "repro.eval.report",
    "repro.hardware.graphopt",
    "repro.hardware.int8_infer",
    "repro.hardware.latency_models",
    "repro.hardware.deploy",
    "repro.search.macro",
    "repro.train",
    "repro.utils.tabulate",
)

#: Upper bound on the harness import's ``repro`` modules (85 before the
#: package re-exports became lazy).
MAX_HARNESS_MODULES = 50


def _run(code: str):
    """Run ``code`` in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str):
    return _run(
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))")


def test_harness_import_leaves_the_module_tree_unloaded():
    loaded = _loaded_after("import repro.runtime.harness")
    assert not set(NOT_LOADED) & set(loaded)
    assert len(loaded) <= MAX_HARNESS_MODULES, loaded


def test_cli_import_leaves_the_module_tree_unloaded():
    loaded = _loaded_after("import repro.cli")
    assert not set(NOT_LOADED) & set(loaded)
    assert set(loaded) <= set(_loaded_after("import repro.runtime.harness")
                              + ["repro.cli"])


def _modules_a_run_imports(config: str, method: str):
    return _run(
        "import json, sys\n"
        "from repro.runtime.harness import RunHarness, RuntimeConfig\n"
        f"harness = RunHarness(RuntimeConfig({config}))\n"
        "before = set(sys.modules)\n"
        f"harness.{method}()\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before"
        " if m.startswith('repro'))))")


def test_pruning_run_imports_nothing():
    assert _modules_a_run_imports(
        "algorithm='pruning', fast=True, n_workers=1, latency_weight=0.5, "
        "flops_weight=0.5", "run") == []


def test_device_matrix_run_imports_nothing():
    assert _modules_a_run_imports(
        "samples=12, fast=True, devices=('nucleo-f746zg', 'nucleo-l432kc'), "
        "objectives=('latency', 'energy,peak-mem')", "run_matrix") == []


def test_serial_run_does_not_load_multiprocessing():
    loaded = _run(
        "import json, sys\n"
        "from repro.runtime.harness import RunHarness, RuntimeConfig\n"
        "RunHarness(RuntimeConfig(algorithm='random', samples=4, fast=True,"
        " n_workers=1)).run()\n"
        "print(json.dumps('multiprocessing' in sys.modules))")
    assert loaded is False
