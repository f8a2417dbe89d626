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
* Start-up loads only what the run executes.  The harness import loads
  neither the proxies and their compiled plans nor
  ``concurrent.futures`` (which brings ``logging``); a cold harness
  imports the proxies while it is built, a fork-mode harness
  ``concurrent.futures``, and a fully warm run never loads the proxies.
  Building a LUT never loads ``numpy.ma``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.runtime.pool import _fork_available

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

#: What the chunk functions compute with (see ``repro.runtime.pool``).
COMPUTE = ("repro.engine.plan", "repro.proxies.ntk",
           "repro.proxies.linear_regions")

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


def _loaded(statements: str, modules) -> list:
    """Which of ``modules`` are loaded after ``statements`` run."""
    return _run(
        "import json, sys\n"
        f"{statements}\n"
        f"print(json.dumps([m for m in {tuple(modules)!r}"
        " if m in sys.modules]))")


def test_serial_cold_harness_loads_no_numpy_ma_futures_or_logging():
    assert _loaded(
        "from repro.runtime.harness import RunHarness, RuntimeConfig\n"
        "harness = RunHarness(RuntimeConfig(algorithm='pruning', fast=True,"
        " n_workers=1))\n"
        "harness.engine.latency_estimator",
        ("numpy.ma", "concurrent.futures", "logging")) == []


@pytest.mark.skipif(not _fork_available(), reason="needs fork")
def test_fork_harness_loads_futures_before_its_run():
    assert _run(
        "import json, sys\n"
        "import repro.runtime.harness as harness\n"
        "imported = 'concurrent.futures' in sys.modules\n"
        "harness.RunHarness(harness.RuntimeConfig(algorithm='random',"
        " samples=4, fast=True, n_workers=2))\n"
        "print(json.dumps([imported, 'concurrent.futures' in sys.modules]))"
    ) == [False, True]


def test_cold_harness_loads_the_proxies_while_it_is_built():
    assert _loaded("import repro.runtime.harness", COMPUTE) == []
    assert _loaded(
        "from repro.runtime.harness import RunHarness, RuntimeConfig\n"
        "RunHarness(RuntimeConfig(algorithm='pruning', fast=True))",
        COMPUTE) == list(COMPUTE)


MATRIX = ("samples=12, fast=True, devices=('nucleo-f746zg',), "
          "objectives=('latency', 'energy,peak-mem')")


def _fill(store_dir, samples=12):
    from repro.runtime.harness import RunHarness, RuntimeConfig

    RunHarness(RuntimeConfig(
        samples=samples, fast=True, devices=("nucleo-f746zg",),
        objectives=("latency", "energy,peak-mem"),
        store_dir=str(store_dir))).run_matrix()


def test_warm_matrix_run_never_loads_the_proxies(tmp_path):
    _fill(tmp_path)
    assert _loaded(
        "from repro.runtime.harness import RunHarness, RuntimeConfig\n"
        f"harness = RunHarness(RuntimeConfig({MATRIX}, n_workers=1,"
        f" store_dir={str(tmp_path)!r}))\n"
        "report = harness.run_matrix()\n"
        "assert report.trainless_evals['rows_computed'] == 0",
        COMPUTE) == []


@pytest.mark.skipif(not _fork_available(), reason="needs fork")
def test_partly_warm_run_loads_the_proxies_before_the_pool_forks(tmp_path):
    """A run that replayed rows loads the proxies at its first chunk that
    computes, in the parent, before the first worker forks."""
    _fill(tmp_path, samples=4)
    assert _run(
        "import json, os, sys\n"
        f"compute = {COMPUTE!r}\n"
        "at_fork = []\n"
        "os.register_at_fork(before=lambda: at_fork.append(\n"
        "    all(m in sys.modules for m in compute)))\n"
        "from repro.runtime.harness import RunHarness, RuntimeConfig\n"
        f"harness = RunHarness(RuntimeConfig({MATRIX}, n_workers=2,"
        f" store_dir={str(tmp_path)!r}))\n"
        "built = [m for m in compute if m in sys.modules]\n"
        "report = harness.run_matrix()\n"
        "computed = report.trainless_evals['rows_computed'] > 0\n"
        "print(json.dumps([harness.warm_entries > 0, built, computed,\n"
        "                  bool(at_fork) and all(at_fork)]))"
    ) == [True, [], True, True]


def test_classify_failure_knows_a_lost_pool_without_importing_futures():
    assert _run(
        "import json, sys\n"
        "from repro.runtime.faults import WORKER_LOST, classify_failure\n"
        "poison = classify_failure(ValueError('compute'))\n"
        "imported = 'concurrent.futures' in sys.modules\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "lost = classify_failure(BrokenProcessPool('worker died'))\n"
        "print(json.dumps([poison, imported, lost == WORKER_LOST]))"
    ) == ["poison", False, True]
