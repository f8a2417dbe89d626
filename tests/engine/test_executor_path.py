"""The engine's one compute path: every proxy row comes from its executor.

The engine computes no NTK or line-region row itself.  On a miss it asks
its executor (``Engine(executor=...)``, or a serial one built on first
use), whose chunk workers are the only code that runs the proxies.
"""

import os
import subprocess
import sys

import pytest

from repro.engine import Engine
from repro.proxies.linear_regions import count_line_regions, supernet_line_regions
from repro.proxies.ntk import ntk_condition_number, supernet_ntk_condition_number
from repro.runtime.async_pool import AsyncPopulationExecutor, ChunkGatherError
from repro.searchspace.canonical import canonicalize
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.ops import CANDIDATE_OPS
from repro.searchspace.space import NasBench201Space

pytestmark = pytest.mark.executor


def _raise(payload):
    raise RuntimeError("worker called")


def _states():
    full = [EdgeSpec(i, tuple(CANDIDATE_OPS)) for i in range(6)]
    return [full,
            [full[0].without("none")] + full[1:],
            [EdgeSpec(i, ("nor_conv_3x3", "skip_connect")) for i in range(6)]]


def test_engine_import_does_not_load_runtime():
    code = ("import sys, repro.engine; "
            "print(any(m.startswith('repro.runtime') for m in sys.modules))")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False"]


def test_default_executor_is_serial_and_shared_by_siblings(tiny_proxy_config):
    from repro.hardware.device import NUCLEO_F411RE

    engine = Engine(proxy_config=tiny_proxy_config)
    executor = engine.executor
    assert isinstance(executor, AsyncPopulationExecutor)
    assert executor.stats.mode == "serial"
    assert engine.executor is executor  # built once
    assert engine.for_device(NUCLEO_F411RE).executor is executor


def test_no_inline_fallback(tiny_proxy_config, heavy_genotype):
    """With workers that raise, every proxy accessor raises: nothing in
    the engine computes a row behind the executor's back."""
    executor = AsyncPopulationExecutor(n_workers=1, genotype_worker=_raise,
                                       supernet_worker=_raise)
    engine = Engine(proxy_config=tiny_proxy_config, executor=executor)
    specs = _states()[0]
    calls = [
        lambda: engine.ntk(heavy_genotype),
        lambda: engine.linear_regions(heavy_genotype),
        lambda: engine.evaluate(heavy_genotype),
        lambda: engine.evaluate_population([heavy_genotype]),
        lambda: engine.supernet_ntk(specs),
        lambda: engine.supernet_linear_regions(specs),
    ]
    for call in calls:
        with pytest.raises(ChunkGatherError, match="worker called"):
            call()
    assert len(engine.cache) == 0


def test_quarantined_candidate_has_no_row(tiny_proxy_config, heavy_genotype,
                                          tmp_path):
    """A candidate the executor quarantines as poison is not computed
    anywhere else: the accessor says so instead of returning a value."""
    from repro.errors import ProxyError
    from repro.runtime.faults import FaultPlan, FaultPolicy
    from repro.runtime.pool import _evaluate_genotype_chunk

    target = canonicalize(heavy_genotype).to_index()
    plan = FaultPlan(state_path=str(tmp_path / "s"),
                     script={target: ("poison",)})
    executor = AsyncPopulationExecutor(
        n_workers=1, genotype_worker=plan.wrap(_evaluate_genotype_chunk),
        fault_policy=FaultPolicy(sleep=lambda seconds: None))
    engine = Engine(proxy_config=tiny_proxy_config, executor=executor)
    with pytest.raises(ProxyError, match="quarantined"):
        engine.ntk(heavy_genotype)
    assert executor.quarantined_genotypes == {target}


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_engine_rows_equal_direct_proxy_calls(tiny_proxy_config, precision):
    """Oracle: the executor's rows are the proxies' own values, bit for bit
    (float hex), for genotypes and supernet states."""
    config = tiny_proxy_config.with_precision(precision)
    engine = Engine(proxy_config=config)
    population = NasBench201Space().sample(4, rng=5)
    table = engine.evaluate_population(population)
    for row, genotype in enumerate(population):
        canon = canonicalize(genotype)
        ntk = ntk_condition_number(canon, config)
        lr = float(count_line_regions(canon, config))
        assert table.columns["ntk"][row].hex() == ntk.hex()
        assert table.columns["linear_regions"][row].hex() == lr.hex()
        assert engine.ntk(genotype).hex() == ntk.hex()
        assert float(engine.linear_regions(genotype)).hex() == lr.hex()
    for specs in _states():
        ntk = supernet_ntk_condition_number(specs, config)
        lr = float(supernet_line_regions([s.alive_ops for s in specs], config))
        assert engine.supernet_ntk(specs).hex() == ntk.hex()
        assert float(engine.supernet_linear_regions(specs)).hex() == lr.hex()


def test_ledger_counts_each_computed_proxy_value(tiny_proxy_config,
                                                 heavy_genotype):
    engine = Engine(proxy_config=tiny_proxy_config)
    engine.evaluate(heavy_genotype)
    engine.supernet_ntk(_states()[0])
    counts = engine.ledger.counts
    assert counts["ntk_eval"] == 2 and counts["lr_eval"] == 2
    assert engine.ledger.seconds["ntk_eval"] > 0
    engine.evaluate(heavy_genotype)  # warm: nothing computed, nothing added
    assert engine.ledger.counts["ntk_eval"] == 2
