"""Compiled proxy plans against the autograd kernels they replace.

The module-tree kernels (``batched_ntk_jacobian`` over ``build_supernet`` /
``build_network``, ``batched_line_patterns`` over ``LinearRegionNetwork``)
are the oracle: a plan over a weight bank must reproduce their Jacobians,
Grams, condition numbers and line-region counts as float hex, in float64
and float32, for any supernet state or genotype.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd.precision import precision
from repro.engine.kernels import (
    batched_line_patterns,
    batched_ntk_jacobian,
    count_regions_per_line,
)
from repro.engine.plan import (
    LinePlan,
    NtkPlan,
    SupernetChunk,
    draw_lr_bank,
    draw_ntk_bank,
    supernet_lr_bank,
    supernet_ntk_bank,
)
from repro.errors import ProxyError, SearchSpaceError
from repro.eval.benchconfig import reduced_proxy_config
from repro.proxies import ntk as ntk_module
from repro.proxies.base import resize_batch
from repro.proxies.linear_regions import (
    LinearRegionNetwork,
    _draw_lines,
    count_line_regions,
    supernet_line_regions,
)
from repro.proxies.ntk import (
    NtkResult,
    _eigvalsh_desc,
    ntk_condition_number,
    ntk_grams,
    ntk_spectrum,
    supernet_ntk_condition_number,
)
from repro.searchspace.cell import EdgeSpec
from repro.searchspace.genotype import Genotype
from repro.searchspace.network import build_network, build_supernet
from repro.searchspace.ops import CANDIDATE_OPS
from repro.utils.rng import new_rng, stable_seed

pytestmark = pytest.mark.kernels

DTYPES = ("float64", "float32")

#: One edge's alive ops: any subset of the candidates, in any order.
edge_ops = st.lists(st.sampled_from(CANDIDATE_OPS), unique=True, max_size=5)
states = st.one_of(
    st.lists(edge_ops, min_size=6, max_size=6),
    st.just([[]] * 6),                       # every edge pruned away
    st.just([["none"]] * 6),                 # every edge zeroised
    st.lists(st.sampled_from(CANDIDATE_OPS), min_size=6,
             max_size=6).map(lambda ops: [[op] for op in ops]),
)
genotypes = st.integers(0, 15624).map(Genotype.from_index)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _specs(state):
    return [EdgeSpec(i, tuple(ops)) for i, ops in enumerate(state)]


def _kappa(gram) -> str:
    return NtkResult(_eigvalsh_desc(gram), gram.shape[0]).k(1).hex()


def _supernet_oracle(config, state):
    """The module-tree path ``supernet_ntk_condition_number`` used to run."""
    generator = new_rng(stable_seed("ntk-super", config.seed, 0))
    images = generator.normal(size=(config.ntk_batch_size, 3,
                                    config.input_size, config.input_size))
    network = build_supernet(_specs(state), config.macro_config(),
                             rng=generator)
    return network, batched_ntk_jacobian(network, images)


def _lr_oracle(config, state, generator):
    network = LinearRegionNetwork(state, config.lr_channels,
                                  config.lr_num_cells, rng=generator)
    size = config.lr_input_size
    starts, stops = _draw_lines(generator, (3, size, size), 4)
    return network, batched_line_patterns(network, starts, stops,
                                          config.lr_num_samples)


def _check_ntk(plan, bank, network, oracle, images=None):
    jacobian = plan.jacobian(bank, images)
    assert _same_bits(jacobian, oracle)
    gram, oracle_gram = plan.gram(bank, images), oracle @ oracle.T
    assert _same_bits(gram, oracle_gram)
    assert _kappa(gram) == _kappa(oracle_gram)
    assert all(_same_bits(mine, theirs.data) for mine, theirs in
               zip(plan.parameters(bank), network.parameters()))
    assert len(plan.parameters(bank)) == len(network.parameters())


@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=12, deadline=None)
@given(state=states)
def test_supernet_plan_matches_module_tree(tiny_proxy_config, dtype, cells,
                                           state):
    config = replace(tiny_proxy_config.with_precision(dtype),
                     cells_per_stage=cells, lr_num_cells=cells)
    with precision(dtype):
        plan = NtkPlan(state, config.macro_config(), supercell=True)
        network, oracle = _supernet_oracle(config, state)
        _check_ntk(plan, supernet_ntk_bank(config, 0), network, oracle)

        lines = LinePlan(state, config.lr_channels, config.lr_num_cells,
                         config.lr_input_size)
        bank = supernet_lr_bank(config, 0, 4)
        _, patterns = _lr_oracle(
            config, state, new_rng(stable_seed("lr-super", config.seed, 0)))
        assert np.array_equal(lines.patterns(bank), patterns)
        assert np.array_equal(lines.count(bank),
                              count_regions_per_line(patterns))


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=12, deadline=None)
@given(genotype=genotypes, seed=st.integers(0, 2**31))
def test_genotype_plan_matches_module_tree(tiny_proxy_config, dtype,
                                           genotype, seed):
    config = tiny_proxy_config.with_precision(dtype)
    op_sets = [(op,) for op in genotype.ops]
    images = np.random.default_rng(seed).normal(
        size=(config.ntk_batch_size, 3, config.input_size, config.input_size))
    with precision(dtype):
        plan = NtkPlan(op_sets, config.macro_config(), supercell=False)
        bank = draw_ntk_bank(op_sets, config.macro_config(), new_rng(seed))
        network = build_network(genotype, config.macro_config(), rng=seed)
        _check_ntk(plan, bank, network, batched_ntk_jacobian(network, images),
                   images)

        lines = LinePlan(op_sets, config.lr_channels, config.lr_num_cells,
                         config.lr_input_size)
        _, patterns = _lr_oracle(config, op_sets, new_rng(seed))
        assert np.array_equal(
            lines.patterns(draw_lr_bank(op_sets, config, new_rng(seed), 4)),
            patterns)


def _large_plane_config(config, dtype):
    """16×16 inputs and a small batch: planes over 64 pixels, where the
    unfold is strided, the fold runs NCHW and the pool adjoint HWNC."""
    return replace(config.with_precision(dtype), input_size=16,
                   ntk_batch_size=3)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=6, deadline=None)
@given(state=states)
@example(state=[list(CANDIDATE_OPS)] * 6)
def test_supernet_plan_matches_module_tree_on_large_planes(
        tiny_proxy_config, dtype, state):
    config = _large_plane_config(tiny_proxy_config, dtype)
    with precision(dtype):
        plan = NtkPlan(state, config.macro_config(), supercell=True)
        network, oracle = _supernet_oracle(config, state)
        _check_ntk(plan, supernet_ntk_bank(config, 0), network, oracle)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=6, deadline=None)
@given(genotype=genotypes, seed=st.integers(0, 2**31))
@example(genotype=Genotype(("nor_conv_3x3", "avg_pool_3x3", "nor_conv_1x1",
                            "skip_connect", "avg_pool_3x3", "nor_conv_3x3")),
         seed=11)
def test_genotype_plan_matches_module_tree_on_large_planes(
        tiny_proxy_config, dtype, genotype, seed):
    config = _large_plane_config(tiny_proxy_config, dtype)
    op_sets = [(op,) for op in genotype.ops]
    images = np.random.default_rng(seed).normal(
        size=(config.ntk_batch_size, 3, config.input_size, config.input_size))
    with precision(dtype):
        plan = NtkPlan(op_sets, config.macro_config(), supercell=False)
        bank = draw_ntk_bank(op_sets, config.macro_config(), new_rng(seed))
        network = build_network(genotype, config.macro_config(), rng=seed)
        _check_ntk(plan, bank, network, batched_ntk_jacobian(network, images),
                   images)


@pytest.mark.parametrize("dtype", DTYPES)
def test_bank_arrays_are_the_module_parameters_and_read_only(
        tiny_proxy_config, dtype):
    config = tiny_proxy_config.with_precision(dtype)
    state = [list(CANDIDATE_OPS)] * 6
    bank = supernet_ntk_bank(config, 0)
    with precision(dtype):
        network, _ = _supernet_oracle(config, state)
        params = NtkPlan(state, config.macro_config(), True).parameters(bank)
    assert len(params) == len(network.parameters())
    assert all(_same_bits(mine, theirs.data)
               for mine, theirs in zip(params, network.parameters()))
    lr_bank = supernet_lr_bank(config, 0, 4)
    with precision(dtype):
        network, _ = _lr_oracle(
            config, state, new_rng(stable_seed("lr-super", config.seed, 0)))
        lr_params = LinePlan(state, config.lr_channels, config.lr_num_cells,
                             config.lr_input_size).parameters(lr_bank)
    assert len(lr_params) == len(network.parameters())
    assert all(_same_bits(mine, theirs.data)
               for mine, theirs in zip(lr_params, network.parameters()))
    for array in (list(bank.arrays.values()) + params + [bank.inputs]
                  + list(lr_bank.arrays.values()) + lr_params
                  + [lr_bank.inputs]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    with pytest.raises(TypeError):
        bank.arrays[("stem",)] = bank.arrays[("stem",)]
    assert bank.inputs.dtype == lr_bank.inputs.dtype == np.dtype(dtype)


def test_state_order_does_not_leak(tiny_proxy_config):
    """A then B gives the rows B then A gives, whatever the bank saw."""
    a = [list(CANDIDATE_OPS)] * 6
    b = [["nor_conv_3x3", "skip_connect"], ["none"], [], ["avg_pool_3x3"],
         ["nor_conv_1x1"], ["skip_connect", "nor_conv_3x3"]]

    def rows(first, second):
        supernet_ntk_bank.cache_clear()
        supernet_lr_bank.cache_clear()
        out = []
        for state in (first, second):
            out.append(supernet_ntk_condition_number(_specs(state),
                                                     tiny_proxy_config).hex())
            out.append(supernet_line_regions(state, tiny_proxy_config).hex())
        return out

    forward, backward = rows(a, b), rows(b, a)
    assert forward == backward[2:] + backward[:2]


def test_plans_on_threads_match_serial(tiny_proxy_config):
    rng = np.random.default_rng(5)
    state_list = [[[str(op) for op in
                    rng.permutation(CANDIDATE_OPS)[:rng.integers(6)]]
                   for _ in range(6)] for _ in range(8)]
    bank = supernet_ntk_bank(tiny_proxy_config, 0)
    plans = [NtkPlan(s, tiny_proxy_config.macro_config(), True)
             for s in state_list]
    serial = [p.jacobian(bank) for p in plans]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda p: p.jacobian(bank), plans * 3))
    assert all(_same_bits(t, s) for t, s in zip(threaded, serial * 3))


def test_supernet_rows_on_the_thread_pool_match_serial(tiny_proxy_config):
    from repro.engine import Engine
    from repro.runtime.async_pool import AsyncPopulationExecutor
    from repro.search.objective import HybridObjective

    base = _specs([CANDIDATE_OPS] * 6)
    state_list = [[spec.without(op) if spec.edge_index == edge else spec
                   for spec in base]
                  for edge in range(6) for op in CANDIDATE_OPS[:2]]
    serial = HybridObjective(engine=Engine(proxy_config=tiny_proxy_config)
                             ).supernet_population(state_list)
    with AsyncPopulationExecutor(n_workers=2, chunk_size=1,
                                 mode="thread") as executor:
        threaded = HybridObjective(
            engine=Engine(proxy_config=tiny_proxy_config, executor=executor)
        ).supernet_population(state_list)
        assert executor.stats.mode == "thread"
    assert threaded == serial


# ----------------------------------------------------------------------
# The proxy entry points run on plans in batched mode
# ----------------------------------------------------------------------
def _kappa_of(jacobian) -> float:
    return NtkResult(_eigvalsh_desc(jacobian @ jacobian.T),
                     jacobian.shape[0]).k(1)


def _oracle_supernet(config, state):
    """What the module-tree path gave for a supernet state: (κ, LR)."""
    kappas, counts = [], []
    for repeat in range(config.repeats):
        generator = new_rng(stable_seed("ntk-super", config.seed, repeat))
        images = generator.normal(size=(config.ntk_batch_size, 3,
                                        config.input_size, config.input_size))
        network = build_supernet(_specs(state), config.macro_config(),
                                 rng=generator)
        kappas.append(_kappa_of(batched_ntk_jacobian(network, images)))
        _, patterns = _lr_oracle(
            config, state, new_rng(stable_seed("lr-super", config.seed, repeat)))
        counts.extend(count_regions_per_line(patterns))
    return float(np.mean(kappas)), float(np.mean(counts))


def _oracle_genotype(config, genotype):
    """What the module-tree path gave for a genotype: (Grams, κ, LR)."""
    grams, counts, network = [], [], None
    for repeat in range(config.repeats):
        generator = new_rng(stable_seed("ntk", config.seed, repeat,
                                        genotype.to_index()))
        images = generator.normal(size=(config.ntk_batch_size, 3,
                                        config.input_size, config.input_size))
        if network is None:
            network = build_network(genotype, config.macro_config(),
                                    rng=generator)
        jacobian = batched_ntk_jacobian(network, images)
        grams.append(jacobian @ jacobian.T)
        _, patterns = _lr_oracle(
            config, [(op,) for op in genotype.ops],
            new_rng(stable_seed("lr", config.seed, repeat, genotype.to_index())))
        counts.extend(count_regions_per_line(patterns))
    kappas = [NtkResult(_eigvalsh_desc(g), g.shape[0]).k(1) for g in grams]
    return grams, float(np.mean(kappas)), float(np.mean(counts))


def _forbidden(*args, **kwargs):
    raise AssertionError("a batched proxy ran a module tree")


@pytest.mark.parametrize("dtype", DTYPES)
def test_entry_points_equal_the_module_tree_path(tiny_proxy_config,
                                                 heavy_genotype, dtype,
                                                 monkeypatch):
    config = replace(tiny_proxy_config.with_precision(dtype), repeats=2)
    state = [["nor_conv_3x3", "none"], ["skip_connect"], [],
             ["avg_pool_3x3", "nor_conv_1x1"], ["none"], list(CANDIDATE_OPS)]
    images = np.random.default_rng(3).normal(size=(5, 3, 12, 12))
    with precision(dtype):
        supernet = _oracle_supernet(config, state)
        genotype = _oracle_genotype(config, heavy_genotype)
        network = build_network(heavy_genotype, config.macro_config(), rng=2)
        fixed = resize_batch(images, config.input_size)
        spectrum = _eigvalsh_desc(ntk_module.compute_ntk_gram(network, fixed))
    monkeypatch.setattr("repro.nn.module.Module.__call__", _forbidden)
    monkeypatch.setattr("repro.searchspace.network.build_supernet", _forbidden)
    monkeypatch.setattr("repro.searchspace.network.build_network", _forbidden)
    assert supernet_ntk_condition_number(_specs(state), config) == supernet[0]
    assert supernet_line_regions(state, config) == supernet[1]
    grams = ntk_grams(heavy_genotype, config)
    assert len(grams) == 2
    assert all(map(_same_bits, grams, genotype[0]))
    assert ntk_condition_number(heavy_genotype, config) == genotype[1]
    assert count_line_regions(heavy_genotype, config) == genotype[2]
    eigenvalues = ntk_spectrum(heavy_genotype, config, images=images,
                               rng=2).eigenvalues
    assert _same_bits(eigenvalues, spectrum)


def test_plans_reject_what_the_modules_reject(tiny_proxy_config):
    macro = tiny_proxy_config.macro_config()
    with pytest.raises(SearchSpaceError):
        NtkPlan([["conv_5x5"]] * 6, macro, supercell=True)
    with pytest.raises(SearchSpaceError):
        NtkPlan([["none"]] * 5, macro, supercell=True)
    with pytest.raises(SearchSpaceError):
        NtkPlan([["none", "skip_connect"]] * 6, macro, supercell=False)
    with pytest.raises(ProxyError):
        LinePlan([["conv_5x5"]] * 6, 2, 1, 4)
    with pytest.raises(ProxyError):
        supernet_line_regions([["none"]] * 6, tiny_proxy_config, mode="nope")


# ----------------------------------------------------------------------
# Chunks: plans compiled alone, forward values shared
# ----------------------------------------------------------------------
#: A pruning round: a base state, and one state per alive op it removes.
rounds = st.lists(
    st.lists(st.sampled_from(CANDIDATE_OPS), unique=True, min_size=1,
             max_size=5).map(lambda ops: tuple(op for op in CANDIDATE_OPS
                                               if op in ops)),
    min_size=6, max_size=6)


def _removals(base):
    return [tuple(tuple(op for op in ops if (edge, op) != (e, removed))
                  for edge, ops in enumerate(base))
            for e, ops in enumerate(base) for removed in ops]


def _alone(config, state):
    """One state compiled and run by itself: the oracle."""
    plan = NtkPlan(state, config.macro_config(), supercell=True)
    lines = LinePlan(state, config.lr_channels, config.lr_num_cells,
                     config.lr_input_size)
    return (plan.jacobian(supernet_ntk_bank(config, 0)),
            lines.patterns(supernet_lr_bank(config, 0, 4)))


def _in_chunk(config, chunk_states):
    """Every state's Jacobian and line patterns, run as one chunk."""
    ntk, lines, out = SupernetChunk(chunk_states), SupernetChunk(chunk_states), {}
    for state in chunk_states:
        plan = ntk.ntk_plan(state, config.macro_config())
        line_plan = lines.line_plan(state, config.lr_channels,
                                    config.lr_num_cells, config.lr_input_size)
        assert plan is not None and line_plan is not None
        out[state] = (plan.jacobian(supernet_ntk_bank(config, 0)),
                      line_plan.patterns(supernet_lr_bank(config, 0, 4)))
    return out


@pytest.mark.parametrize("scale", ["tiny", "reduced"])
@settings(max_examples=10, deadline=None)
@given(base=rounds, data=st.data())
def test_chunk_plans_match_states_compiled_alone(tiny_proxy_config, scale,
                                                 base, data):
    """Chunk plans plus shared values give every state's Jacobian, Gram
    and line patterns as float hex, whatever the chunk holds."""
    config = tiny_proxy_config if scale == "tiny" else reduced_proxy_config()
    states = _removals(base)
    chunk = data.draw(st.lists(st.sampled_from(states), unique=True,
                               min_size=1, max_size=8))
    with precision(config.precision):
        for state, (jacobian, patterns) in _in_chunk(config, chunk).items():
            alone_jacobian, alone_patterns = _alone(config, state)
            assert _same_bits(jacobian, alone_jacobian)
            assert _same_bits(jacobian @ jacobian.T,
                              alone_jacobian @ alone_jacobian.T)
            assert _same_bits(patterns, alone_patterns)


@settings(max_examples=6, deadline=None)
@given(base=rounds, seed=st.integers(0, 2**16), size=st.integers(1, 8))
def test_chunk_order_and_size_change_no_value(tiny_proxy_config, base, seed,
                                              size):
    config = tiny_proxy_config
    states = _removals(base)
    shuffled = list(states)
    np.random.default_rng(seed).shuffle(shuffled)
    with precision(config.precision):
        whole = {}
        for start in range(0, len(states), 8):
            whole.update(_in_chunk(config, states[start:start + 8]))
        for start in range(0, len(shuffled), size):
            for state, values in _in_chunk(
                    config, shuffled[start:start + size]).items():
                assert all(_same_bits(a, b)
                           for a, b in zip(values, whole[state]))


def test_shared_values_are_read_only(tiny_proxy_config):
    """A value one state computed and another reuses cannot be written."""
    config = tiny_proxy_config
    states = _removals([CANDIDATE_OPS] * 6)[:4]
    chunk = SupernetChunk(states)
    with precision(config.precision):
        plans = [chunk.ntk_plan(state, config.macro_config())
                 for state in states]
        plans[0].jacobian(supernet_ntk_bank(config, 0))
    values, keys, _ = plans[1]._shared
    (entries, _, _), = values._banks.values()
    assert entries
    for value, saved in entries.values():
        for array in (value,) + (saved if isinstance(saved, tuple)
                                 else (saved,)):
            if isinstance(array, np.ndarray):
                with pytest.raises(ValueError):
                    array[...] = 0


def test_a_chunk_states_plan_is_handed_out_once(tiny_proxy_config):
    """Chunk plans go to their caller; a state the chunk does not hold,
    or one asked for again, gets None (the proxies compile it alone)."""
    macro = tiny_proxy_config.macro_config()
    states = _removals([("none", "skip_connect")] * 6)[:3]
    chunk = SupernetChunk(states)
    with precision(tiny_proxy_config.precision):
        assert chunk.ntk_plan(states[0], macro) is not None
        assert chunk.ntk_plan(states[0], macro) is None
        assert chunk.ntk_plan([["none"]] * 6, macro) is None


def test_chunk_plans_share_only_the_banks_inputs(tiny_proxy_config):
    """A chunk plan run on other images, or run again, computes its
    values itself; states that order an edge's ops differently still get
    their own values."""
    config = tiny_proxy_config
    macro = config.macro_config()
    states = [(("none", "skip_connect"),) + (CANDIDATE_OPS,) * 5,
              (("skip_connect", "none"),) + (CANDIDATE_OPS,) * 5,
              ((),) + (CANDIDATE_OPS,) * 5]
    images = np.random.default_rng(5).normal(size=(3, 3, 8, 8))
    chunk = SupernetChunk(states)
    with precision(config.precision):
        bank = supernet_ntk_bank(config, 0)
        plans = [chunk.ntk_plan(state, macro) for state in states]
        assert all(plan._shared is not None for plan in plans)
        for state, plan in zip(states, plans):
            alone = NtkPlan(state, macro, supercell=True)
            assert _same_bits(plan.jacobian(bank, images),
                              alone.jacobian(bank, images))
            assert _same_bits(plan.jacobian(bank), alone.jacobian(bank))
            assert _same_bits(plan.jacobian(bank), alone.jacobian(bank))
