"""The batched NTK kernel reuses the forward's conv columns, safely.

``batched_ntk_jacobian`` contracts each conv's output gradient with the
im2col columns its forward already built (collected by
``functional.keep_columns``) instead of unfolding the conv input again.
These tests pin that the Jacobian is bit-identical to re-unfolding, that
concurrent kernels on different networks do not see each other's
columns, and that nothing captured outlives the call.
"""

import sys
import threading

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.precision import precision
from repro.engine import kernels
from repro.engine.kernels import batched_ntk_jacobian
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.searchspace.network import build_network
from tests.autograd.test_fast_paths import old_im2col

pytestmark = pytest.mark.kernels


def _network(genotype, config, seed=0):
    net = build_network(genotype, config.macro_config(), rng=seed)
    net.train(False)
    return net


def _images(config, seed, dtype="float64"):
    rng = np.random.default_rng(seed)
    shape = (config.ntk_batch_size, 3, config.input_size, config.input_size)
    return rng.standard_normal(shape).astype(dtype)


@pytest.fixture
def reunfolding(monkeypatch):
    """Run the kernel as it was before column reuse: every captured conv
    input unfolded again with the ``np.pad`` im2col.  Records how many
    conv calls handed over forward columns equal to the re-unfolded ones."""
    original = kernels._per_sample_grads
    matched = []

    def per_sample(module, x, grad, batch, cols):
        if isinstance(module, Conv2d):
            fresh, _ = old_im2col(x.data, module.kernel_size, module.stride,
                                  module.padding)
            matched.append(np.array_equal(cols, fresh))
            cols = fresh
        return original(module, x, grad, batch, cols)

    monkeypatch.setattr(kernels, "_per_sample_grads", per_sample)
    return matched


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("which", ["heavy", "light"])
def test_jacobian_bit_identical_to_reunfolding(request, tiny_proxy_config,
                                               which, dtype):
    genotype = request.getfixturevalue(f"{which}_genotype")
    with precision(dtype):
        images = _images(tiny_proxy_config, 1, dtype)
        fast = batched_ntk_jacobian(_network(genotype, tiny_proxy_config),
                                    images)
        matched = request.getfixturevalue("reunfolding")
        slow = batched_ntk_jacobian(_network(genotype, tiny_proxy_config),
                                    images)
    assert matched and all(matched)
    assert fast.dtype == slow.dtype == np.dtype(dtype)
    assert np.array_equal(fast, slow)


def test_concurrent_threads_match_serial(tiny_proxy_config, heavy_genotype,
                                         light_genotype):
    """Threads (more than the cores) on different networks, switching
    every few microseconds, each get exactly their serial Jacobian."""
    jobs = [(heavy_genotype, 3), (light_genotype, 4), (heavy_genotype, 5),
            (light_genotype, 6)]
    serial = [
        batched_ntk_jacobian(_network(g, tiny_proxy_config, seed),
                             _images(tiny_proxy_config, seed))
        for g, seed in jobs
    ]
    rounds = 4
    results = [[] for _ in jobs]
    barrier = threading.Barrier(len(jobs), timeout=60)
    errors = []

    def work(slot, genotype, seed):
        try:
            net = _network(genotype, tiny_proxy_config, seed)
            images = _images(tiny_proxy_config, seed)
            for _ in range(rounds):
                barrier.wait()
                results[slot].append(batched_ntk_jacobian(net, images))
        except Exception as exc:  # surfaced in the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(slot, g, seed))
               for slot, (g, seed) in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for expected, got in zip(serial, results):
        assert len(got) == rounds
        for jacobian in got:
            assert np.array_equal(jacobian, expected)


def _module_state(net):
    return [(type(m).__name__, sorted(vars(m)), dict(m._forward_hooks))
            for m in net.modules()]


def _assert_nothing_captured(net, state_before, flags_before):
    assert getattr(F._COLUMNS, "sink", None) is None
    assert _module_state(net) == state_before
    for module in net.modules():
        assert not module._forward_hooks
        if isinstance(module, BatchNorm2d):
            assert not module.freeze_stats_on_forward
    assert [p.requires_grad for p in net.parameters()] == flags_before


def test_nothing_captured_survives_a_normal_return(tiny_proxy_config,
                                                   heavy_genotype):
    net = _network(heavy_genotype, tiny_proxy_config)
    state = _module_state(net)
    flags = [p.requires_grad for p in net.parameters()]
    batched_ntk_jacobian(net, _images(tiny_proxy_config, 0))
    _assert_nothing_captured(net, state, flags)


def test_nothing_captured_survives_a_failed_forward(tiny_proxy_config,
                                                    heavy_genotype):
    net = _network(heavy_genotype, tiny_proxy_config)
    state = _module_state(net)
    flags = [p.requires_grad for p in net.parameters()]
    last_conv = [m for m in net.modules() if isinstance(m, Conv2d)][-1]

    def failing_forward(x):
        # The conv runs (and its columns reach the sink) before the raise.
        Conv2d.forward(last_conv, x)
        assert F._COLUMNS.sink
        raise RuntimeError("forward failed")

    last_conv.forward = failing_forward
    with pytest.raises(RuntimeError, match="forward failed"):
        batched_ntk_jacobian(net, _images(tiny_proxy_config, 0))
    del last_conv.forward
    _assert_nothing_captured(net, state, flags)
