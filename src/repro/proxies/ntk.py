"""Neural tangent kernel spectrum proxy (Section II-A-1).

The empirical NTK of a network ``f`` with parameters ``θ`` over a batch
``x_1..x_B`` is the Gram matrix::

    Θ[i, j] = < ∂ f(x_i)/∂θ , ∂ f(x_j)/∂θ >

where ``f(x_i)`` is the summed logit of sample ``i`` (TE-NAS convention).
The paper's trainability indicator is the condition number of Θ, and
Fig. 2a studies the family ``K_i = λ_max / λ_(i-th smallest)``; ``K_1`` is
the classic condition number.  Lower is better (more trainable).

``ProxyConfig.ntk_mode`` selects how the Gram is computed:

* ``"batched"`` (default) — frozen-BatchNorm NTK from ONE batched forward
  and backward.  Genotypes and supernet states run as compiled
  straight-line plans over a weight bank (:mod:`repro.engine.plan`): no
  module tree, no autograd tape.  Supernet states share one bank per
  process and ``(config, repeat)``; a genotype's bank is drawn from its
  own seed stream.  The values equal
  :func:`repro.engine.kernels.batched_ntk_jacobian` over the module tree
  the same seed builds, as float hex.
* ``"reference"`` — frozen BatchNorm, one batch-size-1 forward/backward
  per sample through the module tree; kept for validation.
* ``"coupled"`` — TE-NAS's training-mode BatchNorm with cross-sample
  coupling, one backward per sample; kept for validation.

:func:`compute_ntk_gram` takes a caller-built network and runs any mode
on it through the module tree.

The plans load with this module.  The module-tree paths (``"reference"``,
``"coupled"``, a caller-built ``network``) import the autograd tape,
:mod:`repro.nn`, the network builders and :mod:`repro.engine.kernels`
inside their functions, so importing the proxy (as every run and every
pool worker does) loads none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.autograd.precision import get_precision, precision
from repro.engine.plan import (
    NtkPlan,
    draw_ntk_bank,
    draw_supernet_ntk_bank,
    supernet_ntk_bank,
)
from repro.errors import ProxyError
from repro.proxies.base import ProxyConfig, resize_batch
from repro.searchspace.genotype import Genotype
from repro.utils.rng import SeedLike, new_rng, stable_seed

if TYPE_CHECKING:
    from repro.nn.module import Module

#: Eigenvalues below this threshold are treated as numerically zero.
_EIG_EPS = 1e-9


def _eigvalsh_desc(gram: np.ndarray) -> np.ndarray:
    """Descending eigenvalues, accumulated in the policy's safe dtype.

    Gram construction runs in the compute dtype, but the eigensolve is
    promoted to ``accumulate_dtype`` (float64 under both built-in
    policies): condition numbers magnify spectral rounding error, and the
    B×B solve costs nothing next to the Jacobian.  A float64 Gram passes
    through untouched (``astype`` with a matching dtype is a no-op view),
    keeping the default path bit-identical.
    """
    promoted = gram.astype(get_precision().accumulate_dtype, copy=False)
    return np.linalg.eigvalsh(promoted)[::-1].copy()


@dataclass(frozen=True)
class NtkResult:
    """Spectrum of one empirical NTK evaluation."""

    eigenvalues: np.ndarray  # descending order
    batch_size: int

    @property
    def condition_number(self) -> float:
        """Classic κ = λ_max / λ_min (``K_1``); ∞ for singular kernels."""
        return self.k(1)

    def k(self, index: int) -> float:
        """``K_i = λ_max / λ_(i-th smallest)`` for ``index`` in 1..B."""
        if not 1 <= index <= self.eigenvalues.size:
            raise ProxyError(
                f"K index {index} outside [1, {self.eigenvalues.size}]"
            )
        lam_max = float(self.eigenvalues[0])
        lam_i = float(self.eigenvalues[-index])
        if lam_max <= _EIG_EPS:
            return float("inf")
        if lam_i <= _EIG_EPS:
            return float("inf")
        return lam_max / lam_i


def _freeze_batch_stats(network: Module, images: np.ndarray) -> None:
    """Set every BatchNorm's running statistics to this batch's statistics.

    One forward pass with momentum temporarily forced to 1.0 makes the
    running estimates equal the batch estimates; the network is then put in
    eval mode so subsequent per-sample passes normalise consistently.
    """
    from repro.autograd import Tensor, no_grad
    from repro.nn.layers.norm import BatchNorm2d

    bns = [m for m in network.modules() if isinstance(m, BatchNorm2d)]
    saved = [bn.momentum for bn in bns]
    for bn in bns:
        bn.momentum = 1.0
    network.train(True)
    with no_grad():
        network(Tensor(images))
    for bn, momentum in zip(bns, saved):
        bn.momentum = momentum
    network.train(False)


def _collect_param_grads(params) -> np.ndarray:
    return np.concatenate(
        [
            (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
            for p in params
        ]
    )


def compute_ntk_gram(
    network: Module,
    images: np.ndarray,
    mode: str = "batched",
) -> np.ndarray:
    """Compute the empirical NTK Gram matrix over an NCHW batch.

    Three modes:

    * ``"batched"`` (default, fastest): BatchNorm statistics are frozen to
      this batch's statistics, then ONE batched forward + ONE backward
      reconstructs the full per-sample Jacobian layer-locally (see
      :func:`repro.engine.kernels.batched_ntk_jacobian`).  Exact frozen-BN
      NTK, identical to ``"reference"`` up to float summation order.
    * ``"reference"``: frozen BatchNorm statistics, one batch-size-1
      forward/backward per sample.  The pre-vectorization path, kept for
      validating the batched kernel.
    * ``"coupled"`` (exact TE-NAS semantics): one batched forward in
      training mode, then one backward per sample with a one-hot output
      seed, so gradients include the cross-sample BatchNorm coupling.
      ~B× slower; kept for validation.

    All modes return the (B, B) Gram of per-sample summed-logit gradients.
    """
    from repro.autograd import Tensor

    if mode not in ("batched", "reference", "coupled"):
        raise ProxyError(f"unknown NTK mode {mode!r}")
    batch_size = images.shape[0]
    params = network.parameters()
    if not params:
        raise ProxyError("network has no parameters; NTK undefined")

    # Per-sample Jacobians inherit the network's compute dtype, so the
    # Gram matmul below runs at the policy precision in every mode.
    jac_dtype = params[0].data.dtype

    if mode == "coupled":
        network.train(True)
        output = network(Tensor(images))
        if output.ndim != 2:
            raise ProxyError(f"expected (batch, classes) logits, got {output.shape}")
        jacobian = np.empty((batch_size, sum(p.size for p in params)),
                            dtype=jac_dtype)
        seed = np.zeros_like(output.data)
        for i in range(batch_size):
            output.clear_tape_grads()
            seed[...] = 0.0
            seed[i, :] = 1.0
            output.backward(seed)
            jacobian[i] = _collect_param_grads(params)
        output.clear_tape_grads()
        return jacobian @ jacobian.T

    if mode == "batched":
        # The module-tree kernel loads on first use, like the module tree
        # it runs on.  It freezes BatchNorm statistics inside its single
        # forward, so the separate freeze pass is skipped entirely.
        from repro.engine.kernels import batched_ntk_jacobian

        jacobian = batched_ntk_jacobian(network, images)
        return jacobian @ jacobian.T
    _freeze_batch_stats(network, images)
    jacobian = np.empty((batch_size, sum(p.size for p in params)),
                        dtype=jac_dtype)
    for i in range(batch_size):
        for p in params:
            p.zero_grad()
        output = network(Tensor(images[i : i + 1]))
        if output.ndim != 2:
            raise ProxyError(f"expected (batch, classes) logits, got {output.shape}")
        output.backward(np.ones_like(output.data))
        jacobian[i] = _collect_param_grads(params)
        output.clear_tape_grads()
    return jacobian @ jacobian.T


def ntk_spectrum(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    images: Optional[np.ndarray] = None,
    rng: SeedLike = None,
    network: Optional[Module] = None,
) -> NtkResult:
    """Build the reduced proxy network for ``genotype`` and measure its NTK.

    ``images`` may be supplied (e.g. from a dataset); otherwise a standard
    normal batch is drawn.  Network initialisation is seeded from the
    config seed and the genotype so results are deterministic.  A pre-built
    ``network`` may be passed to skip construction (its BatchNorm running
    statistics are re-frozen to the new batch inside the Gram computation).
    """
    config = config or ProxyConfig()
    generator = new_rng(
        rng if rng is not None else stable_seed("ntk", config.seed, genotype.to_index())
    )
    with precision(config.precision_policy()):
        if images is None:
            images = generator.normal(
                size=(config.ntk_batch_size, 3, config.input_size, config.input_size)
            )
        else:
            images = resize_batch(images, config.input_size)
        plan = _genotype_plan(genotype, config) if network is None else None
        if plan is not None:
            gram = plan.gram(_genotype_bank(genotype, config, generator), images)
        else:
            if network is None:
                from repro.searchspace.network import build_network

                network = build_network(genotype, config.macro_config(),
                                        rng=generator)
            gram = compute_ntk_gram(network, images, mode=config.ntk_mode)
        eigenvalues = _eigvalsh_desc(gram)
    return NtkResult(eigenvalues=eigenvalues, batch_size=images.shape[0])


def ntk_grams(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    images: Optional[np.ndarray] = None,
    rng: SeedLike = None,
) -> List[np.ndarray]:
    """One ``(B, B)`` NTK Gram matrix per configured repeat.

    Reproduces :func:`ntk_condition_number`'s seed stream exactly: when
    batches are drawn internally the proxy network is built once and shared
    across repeats — each repeat draws a fresh input batch and re-freezes
    the BatchNorm statistics to it, rather than paying a full rebuild.
    With user-supplied ``images`` the batch is fixed, so each repeat keeps
    its own independently seeded network (otherwise repeats would average
    identical evaluations).

    :func:`ntk_condition_number` eigendecomposes each Gram returned here;
    no caller stacks them.  Every engine row is computed one genotype at a
    time by the executor's chunk workers (:mod:`repro.runtime.pool`).
    """
    config = config or ProxyConfig()
    grams: List[np.ndarray] = []
    network = None
    with precision(config.precision_policy()):
        plan = _genotype_plan(genotype, config)
        if plan is None:
            from repro.searchspace.network import build_network

            def build(generator):
                return build_network(genotype, config.macro_config(),
                                     rng=generator)

            def gram(net, batch):
                return compute_ntk_gram(net, batch, mode=config.ntk_mode)
        else:
            def build(generator):
                return _genotype_bank(genotype, config, generator)

            gram = plan.gram
        for repeat in range(config.repeats):
            rep_rng = new_rng(
                stable_seed("ntk", config.seed, repeat, genotype.to_index())
                if rng is None
                else rng
            )
            if images is not None:
                batch = resize_batch(images, config.input_size)
                network = build(rep_rng)
            elif network is None:
                # First repeat also builds the shared network (drawing images
                # first matches the historical seed stream exactly).
                batch = rep_rng.normal(
                    size=(config.ntk_batch_size, 3,
                          config.input_size, config.input_size)
                )
                network = build(rep_rng)
            else:
                batch = rep_rng.normal(
                    size=(config.ntk_batch_size, 3,
                          config.input_size, config.input_size)
                )
            grams.append(gram(network, batch))
    return grams


def ntk_condition_number(
    genotype: Genotype,
    config: Optional[ProxyConfig] = None,
    images: Optional[np.ndarray] = None,
    rng: SeedLike = None,
    k_index: int = 1,
) -> float:
    """Condition number ``K_{k_index}`` of the genotype's proxy NTK.

    Averages over ``config.repeats`` evaluations when ``repeats > 1``
    (infinite values propagate: an untrainable repeat marks the
    architecture untrainable).  Gram construction is shared with
    :func:`ntk_grams`; this per-candidate path eigendecomposes each Gram
    individually.
    """
    config = config or ProxyConfig()
    values = []
    with precision(config.precision_policy()):
        for gram in ntk_grams(genotype, config, images=images, rng=rng):
            eigenvalues = _eigvalsh_desc(gram)
            values.append(NtkResult(eigenvalues, gram.shape[0]).k(k_index))
    return float(np.mean(values))


def condition_numbers(gram: np.ndarray, max_index: int) -> np.ndarray:
    """``K_1..K_max_index`` from a Gram matrix (see :meth:`NtkResult.k`)."""
    eigenvalues = _eigvalsh_desc(gram)
    result = NtkResult(eigenvalues=eigenvalues, batch_size=gram.shape[0])
    return np.array([result.k(i) for i in range(1, max_index + 1)])


def supernet_ntk_condition_number(
    edge_specs,
    config: Optional[ProxyConfig] = None,
    rng: SeedLike = None,
    k_index: int = 1,
) -> float:
    """NTK condition number of a pruning-supernet state.

    Builds the reduced supernet for the given alive-op sets and measures
    ``K_{k_index}`` exactly as for concrete genotypes.
    """
    config = config or ProxyConfig()
    values = []
    with precision(config.precision_policy()):
        plan = None
        if config.ntk_mode == "batched":
            plan = NtkPlan([spec.alive_ops for spec in edge_specs],
                           config.macro_config(), supercell=True)
        for repeat in range(config.repeats):
            # Seed from the config only (NOT the alive-op sets): every
            # candidate pruning evaluated under one seed shares supernet
            # weights and the input batch, so score differences isolate the
            # removed op.
            if plan is not None:
                gram = plan.gram(_supernet_bank(config, repeat, rng))
            else:
                gram = _supernet_gram(edge_specs, config, repeat, rng)
            eigenvalues = _eigvalsh_desc(gram)
            values.append(NtkResult(eigenvalues, gram.shape[0]).k(k_index))
    return float(np.mean(values))


def _supernet_generator(config: ProxyConfig, repeat: int, rng: SeedLike):
    return new_rng(stable_seed("ntk-super", config.seed, repeat)
                   if rng is None else rng)


def _supernet_gram(edge_specs, config: ProxyConfig, repeat: int,
                   rng: SeedLike) -> np.ndarray:
    """One repeat's supernet Gram on a built module tree (non-batched modes)."""
    from repro.searchspace.network import build_supernet

    generator = _supernet_generator(config, repeat, rng)
    images = generator.normal(
        size=(config.ntk_batch_size, 3, config.input_size, config.input_size)
    )
    network = build_supernet(edge_specs, config.macro_config(), rng=generator)
    return compute_ntk_gram(network, images, mode=config.ntk_mode)


def _supernet_bank(config: ProxyConfig, repeat: int, rng: SeedLike):
    """The process's memoized supernet bank, or one drawn from ``rng``."""
    if rng is None:
        return supernet_ntk_bank(config, repeat)
    return draw_supernet_ntk_bank(config, _supernet_generator(config, repeat, rng))


def _genotype_plan(genotype: Genotype, config: ProxyConfig):
    """The genotype's compiled NTK plan in ``"batched"`` mode, else None."""
    if config.ntk_mode != "batched":
        return None
    return NtkPlan([(op,) for op in genotype.ops], config.macro_config(),
                   supercell=False)


def _genotype_bank(genotype: Genotype, config: ProxyConfig, generator):
    """The weights ``build_network(genotype, ...)`` draws from ``generator``."""
    return draw_ntk_bank([(op,) for op in genotype.ops],
                         config.macro_config(), generator)
