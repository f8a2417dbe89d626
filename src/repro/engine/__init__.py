"""Batched trainless-evaluation engine.

Every search algorithm in :mod:`repro.search` obtains indicator values
(NTK condition number κ, linear-region count LR, FLOPs F, latency L)
through one :class:`~repro.engine.core.Engine` instead of re-deriving them
inline.  The engine has three layers:

1. **Vectorized kernels** (:mod:`repro.engine.kernels`) — the full NTK
   Jacobian from ONE batched forward + ONE backward (per-sample gradients
   reconstructed layer-locally), and all probe lines of the region count
   in a single stacked ``no_grad`` forward.  The proxies' ``"batched"``
   mode runs both as compiled straight-line plans over a per-search
   weight bank (:mod:`repro.engine.plan`, which the proxies import when
   they load: it needs neither :mod:`repro.nn` nor the kernels module),
   with no module tree or autograd tape; the module-tree kernels serve
   caller-built networks, load with the module tree and are the plans'
   oracle.  The original
   per-sample / per-line loops remain available as ``mode="reference"``
   for validation.
2. **Canonicalization-aware cache** (:mod:`repro.engine.cache`) — memoizes
   every indicator across repeats, search cycles and algorithms.
3. **Population API** (:meth:`Engine.evaluate_population`) — deduplicates
   a population by canonical form, has the engine's executor compute the
   missing proxy rows (its chunk workers are the only code that computes
   NTK and line-region rows) and returns an
   :class:`~repro.engine.table.IndicatorTable` in request order.

Cache-key contract
------------------
Indicator values are properties of the **canonical cell function**, not of
the raw genotype: every evaluation first applies
:func:`repro.searchspace.canonical.canonicalize` (dead edges → ``none``)
and both computes on and keys by the canonical form.  Consequences callers
rely on:

* Functionally-equal genotypes (``canonicalize(a) == canonicalize(b)``)
  share one cache entry and return **bit-identical** values — including
  the proxy RNG streams, which are seeded from the *canonical* index.
* Keys embed everything the value depends on, so differing configurations
  can never alias: proxy values are keyed by
  ``(indicator, canonical_index, astuple(ProxyConfig))`` (covering sizes,
  seeds, repeats, the ``ntk_mode``/``lr_mode`` kernel selection and the
  ``precision`` policy name, plus κ's eigenvalue index ``1``); FLOPs/params by
  ``(indicator, canonical_index, astuple(MacroConfig))``; latency by
  ``(indicator, canonical_index, device name, precision,
  astuple(MacroConfig))``.  Supernet states replace the canonical index
  with the tuple of alive-op sets in edge order.
* :class:`~repro.hardware.latency.LatencyEstimator` writes the same
  latency keys, so an estimator sharing the engine's
  :class:`~repro.engine.cache.IndicatorCache` contributes to (and benefits
  from) the same memo.  One latency price per engine: every FLOPs and
  latency read goes through the ``flops``/``latency`` cost models, the
  latter over the engine's own estimator, pricing the canonical network
  an optimising deployment runtime would compile.  A direct
  ``estimate_ms`` call does *not* canonicalize — dead edges are billed,
  matching the on-board ground truth; only
  :class:`~repro.search.constraints.ConstraintChecker` and on-board
  validation price genotypes that way.

Precision semantics
-------------------
Compute precision is an explicit :class:`~repro.autograd.precision.\
PrecisionPolicy` named by ``ProxyConfig.precision``: proxy forwards,
backwards and Gram products run in the policy's ``compute_dtype``
(float64 default — bit-identical to the pre-policy substrate — or
float32 for ~2× kernel throughput), while **eigensolves always promote
to** ``accumulate_dtype`` (float64 under both built-in policies) because
condition numbers amplify rounding error through near-singular spectra.
The precision name travels inside ``astuple(ProxyConfig)``, i.e. inside
every proxy cache key and persisted-store fingerprint, so rows computed
under different policies can never alias or cross-contaminate.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562):
#: ``repro.engine.core`` loads without the module-tree kernels.
_EXPORTS = {
    "core": ("Engine", "INDICATOR_NAMES", "supernet_state_key"),
    "cache": ("IndicatorCache", "CacheStats"),
    "table": ("IndicatorTable",),
    "kernels": ("batched_ntk_jacobian", "batched_line_patterns",
                "batched_count_line_regions", "batched_eigvalsh",
                "batched_condition_numbers"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
