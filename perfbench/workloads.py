"""The benchmark's three search workloads (plain data, no package imports).

Each workload is a ``RuntimeConfig`` built from public fields only; none
sets ``async_mode`` or ``store_read_mode``, so the planned removal of the
duplicate executor and store paths needs no benchmark edit.  The search
seed is fixed, so every run does the same work and returns the same
architecture; ``--seed`` varies the interpreter's hash seed instead (see
``run.py``).
"""

SEARCH_SEED = 0

#: Board whose LUT latency prices the returned architecture.
QUALITY_DEVICE = "nucleo-f746zg"

WORKLOADS = {
    # The paper's pruning search at reduced scale: 84 small supernet
    # states, bound by Python and tape overhead.
    "prune": {
        "config": dict(algorithm="pruning", fast=True, n_workers=1,
                       latency_weight=0.5, flops_weight=0.5),
        "store": None,
    },
    # Random search at paper scale: the same kernels on larger tensors,
    # one fork-pool dispatch over two workers, written to a fresh store.
    "random-paper": {
        "config": dict(algorithm="random", samples=64, fast=False,
                       n_workers=2, latency_weight=0.5),
        "store": "fresh",
    },
    # Warm device-matrix restart: zero proxy compute; store replay, cost
    # lookups and Pareto sorting only.
    "matrix-warm": {
        "config": dict(samples=512, fast=True,
                       devices=("nucleo-f746zg", "nucleo-l432kc"),
                       objectives=("latency", "energy,peak-mem")),
        "store": "warm",
        "matrix": True,
    },
}
