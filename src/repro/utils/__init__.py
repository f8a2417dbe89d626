"""Shared utilities: seeded RNG handling, timing, and table formatting."""

from repro._lazy import lazy_exports as _lazy_exports

#: Public names by defining submodule, imported on first access (PEP 562).
_EXPORTS = {
    "rng": ("RngMixin", "new_rng", "spawn_rng"),
    "timing": ("Timer",),
    "tabulate": ("format_table",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
