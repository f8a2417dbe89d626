"""NumPy data augmentation for the final-training stage.

The standard CIFAR-style recipe NAS-Bench-201 trains with: random crop
(zero padding), horizontal flip, optional cutout.  All transforms operate
on ``(N, C, H, W)`` batches and draw from an explicit generator so
training runs stay reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.utils.rng import SeedLike, new_rng


def random_flip(images: np.ndarray, rng: np.random.Generator,
                probability: float = 0.5) -> np.ndarray:
    """Horizontally flip each image independently with ``probability``."""
    if not 0.0 <= probability <= 1.0:
        raise ReproError("flip probability must be in [0, 1]")
    out = images.copy()
    mask = rng.random(len(images)) < probability
    out[mask] = out[mask, :, :, ::-1]
    return out


def random_crop(images: np.ndarray, rng: np.random.Generator,
                padding: int = 4) -> np.ndarray:
    """Zero-pad by ``padding`` and crop back to the original size."""
    if padding < 0:
        raise ReproError("padding must be non-negative")
    if padding == 0:
        return images.copy()
    n, c, h, w = images.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                      dtype=images.dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = images
    out = np.empty_like(images)
    tops = rng.integers(0, 2 * padding + 1, size=n)
    lefts = rng.integers(0, 2 * padding + 1, size=n)
    for i, (top, left) in enumerate(zip(tops, lefts)):
        out[i] = padded[i, :, top:top + h, left:left + w]
    return out


def cutout(images: np.ndarray, rng: np.random.Generator,
           size: int) -> np.ndarray:
    """Zero one ``size``×``size`` square per image (DeVries & Taylor)."""
    if size < 0:
        raise ReproError("cutout size must be non-negative")
    if size == 0:
        return images.copy()
    n, c, h, w = images.shape
    out = images.copy()
    ys = rng.integers(0, h, size=n)
    xs = rng.integers(0, w, size=n)
    half = size // 2
    for i, (y, x) in enumerate(zip(ys, xs)):
        y0, y1 = max(0, y - half), min(h, y + half + 1)
        x0, x1 = max(0, x - half), min(w, x + half + 1)
        out[i, :, y0:y1, x0:x1] = 0.0
    return out


class Augmenter:
    """Composed crop → flip → cutout pipeline with its own RNG stream."""

    def __init__(self, crop_padding: int = 4, flip_probability: float = 0.5,
                 cutout_size: int = 0, seed: SeedLike = None) -> None:
        if crop_padding < 0 or cutout_size < 0:
            raise ReproError("augmentation sizes must be non-negative")
        self.crop_padding = crop_padding
        self.flip_probability = flip_probability
        self.cutout_size = cutout_size
        self._rng = new_rng(seed)

    def __call__(self, images: np.ndarray) -> np.ndarray:
        out = images
        if self.crop_padding:
            out = random_crop(out, self._rng, self.crop_padding)
        if self.flip_probability:
            out = random_flip(out, self._rng, self.flip_probability)
        if self.cutout_size:
            out = cutout(out, self._rng, self.cutout_size)
        return out

    def describe(self) -> str:
        parts = []
        if self.crop_padding:
            parts.append(f"crop(pad={self.crop_padding})")
        if self.flip_probability:
            parts.append(f"flip(p={self.flip_probability})")
        if self.cutout_size:
            parts.append(f"cutout({self.cutout_size})")
        return " -> ".join(parts) if parts else "identity"
