"""Process-variation sampling for the Monte-Carlo studies.

Section 4.3 of the paper restricts TFET variation to the gate-insulator
thickness, "controlled to within 5 % using novel fabrication
techniques"; channel-length variation and random dopant fluctuation are
argued to be negligible for TFETs.  We therefore sample a multiplicative
thickness scale in the +/-5 % band, independently per transistor.

Sampled scales are quantized onto a fine grid so that each scale's
device table (about 10 ms to sample and bake at 141x141 points) can be
cached and shared across samples, assist techniques, and experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OxideVariation", "quantize_scale"]

DEFAULT_QUANTUM = 0.0025


def quantize_scale(scale: float, quantum: float = DEFAULT_QUANTUM) -> float:
    """Snap a thickness scale onto the cache grid."""
    if quantum <= 0.0:
        raise ValueError("quantum must be positive")
    return round(round(scale / quantum) * quantum, 12)


@dataclass(frozen=True)
class OxideVariation:
    """Sampler for gate-insulator thickness scales.

    ``distribution`` is either ``"uniform"`` over the +/-spread band or
    ``"normal"`` with the band treated as a 3-sigma limit (samples are
    clipped to the band, mirroring a screened process).
    """

    spread: float = 0.05
    distribution: str = "uniform"
    quantum: float = DEFAULT_QUANTUM

    def __post_init__(self) -> None:
        if not 0.0 < self.spread < 0.5:
            raise ValueError(f"spread must lie in (0, 0.5), got {self.spread}")
        if self.distribution not in ("uniform", "normal"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` quantized thickness scales."""
        if count < 0:
            raise ValueError("count cannot be negative")
        if self.distribution == "uniform":
            raw = rng.uniform(1.0 - self.spread, 1.0 + self.spread, size=count)
        else:
            raw = rng.normal(1.0, self.spread / 3.0, size=count)
            raw = np.clip(raw, 1.0 - self.spread, 1.0 + self.spread)
        return np.array([quantize_scale(s, self.quantum) for s in raw])

    def sample_per_transistor(
        self, rng: np.random.Generator, sample_count: int, transistor_count: int
    ) -> np.ndarray:
        """Independent scales for each transistor of each Monte-Carlo sample.

        Returns an array of shape (sample_count, transistor_count).
        """
        flat = self.sample(rng, sample_count * transistor_count)
        return flat.reshape(sample_count, transistor_count)
