"""Monte-Carlo process-variation studies (Section 4.3).

Each sample draws an independent gate-insulator thickness for every
transistor position, fetches (or builds) the corresponding device
tables, rebuilds the cell, and evaluates a metric.  Infinite metric
values (write failures) are kept, not dropped — the failure count is
itself a paper result (wordline-lowering WA fails under variation).

Sampling is *per-sample*: sample ``k`` of a study with root seed ``s``
draws its scales from a generator seeded by ``(s, k)`` (see
:func:`repro.engine.mc.sample_scales`), so the sample stream is
independent of worker count, chunk size and sample total.  Studies run
through :class:`repro.engine.mc.MonteCarloBatch`; this module holds
what they produce (:class:`MonteCarloResult`) and the device cards of
one sample (:func:`varied_device_set`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.devices.library import tfet_device
from repro.sram.cell import TfetDeviceSet

__all__ = ["MonteCarloResult", "varied_device_set"]


def varied_device_set(scales) -> TfetDeviceSet:
    """Device cards for one sample's per-transistor thickness scales.

    ``scales`` is indexed in :attr:`TfetDeviceSet.POSITIONS` order; a
    short array leaves the remaining positions at nominal.
    """
    scales = list(np.atleast_1d(np.asarray(scales, dtype=float)))
    cards = {}
    for position in TfetDeviceSet.POSITIONS:
        scale = scales.pop(0) if scales else 1.0
        cards[position] = tfet_device(scale)
    return TfetDeviceSet(**cards)


@dataclass(frozen=True)
class MonteCarloResult:
    """Metric samples from one Monte-Carlo study.

    ``samples`` may contain ``inf`` (the metric itself diverged — a
    write failure) and ``nan`` (the engine recorded a structured task
    failure: retry exhaustion, timeout, or a died worker); both count
    as failures in the statistics.  ``report`` carries the
    :class:`~repro.engine.scheduler.BatchReport` when the study ran on
    the batch engine.
    """

    metric_name: str
    samples: np.ndarray
    report: object | None = field(default=None, compare=False, repr=False)

    @property
    def finite(self) -> np.ndarray:
        return self.samples[np.isfinite(self.samples)]

    @property
    def failure_count(self) -> int:
        """Samples where the metric diverged (e.g. write failure)."""
        return int(np.sum(~np.isfinite(self.samples)))

    @property
    def failure_fraction(self) -> float:
        return self.failure_count / len(self.samples) if len(self.samples) else 0.0

    def mean(self) -> float:
        return float(np.mean(self.finite)) if self.finite.size else math.inf

    def std(self) -> float:
        return float(np.std(self.finite)) if self.finite.size else math.nan

    def spread(self) -> float:
        """Relative spread std/mean of the finite samples."""
        m = self.mean()
        return self.std() / m if math.isfinite(m) and m != 0.0 else math.nan

    def histogram(self, bins: int = 10) -> tuple[np.ndarray, np.ndarray]:
        """(counts, bin edges) over the finite samples."""
        if self.finite.size == 0:
            return np.zeros(bins, dtype=int), np.linspace(0.0, 1.0, bins + 1)
        counts, edges = np.histogram(self.finite, bins=bins)
        return counts, edges

    def yield_above(self, limit: float) -> float:
        """Fraction of samples with metric > limit (failures count as pass
        only if the metric diverging upward is desirable — it is not, so
        non-finite samples count against the yield)."""
        if len(self.samples) == 0:
            return math.nan
        return float(np.mean(np.isfinite(self.samples) & (self.samples > limit)))

    def yield_below(self, limit: float) -> float:
        """Fraction of samples with a finite metric < limit."""
        if len(self.samples) == 0:
            return math.nan
        return float(np.mean(np.isfinite(self.samples) & (self.samples < limit)))

    def gaussian_yield_below(self, limit: float) -> float:
        """Parametric yield from a normal fit to the finite samples.

        A Gaussian tail extrapolates the small-sample histogram the way
        SRAM margining traditionally does; write failures (non-finite
        samples) are subtracted from the fitted yield.

        Degenerate cases (explicitly part of the contract):

        * fewer than two finite samples (including an empty sample
          array) — no spread can be fitted, returns ``nan``;
        * all finite samples identical — the fitted std is clamped to
          ``1e-30`` rather than zero, so ``norm.cdf`` degenerates to a
          step function at the common value: the fitted factor is
          ``0.0`` for a limit below it, ``1.0`` above it (and ``0.5``
          exactly at it), scaled by the finite fraction as usual.  A
          distribution with literally no observed spread pins the
          entire fitted mass on one side of any other limit; callers
          wanting a smoother tail must supply samples with spread.
        """
        from scipy.stats import norm

        finite = self.finite
        if finite.size < 2:
            return math.nan
        fitted = float(norm.cdf(limit, loc=np.mean(finite), scale=max(np.std(finite), 1e-30)))
        return fitted * (1.0 - self.failure_fraction)

