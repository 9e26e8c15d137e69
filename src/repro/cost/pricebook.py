"""Per-SKU pricing: the dollars side of the tuning trade-off.

A :class:`PriceBook` assigns every SKU an amortized machine-hour rate
(hardware depreciation + datacenter overhead) and prices consumed energy
separately per kWh. Like a :class:`~repro.faults.plan.FaultPlan` it is a
frozen value object built from primitives, so it pickles, compares by
value, and folds into reprs cleanly.

The default book derives rates from the SKU table itself — newer
generations cost more per hour in rough proportion to their compute — so
cost numbers stay plausible as the SKU catalog evolves without hand-kept
price constants drifting out of sync.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.sku import DEFAULT_SKUS
from repro.utils.units import left_sum

__all__ = ["PriceBook", "default_price_book"]


@dataclass(frozen=True)
class PriceBook:
    """Per-SKU $/machine-hour plus a $/kWh power surcharge."""

    rates: tuple[tuple[str, float], ...]
    default_rate: float = 0.25
    power_dollars_per_kwh: float = 0.11

    def __post_init__(self) -> None:
        if self.default_rate < 0.0 or self.power_dollars_per_kwh < 0.0:
            raise ValueError("prices must be non-negative")
        for sku, rate in self.rates:
            if rate < 0.0:
                raise ValueError(f"negative rate for {sku!r}")

    def rate_for(self, sku: str) -> float:
        """The machine-hour rate for one SKU (``default_rate`` if unlisted)."""
        for name, rate in self.rates:
            if name == sku:
                return rate
        return self.default_rate

    def rate_vector(self, categories: list[str]) -> np.ndarray:
        """Rates aligned to a frame's SKU category list (code → $/hour)."""
        return np.asarray(
            [self.rate_for(name) for name in categories], dtype=np.float64
        )

    def fleet_dollars_per_hour(self, fleet_spec) -> float:
        """Machine-rate burn of a whole fleet per hour (power excluded).

        The estimate used when a window produced no telemetry frame — power
        draw is unknowable without one, so only the provisioned machine
        rates are charged.
        """
        return left_sum(
            population.count * self.rate_for(population.sku.name)
            for population in fleet_spec.populations
        )


def default_price_book() -> PriceBook:
    """A price book derived from the default SKU table.

    Rate model: a fixed floor (rack space, network, ops) plus a term
    proportional to effective compute (cores × per-core speed). Energy is
    priced separately at a typical industrial $/kWh, so capping power or
    idling a faulted machine genuinely saves money in reports.
    """
    rates = tuple(
        (sku.name, round(0.06 + 0.0045 * sku.cores * sku.speed_factor, 4))
        for sku in DEFAULT_SKUS
    )
    return PriceBook(rates=rates)
