"""SCOPE-like operator taxonomy.

Figure 6 of the paper shows nine task types whose mix is uniform across racks
and SKUs: Extract, Split, Process, Aggregate, Partition, IndexedPartition,
Cross, Combine, PodAggregate. Each operator here carries the distributional
parameters of the tasks it spawns: normalized CPU work (seconds on a
speed-1.0 core at zero contention), bytes read, CPU activity fraction, and
per-container RAM/SSD footprints.

Work and data are log-normal — heavy-tailed task populations are what make
stragglers and critical paths interesting (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB, MB

__all__ = ["OperatorSpec", "OPERATORS", "operator_by_name"]


@dataclass(frozen=True, slots=True)
class OperatorSpec:
    """Distributional profile of one SCOPE-like operator's tasks."""

    name: str
    work_mean_s: float
    work_sigma: float  # sigma of the underlying normal (log-space)
    data_mean_bytes: float
    data_sigma: float
    cpu_fraction: float
    ram_gb_per_container: float
    ssd_gb_per_container: float

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_fraction <= 1.0:
            raise ValueError(f"{self.name}: cpu_fraction must be in (0, 1]")
        if self.work_mean_s <= 0 or self.data_mean_bytes <= 0:
            raise ValueError(f"{self.name}: work and data means must be positive")


OPERATORS: tuple[OperatorSpec, ...] = (
    OperatorSpec("Extract", 220.0, 0.55, 1.6 * GB, 0.70, 0.72, 2.0, 14.0),
    OperatorSpec("Split", 140.0, 0.50, 1.0 * GB, 0.60, 0.65, 1.5, 10.0),
    OperatorSpec("Process", 300.0, 0.60, 1.2 * GB, 0.65, 0.90, 3.0, 12.0),
    OperatorSpec("Aggregate", 260.0, 0.55, 900 * MB, 0.60, 0.85, 3.5, 9.0),
    OperatorSpec("Partition", 180.0, 0.50, 1.4 * GB, 0.65, 0.70, 2.2, 16.0),
    OperatorSpec("IndexedPartition", 240.0, 0.55, 1.5 * GB, 0.65, 0.75, 2.8, 18.0),
    OperatorSpec("Cross", 380.0, 0.65, 800 * MB, 0.60, 0.95, 4.0, 8.0),
    OperatorSpec("Combine", 200.0, 0.50, 1.1 * GB, 0.60, 0.80, 2.5, 11.0),
    OperatorSpec("PodAggregate", 160.0, 0.45, 700 * MB, 0.55, 0.78, 2.0, 7.0),
)

_OPERATOR_INDEX = {op.name: op for op in OPERATORS}


def operator_by_name(name: str) -> OperatorSpec:
    """Look up an operator spec by name."""
    try:
        return _OPERATOR_INDEX[name]
    except KeyError:
        known = ", ".join(sorted(_OPERATOR_INDEX))
        raise KeyError(f"unknown operator {name!r}; known operators: {known}") from None
