"""Continuous tuning as a service: three tenants, two scenarios.

The paper's KEA runs its observe → calibrate → tune → flight → deploy loop
continuously across many clusters. This walkthrough drives that loop as a
*service*:

1. register three tenants (independent simulated fleets) in a
   :class:`~repro.service.FleetRegistry`;
2. run a gated campaign for every tenant against the ``diurnal-baseline``
   scenario — regressing rollouts are rolled back, clean ones adopted;
3. re-launch the same tenants against the ``demand-spike`` scenario, with
   the shared simulation cache absorbing any repeated what-if questions;
4. print the fleet-wide readouts and cache accounting.

Tenant simulations fan out over a process pool when cores are available
(``ProcessPoolBackend(max_workers=None)`` uses them all) and results are
bit-identical to a serial run.

Run:  python examples/continuous_tuning_service.py
"""

import os

from repro import (
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    TenantSpec,
)
from repro.cluster import small_fleet_spec


def main() -> None:
    registry = FleetRegistry()
    for name, seed in (("cosmos-east", 11), ("cosmos-west", 23), ("cosmos-north", 47)):
        registry.add(TenantSpec(name=name, fleet_spec=small_fleet_spec(), seed=seed))

    workers = os.cpu_count() or 1
    print(f"fleet registry: {registry.names()}  (pool workers: {workers})\n")

    with ContinuousTuningService(
        registry, backend=ProcessPoolBackend(max_workers=workers)
    ) as service:
        print("=== Campaign 1: diurnal-baseline ===")
        baseline = service.run_campaigns(
            scenario="diurnal-baseline",
            observe_days=0.5,
            impact_days=0.5,
            flight_hours=4.0,
        )
        print(baseline.summary())

        for report in baseline.reports.values():
            print()
            print(report.summary())

        print("\n=== Campaign 2: demand-spike (same tenants, new conditions) ===")
        spike = service.run_campaigns(
            scenario="demand-spike",
            observe_days=0.5,
            impact_days=0.5,
            flight_hours=4.0,
        )
        print(spike.summary())

        stats = service.cache.stats
        print(
            f"\nshared cache after both campaigns: {stats.size} entries, "
            f"{stats.hits} hit(s), {stats.misses} miss(es)"
        )


if __name__ == "__main__":
    main()
