"""Faults & cost tour: deterministic outages, fractional billing, resume.

The paper's workflows run on Cosmos itself, where machines crash, zones go
dark, and every experiment-hour has a dollar price. This walkthrough drives
the fleet-lifecycle plane end to end:

1. **fault injection** — a seed-deterministic :class:`~repro.faults.FaultPlan`
   crashes a quarter of the fleet mid-window and slows a straggler tail;
   the simulator requeues in-flight work, the scheduler routes around dead
   machines, and the telemetry frame records per-hour ``available_fraction``;
2. **fractional billing** — :func:`~repro.cost.frame_cost` prices the same
   window with and without the outage: crashed machine-hours come off the
   bill, so resilience experiments are costed honestly;
3. **mid-rollout outage → gate trips → resume** — a staged rollout soaks
   under an injected outage, an availability gate halts it at the first
   widening wave, and the checkpoint re-enters once the zone recovers;
4. **per-tenant spend** — a two-tenant campaign on the catalog's
   ``az-outage`` scenario, with the service's ops report rolling up each
   tenant's machine-hours and dollars.

Run:  python examples/fault_and_cost_tour.py
"""

from repro import (
    ContinuousTuningService,
    FleetRegistry,
    RolloutPolicy,
    TenantSpec,
)
from repro.cluster import small_fleet_spec
from repro.core import Kea
from repro.cost import default_price_book, frame_cost
from repro.faults import FaultPlan, MachineSelector, OutageSpec, StragglerSpec
from repro.flighting import FlightPlan, GateVerdict, SafetyGate
from repro.service import ProcessPoolBackend, Scenario

OUTAGE_PLAN = FaultPlan(
    outages=(
        OutageSpec(
            at_hour=2.0,
            duration_hours=4.0,
            selector=MachineSelector(fraction=0.25),
            name="zone-a",
        ),
    ),
    stragglers=(
        StragglerSpec(
            at_hour=1.0,
            duration_hours=8.0,
            slowdown=2.0,
            selector=MachineSelector(sku="Gen 1.1", fraction=0.5),
            name="tired-gen1",
        ),
    ),
    seed=404,
)


def inject_and_bill() -> None:
    print("=== FaultPlan: crash a quarter of the fleet, price the window ===\n")
    print(OUTAGE_PLAN.describe(), "\n")

    kea = Kea(fleet_spec=small_fleet_spec(), seed=7)
    hook = Scenario(
        name="demo-outage", description="", fault_plan=OUTAGE_PLAN
    ).fault_actions()
    clean = kea.simulate(days=0.5, workload_tag="tour").result
    faulty = kea.simulate(days=0.5, workload_tag="tour", actions=hook).result

    print(
        f"faulted run: {faulty.machines_crashed} crashed, "
        f"{faulty.machines_recovered} recovered, "
        f"{faulty.tasks_requeued} task(s) requeued across the crash"
    )
    book = default_price_book()
    for label, result in (("no faults", clean), ("with faults", faulty)):
        cost = frame_cost(result.frame, book)
        print(
            f"  {label:<12} billed {cost.machine_hours:8,.1f} mach-h "
            f"(faulted {cost.faulted_machine_hours:5,.1f}) "
            f"-> ${cost.total_dollars:,.2f}"
        )
    print()


class AvailabilityGate(SafetyGate):
    """Halt a rollout while any machine in the fleet is down."""

    def evaluate(self, simulator) -> GateVerdict:
        down = sum(1 for m in simulator.cluster.machines if m.faulted)
        if down:
            return GateVerdict(
                passed=False, reason=f"{down} machine(s) down mid-rollout"
            )
        return GateVerdict(passed=True, reason="fleet fully available")


def halt_and_resume_under_outage() -> None:
    print("=== Staged rollout: outage trips the gate, checkpoint resumes ===\n")
    kea = Kea(fleet_spec=small_fleet_spec(), seed=23)
    groups = sorted(kea.build_cluster().machines_by_group())
    flight_plan = FlightPlan.from_container_deltas({g: 1 for g in groups})

    # The outage starts half an hour in and outlives the rollout window, so
    # the availability gate sees dead machines at its first evaluation.
    long_outage = Scenario(
        name="rollout-outage",
        description="",
        fault_plan=FaultPlan(
            outages=(
                OutageSpec(
                    at_hour=0.5,
                    duration_hours=24.0,
                    selector=MachineSelector(fraction=0.25),
                    name="zone-a",
                ),
            ),
            seed=404,
        ),
    ).fault_actions()

    halted = kea.staged_rollout(
        flight_plan,
        days=0.25,
        workload_tag="tour/halt",
        gate=AvailabilityGate(),
        actions=long_outage,
    )
    print(halted.summary())
    checkpoint = halted.checkpoint
    print(
        f"\nhalted before wave {checkpoint.halted_wave!r}; checkpoint keeps "
        f"{checkpoint.machines_deployed} covered machine(s)\n"
    )

    # Next window the zone is back; resume from the checkpointed wave.
    plan = RolloutPolicy(
        resume_from_wave=checkpoint.halted_before_wave
    ).plan(flight_plan)
    resumed = kea.staged_rollout(
        plan,
        days=0.25,
        workload_tag="tour/resume",
        gate=AvailabilityGate(),
        checkpoint=checkpoint,
    )
    print(resumed.summary())
    state = "completed" if resumed.completed else "reverted"
    print(f"\nresumed rollout {state}\n")


def tenant_spend() -> None:
    print("=== Campaign on `az-outage`: per-tenant dollars in ops report ===\n")
    registry = FleetRegistry()
    for name, seed in (("east", 11), ("west", 23)):
        registry.add(
            TenantSpec(name=name, fleet_spec=small_fleet_spec(), seed=seed)
        )
    with ContinuousTuningService(
        registry, backend=ProcessPoolBackend(max_workers=1)
    ) as service:
        result = service.run_campaigns(
            scenario="az-outage",
            observe_days=0.5,
            impact_days=0.5,
            flight_hours=4.0,
        )
    print(result.ops_report())


def main() -> None:
    inject_and_bill()
    halt_and_resume_under_outage()
    tenant_spend()


if __name__ == "__main__":
    main()
