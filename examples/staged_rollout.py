"""Staged rollouts: a queue-tuning campaign ships pilot → 10% → fleet.

Production roll-outs in the paper are "very conservative" (§5.2.2): a change
widens its blast radius only after each stage proves safe. This walkthrough
exercises the build-native staged rollout API twice:

1. **facade level** — tune per-group queue bounds on one fleet, stage the
   proposal's flight plan under the default
   :class:`~repro.flighting.deployment.RolloutPolicy`, and drive
   :meth:`~repro.core.kea.Kea.staged_rollout` directly: each wave widens the
   ``YarnLimitsBuild`` coverage, a latency gate is evaluated between waves,
   and the returned :class:`~repro.core.kea.StagedRollout` pairs the
   per-wave records with a §5.2.2 before/after impact;
2. **halt + resume** — the same rollout halted by a rigged gate at its
   first widening wave: the halt reverts the deployed coverage but leaves a
   :class:`~repro.flighting.deployment.RolloutCheckpoint`, and a
   ``resume_from_wave`` policy re-enters at the failed wave in a later
   window (the pilot's coverage is restored at window start, never re-run);
3. **campaign level** — run the same application as a continuous-tuning
   campaign on the ``sustained-overload`` scenario (queue pilots need
   saturation to move queue length): the DEPLOY phase executes the wave
   schedule, and every wave's guardrail verdict — plus its measured
   per-wave treatment effect — lands in ``CampaignReport.rollout_waves``.

Run:  python examples/staged_rollout.py
"""

from repro import (
    ContinuousTuningService,
    FleetRegistry,
    ProcessPoolBackend,
    RolloutPolicy,
    TenantSpec,
)
from repro.cluster import small_fleet_spec
from repro.core import Kea
from repro.flighting import FlightPlan, GateVerdict, SafetyGate


def facade_rollout() -> None:
    print("=== Kea.staged_rollout: queue bounds, pilot → 10% → 50% → fleet ===\n")
    kea = Kea(fleet_spec=small_fleet_spec(), seed=23)
    app = kea.application("queue-tuning")
    run = kea.run_application(app, observe_days=0.5)
    print(f"proposal: {run.proposal.summary}")

    plan = app.rollout_plan(run.proposal, policy=RolloutPolicy(gate_allowance=0.35))
    if not plan:
        print("nothing to roll out (baseline already at the recommended bounds)")
        return
    entry_names = [entry.name for entry in plan.waves[0].entries]
    print(f"staging {len(entry_names)} build(s) over {len(plan)} wave(s): "
          f"{', '.join(entry_names)}\n")

    rollout = kea.staged_rollout(plan, days=0.5, load_multiplier=1.8)
    print(rollout.summary())
    state = "completed" if rollout.completed else "reverted"
    print(f"\nrollout {state}; {rollout.machines_touched} machine(s) touched\n")


class HaltOnFirstGate(SafetyGate):
    """Fails the first gate evaluation (the demo's rigged incident)."""

    def __init__(self):
        self.evaluations = 0

    def evaluate(self, simulator) -> GateVerdict:
        self.evaluations += 1
        if self.evaluations == 1:
            return GateVerdict(passed=False, reason="rigged incident at wave 1")
        return GateVerdict(passed=True, reason="healthy again")


def halt_and_resume() -> None:
    print("=== Resumable rollouts: halt at a wave, re-enter next window ===\n")
    kea = Kea(fleet_spec=small_fleet_spec(), seed=23)
    cluster = kea.build_cluster()
    flight_plan = FlightPlan.from_container_deltas(
        {group: 1 for group in sorted(cluster.machines_by_group())}
    )

    halted = kea.staged_rollout(
        flight_plan, days=0.5, gate=HaltOnFirstGate()
    )
    print(halted.summary())
    checkpoint = halted.checkpoint
    print(
        f"\nhalted before wave {checkpoint.halted_wave!r}; checkpoint keeps "
        f"{checkpoint.machines_deployed} covered machine(s) for resume\n"
    )

    plan = RolloutPolicy(
        resume_from_wave=checkpoint.halted_before_wave
    ).plan(flight_plan)
    resumed = kea.staged_rollout(plan, days=0.5, checkpoint=checkpoint)
    print(resumed.summary())
    state = "completed" if resumed.completed else "reverted"
    print(f"\nresumed rollout {state}; "
          f"{resumed.machines_touched} machine(s) touched\n")


def campaign_rollout() -> None:
    print("=== Campaign DEPLOY: the wave schedule with guardrail verdicts ===\n")
    registry = FleetRegistry()
    registry.add(
        TenantSpec(
            name="queues",
            fleet_spec=small_fleet_spec(),
            seed=23,
            application="queue-tuning",
        )
    )
    with ContinuousTuningService(
        registry, backend=ProcessPoolBackend(max_workers=1)
    ) as service:
        result = service.run_campaigns(
            scenario="sustained-overload",
            observe_days=0.5,
            impact_days=0.5,
            flight_hours=8.0,
        )
    report = result.reports["queues"]
    print(report.summary())
    if report.rollout_waves:
        print("\nrollout waves:")
        for wave in report.rollout_waves:
            print(f"  {wave.summary()}")
    else:
        print("\n(no rollout executed: the round ended before DEPLOY)")


def main() -> None:
    facade_rollout()
    halt_and_resume()
    campaign_rollout()


if __name__ == "__main__":
    main()
