"""Durable tuning service: launch → crash → restart → resume, bit-identically.

A production tuning service outlives any single process: KEA's campaigns run
for days while the service redeploys underneath them. This walkthrough shows
the execution plane that makes a restart invisible:

1. run a reference fleet campaign inline, on a
   :class:`~repro.service.ProcessPoolBackend` with ``max_workers=1`` — the
   answer every other run must reproduce bit for bit;
2. launch the same campaign on the file-spooled
   :class:`~repro.service.LocalQueueBackend` with a
   :class:`~repro.service.CampaignStore` attached, and **crash** the service
   mid-beat (an injected fault standing in for a SIGKILL);
3. point a *fresh* service at the same store, ``resume_campaigns()``, and
   verify the resumed fleet report is identical to the uninterrupted
   reference — phase by phase, wave by wave;
4. show the non-blocking front-end (``submit`` / ``poll`` / ``drain``)
   driving tenant-sharded campaigns in the background.

Run:  python examples/durable_service.py
"""

import tempfile
from pathlib import Path

from repro import (
    CampaignStore,
    ContinuousTuningService,
    FleetRegistry,
    LocalQueueBackend,
    ProcessPoolBackend,
    TenantSpec,
)
from repro.cluster import small_fleet_spec
from repro.service import Campaign

CAMPAIGN_KW = dict(observe_days=0.5, impact_days=0.5, flight_hours=4.0)


def make_registry() -> FleetRegistry:
    registry = FleetRegistry()
    for name, seed in (("cosmos-east", 11), ("cosmos-west", 23)):
        registry.add(TenantSpec(name=name, fleet_spec=small_fleet_spec(), seed=seed))
    return registry


def histories(report):
    return {
        name: [(e.round, e.phase.value, e.detail) for e in tenant.history]
        for name, tenant in report.reports.items()
    }


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="durable-service-"))
    print(f"spool + campaign store under: {workdir}\n")

    # ------------------------------------------------------------------
    # 1. The uninterrupted reference, on the inline serial backend.
    # ------------------------------------------------------------------
    print("=== 1. Reference run (inline, no interruptions) ===")
    with ContinuousTuningService(
        make_registry(), backend=ProcessPoolBackend(max_workers=1)
    ) as service:
        reference = service.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)
    print(reference.summary())

    # ------------------------------------------------------------------
    # 2. The same campaign on the durable queue backend — killed mid-beat.
    # ------------------------------------------------------------------
    print("\n=== 2. Durable run (LocalQueueBackend + CampaignStore), crashed ===")
    store = CampaignStore(workdir / "store")
    crashed = ContinuousTuningService(
        make_registry(),
        backend=LocalQueueBackend(workdir / "spool", workers=2),
        store=store,
    )
    # Inject a fault into the third campaign transition of the run: the
    # service dies exactly as a kill -9 between a simulation batch landing
    # and its beat completing would leave it.
    original_advance, calls = Campaign.advance, [0]

    def dying_advance(self, outcome):
        calls[0] += 1
        if calls[0] == 3:
            raise RuntimeError("injected crash (stand-in for SIGKILL)")
        return original_advance(self, outcome)

    Campaign.advance = dying_advance
    try:
        crashed.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)
    except RuntimeError as exc:
        print(f"service died mid-beat: {exc}")
    finally:
        Campaign.advance = original_advance
        crashed.close()
    print(f"store still holds: {store.tenants()}")

    # ------------------------------------------------------------------
    # 3. A fresh service at the same store resumes and finishes the run.
    # ------------------------------------------------------------------
    print("\n=== 3. Restart: a fresh service resumes from the store ===")
    with ContinuousTuningService(
        make_registry(),
        backend=LocalQueueBackend(workdir / "spool", workers=2),
        store=store,
    ) as replacement:
        resumed = replacement.resume_campaigns()
    print(resumed.summary())
    identical = histories(resumed) == histories(reference)
    print(f"\nresumed report bit-identical to the uninterrupted reference: "
          f"{identical}")
    assert identical

    # ------------------------------------------------------------------
    # 4. The non-blocking front-end: submit, poll, drain.
    # ------------------------------------------------------------------
    print("\n=== 4. Non-blocking front-end (tenant-sharded submit/poll/drain) ===")
    with ContinuousTuningService(
        make_registry(), backend=ProcessPoolBackend(max_workers=1)
    ) as service:
        token = service.submit(scenario="diurnal-baseline", **CAMPAIGN_KW)
        snapshot = service.poll(token)  # never blocks on simulation
        print(
            f"submitted {token}: {len(snapshot.reports)} tenant(s), one "
            f"shard each; complete={snapshot.complete}"
        )
        final = service.drain(token)
    print(f"drained {token}: complete={final.complete}")
    assert histories(final) == histories(reference)
    print("sharded background run matches the reference too")


if __name__ == "__main__":
    main()
