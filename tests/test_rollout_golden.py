"""Golden digests for a staged rollout that halts and the resume that
re-enters it, on the serial backend and on a two-worker pool.

The ``rollout`` request's zero-allowance latency gate halts the diurnal
rollout before its 50% wave; the ``resume`` request restores the halted
coverage from the checkpoint and ships the remaining waves. Each digest
covers the paired impact, the per-wave records and the checkpoint, so the
halt-and-resume path holds across builds, not only across backends of one
build. A deliberate behaviour change re-baselines the file, from the repo
root::

    PYTHONPATH=src python -m tests.test_rollout_golden --write
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import small_fleet_spec
from repro.flighting.build import FlightPlan
from repro.flighting.deployment import RolloutPolicy
from repro.service import (
    ProcessPoolBackend,
    SimulationRequest,
    TenantSpec,
    default_catalog,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "rollout.json"
DAYS = 0.5


def _canonical(value):
    """A value as plain nested tuples, with every float as a Python float,
    so its ``repr`` does not depend on the numpy version."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, _canonical(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple((key, _canonical(value[key])) for key in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def outcome_digest(outcome) -> str:
    """sha256 over the impact, the waves and the checkpoint of one outcome."""
    material = (
        _canonical(outcome.impact),
        _canonical(outcome.rollout_waves),
        _canonical(outcome.rollout_checkpoint),
    )
    return hashlib.sha256(repr(material).encode()).hexdigest()


SPEC = TenantSpec(name="probe", fleet_spec=small_fleet_spec(), seed=5)


def flight_plan() -> FlightPlan:
    group = sorted(SPEC.build().current_config.limits)[0]
    return FlightPlan.from_container_deltas({group: 1})


def halting_request() -> SimulationRequest:
    return SimulationRequest(
        tenant="probe",
        kind="rollout",
        spec=SPEC,
        scenario=default_catalog().get("diurnal-baseline"),
        config=SPEC.build().current_config.copy(),
        workload_tag="golden/halt",
        days=DAYS,
        rollout=RolloutPolicy(gate_allowance=0.0).plan(flight_plan()),
    )


def resume_request(halted: SimulationRequest, checkpoint) -> SimulationRequest:
    plan = RolloutPolicy(
        resume_from_wave=checkpoint.halted_before_wave, gate_allowance=10.0
    ).plan(flight_plan())
    return dataclasses.replace(
        halted,
        kind="resume",
        workload_tag="golden/resume",
        rollout=plan,
        checkpoint=checkpoint,
    )


def run_both(backend) -> dict[str, str]:
    """Digests of the halting rollout and of its resume on ``backend``."""
    halted = halting_request()
    (outcome,) = backend.run([halted])
    assert outcome.rollout_checkpoint is not None
    (resumed,) = backend.run([resume_request(halted, outcome.rollout_checkpoint)])
    return {"rollout": outcome_digest(outcome), "resume": outcome_digest(resumed)}


@pytest.fixture(scope="module", params=[1, 2], ids=["serial", "pool"])
def digests(request):
    with ProcessPoolBackend(max_workers=request.param) as backend:
        return run_both(backend)


def test_halt_and_resume_match_the_golden_digest(digests):
    assert digests == json.loads(GOLDEN_PATH.read_text())


def _write() -> None:
    with ProcessPoolBackend(max_workers=1) as serial:
        digest = run_both(serial)
    with ProcessPoolBackend(max_workers=2) as pooled:
        if run_both(pooled) != digest:
            sys.exit("the pool disagrees with the serial backend; not written")
    GOLDEN_PATH.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digest, indent=2, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_rollout_golden --write")
    _write()
