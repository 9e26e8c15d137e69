"""Per machine-group model registry: the g_k / h_k / f_k family.

Section 5.1 calibrates, for each SC–SKU combination k, a small set of models:

* ``g_k``: running containers → CPU utilization (Eq. 1–2)
* ``h_k``: CPU utilization → tasks finished per hour (Eq. 3–4)
* ``f_k``: CPU utilization → average task latency (Eq. 5–6)

"a small number of models per group are sufficient to mimic the full dynamics
of the system, which is tractable and easy to maintain." The registry keys
models by (group label, relation name) and carries calibration quality so a
user can audit every fitted relation.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.ml.model import FitSummary, LinearModelBase, fit_summaries
from repro.utils.errors import ModelNotCalibratedError

__all__ = ["Relation", "CalibratedRelation", "ModelRegistry", "RELATION_G",
           "RELATION_H", "RELATION_F"]

RELATION_G = "containers_to_utilization"
RELATION_H = "utilization_to_tasks_per_hour"
RELATION_F = "utilization_to_task_latency"


@dataclass(frozen=True, slots=True)
class Relation:
    """A named x→y relation to calibrate per machine group."""

    name: str
    x_metric: str
    y_metric: str


@dataclass(frozen=True, slots=True)
class CalibratedRelation:
    """A fitted model plus its provenance and fit quality."""

    group: str
    relation: Relation
    model: LinearModelBase
    fit: FitSummary


class ModelRegistry:
    """(group, relation) → calibrated model store."""

    def __init__(self) -> None:
        self._models: dict[tuple[str, str], CalibratedRelation] = {}

    def calibrate(
        self,
        group: str,
        relation: Relation,
        x: np.ndarray,
        y: np.ndarray,
        model_factory: Callable[[], LinearModelBase],
    ) -> CalibratedRelation:
        """Fit a fresh model for (group, relation) and store it."""
        return self.calibrate_many([(group, relation, x, y)], model_factory)[0]

    def calibrate_many(
        self, fits: Sequence[tuple], model_factory: Callable[[], LinearModelBase]
    ) -> list[CalibratedRelation]:
        """Fit a fresh model per ``(group, relation, x, y)`` as one
        :meth:`LinearModelBase.fit_many` batch and store them, in order."""
        models = [model_factory() for _ in fits]
        samples = [fit[2:] for fit in fits]
        if models:
            type(models[0]).fit_many(models, samples)
        summaries = fit_summaries(models, samples)
        calibrated = [
            CalibratedRelation(group, relation, model, summary)
            for (group, relation, *_), model, summary in zip(fits, models, summaries, strict=True)
        ]
        self._models.update(((c.group, c.relation.name), c) for c in calibrated)
        return calibrated

    def get(self, group: str, relation_name: str) -> CalibratedRelation:
        """Fetch a calibrated relation; raises when never calibrated."""
        try:
            return self._models[(group, relation_name)]
        except KeyError:
            raise ModelNotCalibratedError(
                f"no calibrated model for group {group!r}, relation "
                f"{relation_name!r}; run calibration first"
            ) from None

    def predict(self, group: str, relation_name: str, x: np.ndarray | float):
        """Predict through a stored relation."""
        return self.get(group, relation_name).model.predict(x)

    def groups(self) -> list[str]:
        """Sorted group labels with at least one calibrated relation."""
        return sorted({group for group, _ in self._models})

    def relations_for(self, group: str) -> list[str]:
        """Sorted relation names calibrated for ``group``."""
        return sorted(name for g, name in self._models if g == group)

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._models

    def report(self) -> list[CalibratedRelation]:
        """All calibrated relations, ordered by (group, relation)."""
        return [self._models[key] for key in sorted(self._models)]
