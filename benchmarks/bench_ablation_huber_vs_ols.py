"""Ablation A: Huber vs least-squares calibration under telemetry outliers.

Section 5.2.1 chose a Huber regressor because production telemetry carries
outliers (stragglers, failing disks, partial hours). The bench corrupts a
fraction of the observations and measures how far each calibration drifts
from the clean-data fit — the design choice KEA's What-if Engine rests on.
It fits the f relation (CPU utilization → average task latency) on the
hour-level telemetry of the fleet's first SC–SKU group: the group has too few
machine-days for a stable ablation, so hours are the points.
"""

import numpy as np

from benchmarks.common import emit
from repro.ml import HuberRegressor, LinearRegression
from repro.utils.tables import TextTable

CORRUPTION_RATES = (0.0, 0.05, 0.10, 0.20)


def test_ablation_huber_vs_ols(benchmark, production_run):
    _, _, monitor = production_run
    group = monitor.groups()[0]
    sub = monitor.filter(group=group)
    x = sub.metric("CpuUtilization")
    y = sub.metric("AverageTaskSeconds")
    keep = y > 0
    x, y = x[keep], y[keep]
    truth = HuberRegressor().fit(x, y)

    def corrupt_and_fit():
        rng = np.random.default_rng(99)
        rows = []
        for rate in CORRUPTION_RATES:
            y_corrupt = y.copy()
            n_bad = int(rate * y.size)
            if n_bad:
                idx = rng.choice(y.size, size=n_bad, replace=False)
                y_corrupt[idx] *= rng.uniform(5.0, 20.0, size=n_bad)
            huber = HuberRegressor().fit(x, y_corrupt)
            ols = LinearRegression().fit(x, y_corrupt)
            rows.append(
                (
                    rate,
                    abs(huber.slope - truth.slope) / abs(truth.slope),
                    abs(ols.slope - truth.slope) / abs(truth.slope),
                )
            )
        return rows

    rows = benchmark(corrupt_and_fit)

    table = TextTable(
        ["outlier rate", "Huber slope drift", "OLS slope drift"],
        title=f"Ablation A — calibration robustness on {group} (f relation)",
    )
    for rate, huber_drift, ols_drift in rows:
        table.add_row([f"{rate:.0%}", f"{huber_drift:.1%}", f"{ols_drift:.1%}"])
    emit("ablation_huber_vs_ols", table.render())

    # At 10%+ corruption, Huber must drift far less than OLS.
    for rate, huber_drift, ols_drift in rows:
        if rate >= 0.10:
            assert huber_drift < ols_drift
    worst = rows[-1]
    assert worst[1] < 0.5 * worst[2]
