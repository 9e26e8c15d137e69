"""Columnar (struct-of-arrays) storage for machine-hour telemetry.

The Performance Monitor (Section 4.1 of the paper) turns fleet telemetry into
machine-hour observations, the only thing KEA's models see. A
:class:`MachineHourFrame` is the one representation of those observations:
one buffer per field — numeric fields as flat arrays, string fields as
categorical codes, and the ragged per-hour queue-wait samples as one flat
array plus offsets — so that:

* the simulator's hourly flush appends scalars into column buffers
  (:meth:`MachineHourFrame.append_hour` is the only append entry point);
* monitors filter with boolean masks and extract metrics as single numpy
  expressions;
* derived per-row values (the guarded Table 2 ratios, the group label, the
  queue-wait summaries) are column methods, not per-row objects.

A frame is in one of two states. A *building* frame (the simulator's) holds
plain Python lists (O(1) appends on the simulator hot path); numpy views are
materialized lazily per column and cached until the next append invalidates
them. A *sealed* frame (from unpickling or :meth:`MachineHourFrame.take`)
holds the numpy arrays themselves, so reading a column costs nothing; an
append to a sealed frame first turns it back into a building one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MachineHourFrame"]

#: Integer-valued columns.
INT_COLUMNS = (
    "machine_id",
    "rack",
    "row",
    "subcluster",
    "hour",
    "tasks_finished",
    "max_running_containers",
    "queue_enqueued",
    "queue_dequeued",
)

#: Float-valued columns (``power_cap_watts`` stores NaN for "no cap").
FLOAT_COLUMNS = (
    "cpu_utilization",
    "avg_running_containers",
    "total_data_read_bytes",
    "total_cpu_seconds",
    "total_task_seconds",
    "avg_cores_in_use",
    "avg_ram_gb_in_use",
    "avg_ssd_gb_in_use",
    "avg_power_watts",
    "power_cap_watts",
    "queue_avg_length",
    "available_fraction",
)

#: Boolean columns.
BOOL_COLUMNS = ("feature_enabled", "faulted")

#: String columns, stored as categorical codes + a per-frame category list.
CATEGORICAL_COLUMNS = ("machine_name", "sku", "software")

_ALL_COLUMNS = INT_COLUMNS + FLOAT_COLUMNS + BOOL_COLUMNS

_DTYPES = (
    {name: np.int64 for name in INT_COLUMNS}
    | {name: np.float64 for name in FLOAT_COLUMNS}
    | {name: np.bool_ for name in BOOL_COLUMNS}
)

#: NaN encodes ``power_cap_watts is None`` in the float column.
_NAN = float("nan")


def ratio_columns(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ``num / den`` with 0.0 where ``den <= 0``.

    The guarded-ratio convention of every derived machine-hour metric: a
    non-positive denominator yields 0.0. IEEE-754 double division is bitwise
    identical between Python floats and numpy float64, so the vectorized
    ratio equals the scalar ``num / den`` bit for bit.
    """
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(num.shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


class MachineHourFrame:
    """Struct-of-arrays machine-hour telemetry."""

    __slots__ = (
        "_columns",
        "_codes",
        "_categories",
        "_category_index",
        "_waits",
        "_wait_offsets",
        "_arrays",
        "_appenders",
    )

    def __init__(self) -> None:
        self._columns: dict[str, list] = {name: [] for name in _ALL_COLUMNS}
        self._codes: dict[str, list[int]] = {
            name: [] for name in CATEGORICAL_COLUMNS
        }
        self._categories: dict[str, list[str]] = {
            name: [] for name in CATEGORICAL_COLUMNS
        }
        self._category_index: dict[str, dict[str, int]] = {
            name: {} for name in CATEGORICAL_COLUMNS
        }
        # Ragged queue waits: one flat buffer plus per-row offsets.
        self._waits: list[float] = []
        self._wait_offsets: list[int] = [0]
        # Lazy caches, invalidated by any append.
        self._arrays: dict[str, np.ndarray] = {}
        # Bound-method fast path for append_hour, built lazily so that
        # sealing (take, unpickling) can just drop it.
        self._appenders: tuple | None = None

    # ------------------------------------------------------------------
    # Construction / append (the simulator hot path)
    # ------------------------------------------------------------------
    def append_hour(
        self,
        machine_id: int,
        machine_name: str,
        sku: str,
        software: str,
        rack: int,
        row: int,
        subcluster: int,
        hour: int,
        cpu_utilization: float,
        avg_running_containers: float,
        total_data_read_bytes: float,
        tasks_finished: int,
        total_cpu_seconds: float,
        total_task_seconds: float,
        avg_cores_in_use: float,
        avg_ram_gb_in_use: float,
        avg_ssd_gb_in_use: float,
        avg_power_watts: float,
        power_cap_watts: float | None,
        feature_enabled: bool,
        max_running_containers: int,
        queue_avg_length: float,
        queue_enqueued: int,
        queue_dequeued: int,
        queue_waits: list[float],
        available_fraction: float = 1.0,
        faulted: bool = False,
    ) -> None:
        """Append one machine-hour row straight into the column buffers."""
        if self._arrays:
            self._arrays.clear()
        appenders = self._appenders
        if appenders is None:
            appenders = self._bind_appenders()
        # One attribute load + unpack replaces 23 dict subscripts and three
        # helper calls per row — this is the per-machine-hour simulator path.
        (
            ap_machine_id, ap_rack, ap_row, ap_subcluster, ap_hour,
            ap_tasks_finished, ap_max_running, ap_queue_enqueued,
            ap_queue_dequeued, ap_cpu, ap_avg_running, ap_data_read,
            ap_cpu_seconds, ap_task_seconds, ap_cores, ap_ram, ap_ssd,
            ap_power, ap_power_cap, ap_queue_len, ap_available, ap_feature,
            ap_faulted,
            name_index, name_cats, ap_name_code,
            sku_index, sku_cats, ap_sku_code,
            sw_index, sw_cats, ap_sw_code,
            extend_waits, ap_offset, waits,
        ) = appenders
        ap_machine_id(machine_id)
        ap_rack(rack)
        ap_row(row)
        ap_subcluster(subcluster)
        ap_hour(hour)
        ap_tasks_finished(tasks_finished)
        ap_max_running(max_running_containers)
        ap_queue_enqueued(queue_enqueued)
        ap_queue_dequeued(queue_dequeued)
        ap_cpu(cpu_utilization)
        ap_avg_running(avg_running_containers)
        ap_data_read(total_data_read_bytes)
        ap_cpu_seconds(total_cpu_seconds)
        ap_task_seconds(total_task_seconds)
        ap_cores(avg_cores_in_use)
        ap_ram(avg_ram_gb_in_use)
        ap_ssd(avg_ssd_gb_in_use)
        ap_power(avg_power_watts)
        ap_power_cap(_NAN if power_cap_watts is None else power_cap_watts)
        ap_queue_len(queue_avg_length)
        ap_available(available_fraction)
        ap_feature(feature_enabled)
        ap_faulted(faulted)
        code = name_index.get(machine_name)
        if code is None:
            code = len(name_cats)
            name_cats.append(machine_name)
            name_index[machine_name] = code
        ap_name_code(code)
        code = sku_index.get(sku)
        if code is None:
            code = len(sku_cats)
            sku_cats.append(sku)
            sku_index[sku] = code
        ap_sku_code(code)
        code = sw_index.get(software)
        if code is None:
            code = len(sw_cats)
            sw_cats.append(software)
            sw_index[software] = code
        ap_sw_code(code)
        extend_waits(queue_waits)
        ap_offset(len(waits))

    def _bind_appenders(self) -> tuple:
        """Bind the per-row append targets once (dropped when the frame is
        sealed), turning a sealed frame's arrays back into list buffers."""
        if isinstance(self._waits, np.ndarray):
            self._columns = {name: a.tolist() for name, a in self._columns.items()}
            self._codes = {name: a.tolist() for name, a in self._codes.items()}
            self._waits, self._wait_offsets = self._waits.tolist(), self._wait_offsets.tolist()
        cols = self._columns
        self._appenders = (
            cols["machine_id"].append,
            cols["rack"].append,
            cols["row"].append,
            cols["subcluster"].append,
            cols["hour"].append,
            cols["tasks_finished"].append,
            cols["max_running_containers"].append,
            cols["queue_enqueued"].append,
            cols["queue_dequeued"].append,
            cols["cpu_utilization"].append,
            cols["avg_running_containers"].append,
            cols["total_data_read_bytes"].append,
            cols["total_cpu_seconds"].append,
            cols["total_task_seconds"].append,
            cols["avg_cores_in_use"].append,
            cols["avg_ram_gb_in_use"].append,
            cols["avg_ssd_gb_in_use"].append,
            cols["avg_power_watts"].append,
            cols["power_cap_watts"].append,
            cols["queue_avg_length"].append,
            cols["available_fraction"].append,
            cols["feature_enabled"].append,
            cols["faulted"].append,
            self._category_index["machine_name"],
            self._categories["machine_name"],
            self._codes["machine_name"].append,
            self._category_index["sku"],
            self._categories["sku"],
            self._codes["sku"].append,
            self._category_index["software"],
            self._categories["software"],
            self._codes["software"].append,
            self._waits.extend,
            self._wait_offsets.append,
            self._waits,
        )
        return self._appenders

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._wait_offsets) - 1

    def column(self, name: str) -> np.ndarray:
        """One numeric/bool column as a cached numpy array.

        The returned array is the frame's cache — treat it as read-only.
        """
        array = self._arrays.get(name)
        if array is None:
            array = np.asarray(self._columns[name], dtype=_DTYPES[name])
            self._arrays[name] = array
        return array

    def codes(self, name: str) -> np.ndarray:
        """Categorical codes of a string column (``int32``)."""
        key = f"codes:{name}"
        array = self._arrays.get(key)
        if array is None:
            array = np.asarray(self._codes[name], dtype=np.int32)
            self._arrays[key] = array
        return array

    def categories(self, name: str) -> list[str]:
        """Category labels of a string column (code → label)."""
        return self._categories[name]

    def labels(self, name: str) -> np.ndarray:
        """A string column materialized as a numpy string array."""
        cats = self._categories[name]
        lookup = np.asarray(cats if cats else [""], dtype=object)
        return lookup[self.codes(name)] if len(self) else np.asarray([], dtype=object)

    def group_codes(self) -> tuple[np.ndarray, list[str]]:
        """Per-row machine-group codes plus the code → label mapping.

        The group label is ``f"{software}_{sku}"``, e.g. ``'SC2_Gen 4.1'``
        (the SC–SKU combination); codes are dense over the (software, sku) combinations that
        could occur in this frame.
        """
        n_sku = max(1, len(self._categories["sku"]))
        combined = self.codes("software").astype(np.int64) * n_sku + self.codes("sku")
        labels = [
            f"{software}_{sku}"
            for software in self._categories["software"]
            for sku in self._categories["sku"]
        ]
        return combined, labels

    def group_labels(self) -> np.ndarray:
        """Per-row machine-group labels (object array of strings)."""
        combined, labels = self.group_codes()
        if not len(self):
            return np.asarray([], dtype=object)
        return np.asarray(labels if labels else [""], dtype=object)[combined]

    # ------------------------------------------------------------------
    # Queue waits (ragged)
    # ------------------------------------------------------------------
    def wait_offsets(self) -> np.ndarray:
        """Row offsets into :meth:`waits_flat` (length ``len(self) + 1``)."""
        array = self._arrays.get("wait_offsets")
        if array is None:
            array = np.asarray(self._wait_offsets, dtype=np.int64)
            self._arrays["wait_offsets"] = array
        return array

    def waits_flat(self) -> np.ndarray:
        """All queue-wait samples, rows concatenated."""
        array = self._arrays.get("waits_flat")
        if array is None:
            array = np.asarray(self._waits, dtype=np.float64)
            self._arrays["waits_flat"] = array
        return array

    def queue_p99_wait(self) -> np.ndarray:
        """Per-row 99th percentile of the hour's queue waits (0.0 if none)."""
        offsets = self.wait_offsets()
        flat = self.waits_flat()
        out = np.zeros(len(self), dtype=np.float64)
        for i in range(len(self)):
            lo, hi = offsets[i], offsets[i + 1]
            if hi > lo:
                out[i] = np.percentile(flat[lo:hi], 99)
        return out

    def queue_mean_wait(self) -> np.ndarray:
        """Per-row mean of the hour's queue waits (0.0 if none)."""
        offsets = self.wait_offsets()
        flat = self.waits_flat()
        out = np.zeros(len(self), dtype=np.float64)
        for i in range(len(self)):
            lo, hi = offsets[i], offsets[i + 1]
            if hi > lo:
                out[i] = np.mean(flat[lo:hi])
        return out

    # ------------------------------------------------------------------
    # Derived columns (Table 2 ratios, 0.0 on a non-positive denominator)
    # ------------------------------------------------------------------
    def bytes_per_second(self) -> np.ndarray:
        """Table 2 'Bytes per Second': data read over total task time."""
        return ratio_columns(
            self.column("total_data_read_bytes"), self.column("total_task_seconds")
        )

    def bytes_per_cpu_time(self) -> np.ndarray:
        """Table 2 'Bytes per CPU Time': data read over total CPU time."""
        return ratio_columns(
            self.column("total_data_read_bytes"), self.column("total_cpu_seconds")
        )

    def avg_task_seconds(self) -> np.ndarray:
        """Mean execution time of the tasks finished in each hour."""
        return ratio_columns(
            self.column("total_task_seconds"), self.column("tasks_finished")
        )

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def take(self, selection) -> "MachineHourFrame":
        """A new sealed frame holding the selected rows (mask or index array).

        Row order follows the selection (a boolean mask preserves frame
        order), so downstream order-sensitive reductions (float means/sums)
        see the selected rows in exactly that order.
        """
        indices = np.asarray(selection)
        if indices.dtype == np.bool_:
            indices = np.flatnonzero(indices)
        offsets = self.wait_offsets()
        starts, lengths = offsets[indices], np.diff(offsets)[indices]
        new_offsets = np.concatenate(([0], np.cumsum(lengths)))
        # Output wait p of selected row j is waits[starts[j] + p - new_offsets[j]].
        gather = np.arange(new_offsets[-1]) + np.repeat(starts - new_offsets[:-1], lengths)
        out = MachineHourFrame.__new__(MachineHourFrame)
        out.__setstate__({
            "columns": {name: self.column(name)[indices] for name in _ALL_COLUMNS},
            "codes": {name: self.codes(name)[indices] for name in CATEGORICAL_COLUMNS},
            "categories": {name: list(self._categories[name]) for name in CATEGORICAL_COLUMNS},
            "waits": self.waits_flat()[gather],
            "wait_offsets": new_offsets,
        })
        return out

    # ------------------------------------------------------------------
    # Introspection / plumbing
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """In-memory footprint of the columnar payload (array bytes).

        Counts the numeric columns, categorical codes, wait samples and
        offsets, plus the category label strings — the asymptotically
        meaningful storage. perfbench reports it as ``telemetry.frame_bytes``.
        """
        n = len(self)
        total = 0
        for name in _ALL_COLUMNS:
            total += n * np.dtype(_DTYPES[name]).itemsize
        total += n * len(CATEGORICAL_COLUMNS) * np.dtype(np.int32).itemsize
        total += len(self._waits) * 8 + len(self._wait_offsets) * 8
        for name in CATEGORICAL_COLUMNS:
            total += sum(len(label) + 49 for label in self._categories[name])
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MachineHourFrame):
            return NotImplemented
        if len(self) != len(other):
            return False
        for name in _ALL_COLUMNS:
            if name == "power_cap_watts":
                if not np.array_equal(
                    self.column(name), other.column(name), equal_nan=True
                ):
                    return False
            elif not np.array_equal(self.column(name), other.column(name)):
                return False
        for name in CATEGORICAL_COLUMNS:
            if not np.array_equal(self.labels(name), other.labels(name)):
                return False
        return (
            np.array_equal(self.wait_offsets(), other.wait_offsets())
            and np.array_equal(self.waits_flat(), other.waits_flat())
        )

    def __getstate__(self) -> dict:
        # Ship compact numpy buffers, never the lazy caches.
        return {
            "columns": {name: self.column(name) for name in _ALL_COLUMNS},
            "codes": {name: self.codes(name) for name in CATEGORICAL_COLUMNS},
            "categories": {
                name: list(self._categories[name]) for name in CATEGORICAL_COLUMNS
            },
            "waits": self.waits_flat(),
            "wait_offsets": self.wait_offsets(),
        }

    def __setstate__(self, state: dict) -> None:
        # A sealed frame. Each array is viewed as numpy's canonical dtype
        # object, so a re-pickled frame shares the pickle memo with the
        # np.float64 values beside it, as a frame built from lists does.
        self._columns = {name: a.view(_DTYPES[name]) for name, a in state["columns"].items()}
        self._codes = {name: a.view(np.int32) for name, a in state["codes"].items()}
        self._categories = state["categories"]
        self._category_index = {
            name: {label: code for code, label in enumerate(cats)}
            for name, cats in self._categories.items()
        }
        self._waits = state["waits"].view(np.float64)
        self._wait_offsets = state["wait_offsets"].view(np.int64)
        self._arrays = {}
        self._appenders = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MachineHourFrame(rows={len(self)})"
