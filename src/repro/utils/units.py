"""Unit constants, conversions and float totals.

All internal accounting uses **bytes** for data volume and **seconds** for
time. These helpers exist so call sites read naturally (``64 * GB``) and so
benchmarks can print paper-style units (PB per day, hours, ...).
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "PB",
    "bytes_to_gb",
    "bytes_to_tb",
    "bytes_to_pb",
    "seconds",
    "minutes",
    "hours",
    "days",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "left_sum",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB
PB = 1024 * TB

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


def bytes_to_gb(n_bytes: float) -> float:
    """Convert bytes to gibibytes."""
    return n_bytes / GB


def bytes_to_tb(n_bytes: float) -> float:
    """Convert bytes to tebibytes."""
    return n_bytes / TB


def bytes_to_pb(n_bytes: float) -> float:
    """Convert bytes to pebibytes."""
    return n_bytes / PB


def seconds(n: float) -> float:
    """Identity helper; exists for symmetry with :func:`minutes`/:func:`hours`."""
    return float(n)


def minutes(n: float) -> float:
    """Convert minutes to seconds."""
    return float(n) * 60.0


def hours(n: float) -> float:
    """Convert hours to seconds."""
    return float(n) * SECONDS_PER_HOUR


def days(n: float) -> float:
    """Convert days to seconds."""
    return float(n) * SECONDS_PER_DAY


def left_sum(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...`` left to right, as ``sum`` did before Python 3.12
    began compensating float rounding: a total that feeds a digest."""
    return functools.reduce(operator.add, values, 0)
