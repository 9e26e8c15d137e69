"""Tests for repro.utils: RNG streams, units, tables, errors."""

import numpy as np
import pytest

from repro.utils import (
    GB,
    PB,
    TB,
    ConfigurationError,
    ReproError,
    RngStreams,
    TextTable,
    bytes_to_gb,
    bytes_to_pb,
    derive_seed,
    format_float,
    format_pct,
    hours,
    minutes,
)
from repro.utils.units import left_sum


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(7)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent(self):
        streams = RngStreams(7)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_sequences(self):
        x = RngStreams(42).get("workload").random(10)
        y = RngStreams(42).get("workload").random(10)
        np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        x = RngStreams(1).get("s").random(10)
        y = RngStreams(2).get("s").random(10)
        assert not np.allclose(x, y)

    def test_derive_seed_is_deterministic_and_name_sensitive(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_spawn_creates_independent_child_space(self):
        parent = RngStreams(5)
        child = parent.spawn("sub")
        assert child.seed != parent.seed
        a = child.get("s").random(3)
        b = parent.get("s").random(3)
        assert not np.allclose(a, b)

    def test_reset_restarts_sequences(self):
        streams = RngStreams(3)
        first = streams.get("s").random(4)
        streams.reset()
        again = streams.get("s").random(4)
        np.testing.assert_array_equal(first, again)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("seed")  # type: ignore[arg-type]


class TestUnits:
    def test_byte_constants_scale(self):
        assert TB == 1024 * GB
        assert PB == 1024 * TB

    def test_conversions_roundtrip(self):
        assert bytes_to_gb(5 * GB) == 5.0
        assert bytes_to_pb(2 * PB) == 2.0

    def test_time_helpers(self):
        assert minutes(2) == 120.0
        assert hours(1.5) == 5400.0

    def test_left_sum_folds_left_to_right_without_compensation(self):
        # Python 3.12+'s built-in sum compensates and returns 1.0 here.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert left_sum([]) == 0


class TestTextTable:
    def test_renders_aligned_columns(self):
        table = TextTable(["SKU", "count"])
        table.add_row(["Gen 1.1", 120])
        rendered = table.render()
        lines = rendered.splitlines()
        assert lines[0].startswith("SKU")
        assert "Gen 1.1" in lines[2]
        assert len(lines[0]) == len(lines[1])

    def test_title_line(self):
        table = TextTable(["a"], title="My Table")
        table.add_row([1])
        assert table.render().splitlines()[0] == "My Table"

    def test_wrong_row_width_rejected(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])


class TestFormatting:
    def test_format_float(self):
        assert format_float(3.14159, 2) == "3.14"
        assert format_float(None) == "-"

    def test_format_pct_signed(self):
        assert format_pct(0.109) == "+10.9%"
        assert format_pct(-0.052) == "-5.2%"
        assert format_pct(0.5, signed=False) == "50.0%"


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ConfigurationError, ReproError)
        with pytest.raises(ReproError):
            raise ConfigurationError("bad config")
