"""Tests for repro.util.tables."""

import pytest

from repro.util.tables import format_table


class TestFormatTable:
    def test_contains_headers_and_cells(self):
        text = format_table(["a", "b"], [[1, "x"], [22, "yy"]])
        assert "| a " in text
        assert "x" in text
        assert "22" in text

    def test_title_prepended(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_thousands_separator(self):
        text = format_table(["n"], [[1234567]])
        assert "1,234,567" in text

    def test_float_formatting(self):
        text = format_table(["x"], [[3.14159]])
        assert "3.14" in text

    def test_integral_float_rendered_as_int(self):
        text = format_table(["x"], [[2.0]])
        assert "| 2" in text

    def test_alignment_consistent(self):
        text = format_table(["col"], [["a"], ["bbbb"]])
        lines = [l for l in text.splitlines() if l.startswith("|")]
        assert len({len(l) for l in lines}) == 1
