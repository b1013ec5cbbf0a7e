"""Tests for repro.io.csvout — the streaming CSV appender."""

from __future__ import annotations

import csv

import pytest

from repro.io.csvout import CsvAppender


class TestCsvAppender:
    def test_streams_rows_incrementally(self, tmp_path):
        path = tmp_path / "stream.csv"
        with CsvAppender(path, ["epoch", "pqos"]) as out:
            out.append([0, 0.9])
            assert path.exists()  # header + first row already on disk mid-stream
            out.append([1, 0.8])
            assert out.rows_written == 2
        lines = path.read_text().strip().splitlines()
        assert lines == ["epoch,pqos", "0,0.9", "1,0.8"]

    def test_row_width_checked(self, tmp_path):
        with CsvAppender(tmp_path / "bad.csv", ["a", "b"]) as out:
            with pytest.raises(ValueError):
                out.append([1])

    def test_requires_context_manager(self, tmp_path):
        appender = CsvAppender(tmp_path / "x.csv", ["a"])
        with pytest.raises(RuntimeError):
            appender.append([1])

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "out.csv"
        with CsvAppender(path, ["a"]) as out:
            out.append([1])
        assert path.exists()

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        with CsvAppender(path, ["a", "b"]) as out:
            pass
        assert out.rows_written == 0
        assert path.read_text().splitlines() == ["a,b"]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        rows = [["plain", "with,comma"], ['say "hi"', "line\nbreak"]]
        with CsvAppender(path, ["x", "y"]) as out:
            for row in rows:
                out.append(row)
        with path.open(newline="") as handle:
            assert list(csv.reader(handle)) == [["x", "y"], *rows]

    def test_stringification(self, tmp_path):
        path = tmp_path / "types.csv"
        with CsvAppender(path, ["i", "f", "s", "none"]) as out:
            out.append((3, 0.25, "x", None))  # tuples are accepted too
        assert path.read_text().splitlines()[1] == "3,0.25,x,"

    def test_append_after_exit_raises(self, tmp_path):
        with CsvAppender(tmp_path / "closed.csv", ["a"]) as out:
            out.append([1])
        with pytest.raises(RuntimeError):
            out.append([2])


class TestFlushInterval:
    @pytest.mark.parametrize("interval", [0, -2])
    def test_rejects_non_positive(self, tmp_path, interval):
        with pytest.raises(ValueError, match="flush_interval"):
            CsvAppender(tmp_path / "x.csv", ["a"], flush_interval=interval)

    @pytest.mark.parametrize("interval", [2, 3, 7, 1000])
    def test_file_byte_identical_for_any_interval(self, tmp_path, interval):
        def write(path, flush_interval):
            with CsvAppender(path, ["epoch", "pqos"], flush_interval=flush_interval) as out:
                for epoch in range(10):
                    out.append([epoch, epoch / 7.0])
            return path.read_bytes()

        reference = write(tmp_path / "ref.csv", 1)
        assert write(tmp_path / f"batched-{interval}.csv", interval) == reference

    def test_rows_buffered_until_interval(self, tmp_path):
        path = tmp_path / "batched.csv"
        with CsvAppender(path, ["a"], flush_interval=3) as out:
            out.append([1])
            out.append([2])
            out._handle.flush()
            assert path.read_text().splitlines() == ["a"]
            assert out.rows_written == 2
            out.append([3])
            out._handle.flush()
            assert path.read_text().splitlines() == ["a", "1", "2", "3"]
            out.append([4])
        # The partial batch is written on exit.
        assert path.read_text().splitlines() == ["a", "1", "2", "3", "4"]
