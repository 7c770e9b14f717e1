"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main, read_items, write_items
from repro.queries.frontend import parse_quantiles, parse_ranges, parse_rectangles


class TestParsers:
    def test_parse_ranges(self):
        assert parse_ranges("0:10,20:30") == [(0, 10), (20, 30)]
        assert parse_ranges("") == []
        assert parse_ranges(" 5:5 ") == [(5, 5)]

    def test_parse_ranges_errors(self):
        with pytest.raises(ValueError):
            parse_ranges("10:5")
        with pytest.raises(ValueError):
            parse_ranges("abc")

    def test_parse_quantiles(self):
        assert parse_quantiles("0.5, 0.9") == [0.5, 0.9]
        assert parse_quantiles("") == []
        with pytest.raises(ValueError):
            parse_quantiles("1.5")

    def test_parse_rectangles(self):
        assert parse_rectangles("0:7:0:7, 2:5:9:13") == [(0, 7, 0, 7), (2, 5, 9, 13)]
        assert parse_rectangles("") == []
        assert parse_rectangles(" 3:3:4:4 ,") == [(3, 3, 4, 4)]

    def test_parse_rectangles_errors(self):
        for text in ("0:7:0", "0:7:0:7:1", "a:b:c:d"):
            with pytest.raises(ValueError, match="malformed rectangle"):
                parse_rectangles(text)
        for text in ("7:0:0:7", "0:7:7:0"):
            with pytest.raises(ValueError, match="left > right"):
                parse_rectangles(text)


class TestCsvIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "items.csv"
        items = np.array([1, 5, 3, 0, 7])
        write_items(str(path), items)
        assert np.array_equal(read_items(str(path)), items)

    def test_header_and_column(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("name,value\na,3\nb,9\n")
        values = read_items(str(path), column=1, has_header=True)
        assert list(values) == [3, 9]

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n")
        with pytest.raises(ValueError):
            read_items(str(path))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_items(str(empty))


class TestCommands:
    def test_generate_then_run(self, tmp_path, capsys):
        data_path = tmp_path / "users.csv"
        exit_code = main(
            [
                "generate",
                "--distribution",
                "cauchy",
                "--domain-size",
                "128",
                "--n-users",
                "20000",
                "--output",
                str(data_path),
                "--seed",
                "1",
            ]
        )
        assert exit_code == 0
        assert data_path.exists()

        out_path = tmp_path / "answers.json"
        exit_code = main(
            [
                "run",
                "--input",
                str(data_path),
                "--domain-size",
                "128",
                "--epsilon",
                "2.0",
                "--method",
                "hh",
                "--branching",
                "4",
                "--ranges",
                "0:63,32:95",
                "--quantiles",
                "0.5",
                "--seed",
                "2",
                "--output",
                str(out_path),
            ]
        )
        assert exit_code == 0
        result = json.loads(out_path.read_text())
        assert result["method"] == "TreeOUECI"
        assert set(result["ranges"]) == {"0:63", "32:95"}
        # Sanity: compare against the exact answer from the generated file.
        items = read_items(str(data_path))
        exact = np.mean((items >= 0) & (items <= 63))
        assert result["ranges"]["0:63"] == pytest.approx(exact, abs=0.1)
        assert 0 <= result["quantiles"]["0.5"] < 128

    def test_run_prints_json_to_stdout(self, tmp_path, capsys):
        data_path = tmp_path / "users.csv"
        write_items(str(data_path), np.random.default_rng(0).integers(0, 64, size=5000))
        exit_code = main(
            [
                "run",
                "--input",
                str(data_path),
                "--domain-size",
                "64",
                "--method",
                "haar",
                "--ranges",
                "0:31",
                "--seed",
                "3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["method"] == "HaarHRR"
        assert payload["ranges"]["0:31"] == pytest.approx(0.5, abs=0.15)

    def test_run_rejects_out_of_domain_values(self, tmp_path):
        data_path = tmp_path / "users.csv"
        write_items(str(data_path), np.array([5, 600]))
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--input",
                    str(data_path),
                    "--domain-size",
                    "64",
                    "--ranges",
                    "0:10",
                ]
            )

    def test_compare_reports_all_methods(self, tmp_path, capsys):
        data_path = tmp_path / "users.csv"
        write_items(str(data_path), np.random.default_rng(1).integers(0, 64, size=20000))
        exit_code = main(
            [
                "compare",
                "--input",
                str(data_path),
                "--domain-size",
                "64",
                "--methods",
                "flat,hh,haar",
                "--ranges",
                "0:31,8:56",
                "--seed",
                "4",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        results = json.loads(captured.out)
        assert set(results) == {"FlatOUE", "TreeOUECI", "HaarHRR"}
        assert all(value >= 0 for value in results.values())

    def test_compare_requires_ranges(self, tmp_path):
        data_path = tmp_path / "users.csv"
        write_items(str(data_path), np.arange(10))
        with pytest.raises(SystemExit):
            main(
                [
                    "compare",
                    "--input",
                    str(data_path),
                    "--domain-size",
                    "16",
                ]
            )

    def test_dump_frequencies(self, tmp_path, capsys):
        data_path = tmp_path / "users.csv"
        write_items(str(data_path), np.random.default_rng(2).integers(0, 32, size=5000))
        main(
            [
                "run",
                "--input",
                str(data_path),
                "--domain-size",
                "32",
                "--method",
                "flat",
                "--dump-frequencies",
                "--seed",
                "5",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["frequencies"]) == 32


class TestQueryFlagErrors:
    """A bad query flag exits with the query front-end's message."""

    BAD_RANGE_FLAGS = [
        (["--ranges", "10:5"], "left > right"),
        (["--ranges", "0:64"], "exceeds domain of size 64"),
        (["--ranges", "0:99999999999999999999"], "int64"),
        (["--quantiles", "2"], r"outside \[0, 1\]"),
    ]
    BAD_FLAGS = BAD_RANGE_FLAGS + [(["--rectangles", "0:1:0:1"], "2-D grid")]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("query_flags")
        write_items(str(tmp / "users.csv"), np.random.default_rng(6).integers(0, 64, 500))
        assert main([
            "encode", "--input", str(tmp / "users.csv"), "--domain-size", "64",
            "--method", "hh", "--seed", "1", "--output", str(tmp / "r.bin"),
        ]) == 0
        assert main(["aggregate", "--reports", str(tmp / "r.bin"),
                     "--output", str(tmp / "s.state")]) == 0
        assert main(["engine", "checkpoint", "--store-dir", str(tmp / "store"),
                     "--reports", str(tmp / "r.bin")]) == 0
        return tmp

    @pytest.mark.parametrize("flags, message", BAD_RANGE_FLAGS)
    def test_run(self, files, flags, message):
        with pytest.raises(SystemExit, match=message):
            main(["run", "--input", str(files / "users.csv"), "--domain-size", "64",
                  "--seed", "2", *flags])

    @pytest.mark.parametrize("flags, message", BAD_FLAGS)
    def test_merge(self, files, flags, message):
        with pytest.raises(SystemExit, match=message):
            main(["merge", "--states", str(files / "s.state"), *flags])

    @pytest.mark.parametrize("flags, message", BAD_FLAGS)
    def test_engine_query(self, files, flags, message):
        with pytest.raises(SystemExit, match=message):
            main(["engine", "query", "--store-dir", str(files / "store"), *flags])


class TestStdinStdoutPipes:
    """``encode`` / ``aggregate`` accept ``-`` for stdin/stdout."""

    def _users(self, tmp_path):
        path = tmp_path / "users.csv"
        write_items(str(path), np.random.default_rng(3).integers(0, 32, size=400))
        return str(path)

    def _encode_args(self, source, output):
        return [
            "encode", "--input", source, "--domain-size", "32",
            "--epsilon", "1.1", "--method", "flat", "--seed", "4",
            "--output", output,
        ]

    def test_encode_to_stdout_emits_a_framed_batch(self, tmp_path, capsysbinary):
        from repro.core.serialization import MAGIC_BATCH, unpack_report_batch

        assert main(self._encode_args(self._users(tmp_path), "-")) == 0
        blob = capsysbinary.readouterr().out
        assert blob.startswith(MAGIC_BATCH)
        header, frames = unpack_report_batch(blob)
        assert header["count"] == len(frames) == 1
        assert header["n_users"] == 400
        assert header["protocol"]["name"] == "flat"

    def test_encode_from_stdin_matches_the_file_path(self, tmp_path, monkeypatch, capsysbinary):
        import io
        import sys as _sys

        users = self._users(tmp_path)
        assert main(self._encode_args(users, "-")) == 0
        from_file = capsysbinary.readouterr().out
        with open(users, "rb") as handle:
            monkeypatch.setattr(
                _sys, "stdin", io.TextIOWrapper(io.BytesIO(handle.read()))
            )
        assert main(self._encode_args("-", "-")) == 0
        assert capsysbinary.readouterr().out == from_file

    def test_piped_aggregate_is_bit_identical_to_files(self, tmp_path, monkeypatch, capsysbinary):
        import io
        import sys as _sys

        users = self._users(tmp_path)
        # classic file pipeline
        report_path = str(tmp_path / "r.bin")
        state_path = tmp_path / "s.state"
        assert main(self._encode_args(users, report_path)) == 0
        assert main(
            ["aggregate", "--reports", report_path, "--output", str(state_path)]
        ) == 0
        # piped pipeline: encode -> framed batch -> aggregate stdin/stdout
        capsysbinary.readouterr()  # drop the file pipeline's status lines
        assert main(self._encode_args(users, "-")) == 0
        batch = capsysbinary.readouterr().out
        monkeypatch.setattr(_sys, "stdin", _FakeStdin(batch))
        assert main(["aggregate", "--reports", "-", "--output", "-"]) == 0
        piped_state = capsysbinary.readouterr().out
        assert piped_state == state_path.read_bytes()

    def test_aggregate_accepts_a_report_file_blob_on_stdin(self, tmp_path, monkeypatch):
        import sys as _sys

        users = self._users(tmp_path)
        report_path = str(tmp_path / "r.bin")
        assert main(self._encode_args(users, report_path)) == 0
        with open(report_path, "rb") as handle:
            monkeypatch.setattr(_sys, "stdin", _FakeStdin(handle.read()))
        out_path = tmp_path / "stdin.state"
        assert main(["aggregate", "--reports", "-", "--output", str(out_path)]) == 0
        state_path = tmp_path / "file.state"
        assert main(
            ["aggregate", "--reports", report_path, "--output", str(state_path)]
        ) == 0
        assert out_path.read_bytes() == state_path.read_bytes()

    def test_garbage_on_stdin_fails_loudly(self, monkeypatch):
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", _FakeStdin(b"not a report"))
        with pytest.raises(SystemExit, match="could not load"):
            main(["aggregate", "--reports", "-", "--output", "x.state"])

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_a_closed_stdout_pipe_exits_quietly(self, tmp_path, unbuffered):
        # stdout is a pipe whose reader has already gone, as under
        # ``| head`` once head exits: exit 1 with no traceback, whether
        # the write fails in print or in the final flush.
        import os
        import pathlib
        import shutil
        import subprocess
        import sys as _sys

        tests = pathlib.Path(__file__).resolve().parent
        store = tmp_path / "hh"
        shutil.copytree(tests / "data" / "store_1_11_0" / "hh", store)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tests.parent / "src"), env.get("PYTHONPATH")])
        )
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [_sys.executable, "-m", "repro.cli", "engine", "query",
                 "--store-dir", str(store), "--window", "all", "--ranges", "0:7"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr, result.stderr
        assert "BrokenPipeError" not in result.stderr, result.stderr


class _FakeStdin:
    """A stand-in for ``sys.stdin`` exposing only the binary ``buffer``."""

    def __init__(self, data: bytes) -> None:
        import io

        self.buffer = io.BytesIO(data)
