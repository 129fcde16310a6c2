import codecs
import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import spcluster
from spcluster import cli, datagen, render, spchart
from spcluster.spchart import SPChart


def run_cli(args):
    return cli.main(args)


class ShortWrites(io.RawIOBase):
    """A raw stream that takes at most ``k`` bytes per write, as a pipe may,
    and every third write nothing, returning None as a non-blocking file
    does when it would block."""

    def __init__(self, k):
        self.k = k
        self.writes = 0
        self.taken = b""

    def writable(self):
        return True

    def write(self, data):
        self.writes += 1
        if self.writes % 3 == 0:
            return None
        part = bytes(data[: self.k])
        self.taken += part
        return len(part)


class FailingWrites(io.RawIOBase):
    """A raw stream whose every write raises ``error``, as a full disk or a
    pipe whose reader has left does."""

    def __init__(self, error):
        self.error = error

    def writable(self):
        return True

    def write(self, data):
        raise self.error


# the commands that print, with {chart} and {tmp} to fill in
PRINTING = {
    "cluster": ["cluster", "--input", "{chart}", "--clusters", "3", "--trials", "5", "--seed", "1",
                "--output", "{tmp}/r.json"],
    "baseline": ["baseline", "--input", "{chart}", "--clusters", "3", "--output", "{tmp}/b.json"],
    "inspect": ["inspect", "--input", "{chart}"],
}


def printing_argv(command, chart, tmp_path):
    return [a.format(chart=chart, tmp=tmp_path) for a in PRINTING[command]]


def module_env():
    """The environment of a child that runs ``python -m spcluster.cli`` from this checkout."""
    src = str(Path(spcluster.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def assert_stdout_arrives_whole(argv, capsys, monkeypatch):
    """``argv``'s stdout arrives in full through short and refused writes,
    with "\r\n" line ends, and through a text stream."""
    assert run_cli(argv) == 0
    expected = capsys.readouterr().out
    for k in (1, 7, 100):
        raw = ShortWrites(k)
        # the text layer of unbuffered stdout writes straight to the raw file
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, "utf-8", write_through=True))
        assert run_cli(argv) == 0
        assert raw.taken == expected.encode()
    # line ends are written as print writes them where they are not "\n"
    monkeypatch.setattr(os, "linesep", "\r\n")
    raw = ShortWrites(100)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, "utf-8", write_through=True))
    assert run_cli(argv) == 0
    assert raw.taken == expected.replace("\n", "\r\n").encode()
    monkeypatch.setattr(sys, "stdout", io.StringIO())  # as contextlib.redirect_stdout sets it
    assert run_cli(argv) == 0
    assert sys.stdout.getvalue() == expected


def write_chart(tmp_path, rows, name="chart.csv"):
    bits = np.array(rows, dtype=np.int8)
    chart = SPChart(
        bits,
        tuple(f"S{i+1}" for i in range(bits.shape[0])),
        tuple(f"P{j+1}" for j in range(bits.shape[1])),
    )
    path = tmp_path / name
    path.write_text(spchart.chart_to_csv(chart))
    return path


def write_non_ascii_chart(tmp_path):
    """A chart CSV, written as UTF-8, whose first two ids are not ASCII; returns
    its path and its ids."""
    ids = ("学生1", "Ålice") + tuple(f"S{i}" for i in range(3, 13))
    bits = np.random.default_rng(5).integers(0, 2, size=(len(ids), 6)).astype(np.int8)
    chart = SPChart(bits, ids, tuple(f"P{j}" for j in range(1, 7)))
    path = tmp_path / "chart.csv"
    path.write_bytes(spchart.chart_to_csv(chart).encode("utf-8"))
    return path, ids


def ascii_locale_python():
    """A runner of ``python -X utf8=0 <args>`` in the C locale without locale
    coercion, so that the child's files and stdout default to ASCII; skips
    the test where that locale still prefers UTF-8."""
    src = str(Path(spcluster.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHONIO", "LC_"))}
    env.update(
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        PYTHONCOERCECLOCALE="0",
        LC_ALL="C",
    )

    def run(*args):
        return subprocess.run(
            [sys.executable, "-X", "utf8=0", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    probe = run("-c", "import locale; print(locale.getpreferredencoding(False))")
    if codecs.lookup(probe.stdout.strip()).name == "utf-8":
        pytest.skip("the C locale still prefers UTF-8 here")
    return run


@pytest.fixture()
def generated_chart(tmp_path):
    path = tmp_path / "gen.csv"
    code = run_cli(
        [
            "generate",
            "--type",
            "test",
            "--students",
            "60",
            "--problems",
            "10",
            "--seed",
            "11",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_round_trips_through_inspect(self, generated_chart, capsys):
        assert run_cli(["inspect", "--input", str(generated_chart)]) == 0
        out = capsys.readouterr().out
        assert "students: 60  problems: 10" in out

    def test_repeat_invocation_is_identical(self, tmp_path):
        args = ["generate", "--type", "drill", "--students", "20", "--problems", "5",
                "--seed", "7", "--output", ""]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args[-1] = str(a)
        assert run_cli(args) == 0
        args[-1] = str(b)
        assert run_cli(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_out_of_range(self, tmp_path):
        code = run_cli(
            ["generate", "--type", "test", "--students", "5", "--problems", "5",
             "--noise", "0.9", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_csv_parses_cleanly(self, generated_chart):
        from spcluster.datagen import GenSpec, generate_chart
        from spcluster.spchart import ChartType

        chart = spchart.parse_chart(generated_chart.read_bytes())
        assert chart.num_students == 60
        # zero diffs against the chart the generator produced in-memory
        assert chart == generate_chart(GenSpec(ChartType.TEST, 60, 10, seed=11))


class TestCluster:
    def test_report_and_determinism(self, generated_chart, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        base = ["cluster", "--input", str(generated_chart), "--clusters", "4",
                "--trials", "60", "--seed", "3", "--output"]
        assert run_cli(base + [str(out1)]) == 0
        assert run_cli(base + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        doc = json.loads(out1.read_text())
        assert doc["format_version"] == "3"
        assert doc["input_digest"].startswith("sha256:")
        assert doc["parameters"]["clusters"] == 4
        assert len(doc["trials"]) == 60
        sizes = [c["size"] for c in doc["best_trial"]["clusters"]]
        assert sum(sizes) == 60
        # report JSON round-trips
        assert json.loads(json.dumps(doc)) == doc

    def test_cluster_chart_types_match_their_sub_charts(self, generated_chart, tmp_path):
        out = tmp_path / "r.json"
        args = ["cluster", "--input", str(generated_chart), "--clusters", "4",
                "--trials", "20", "--seed", "3", "--output", str(out)]
        assert run_cli(args) == 0
        chart = spchart.parse_chart(generated_chart.read_bytes())
        doc = json.loads(out.read_text())
        assert doc["chart"]["chart_type"] == spchart.classify_type(chart).value
        assert doc["chart"]["average_caution"] == spchart.average_caution(chart)
        by_id = {sid: i for i, sid in enumerate(chart.student_ids)}
        for entry in doc["best_trial"]["clusters"]:
            sub = spchart.take_rows(chart, [by_id[sid] for sid in entry["student_ids"]])
            assert entry["chart_type"] == spchart.classify_type(sub).value

    def test_worker_count_does_not_change_bytes(self, generated_chart, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        base = ["cluster", "--input", str(generated_chart), "--clusters", "3",
                "--trials", "30", "--seed", "5", "--output"]
        monkeypatch.setenv("SPCLUSTER_WORKERS", "1")
        assert run_cli(base + [str(out1)]) == 0
        monkeypatch.setenv("SPCLUSTER_WORKERS", "2")
        assert run_cli(base + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_best_trial_tracks_caution(self, generated_chart, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(
            ["cluster", "--input", str(generated_chart), "--clusters", "4",
             "--trials", "300", "--seed", "1", "--output", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        # recorded from this exact (chart, seed, trials) run: minimizing the
        # caution cost favors many small homogeneous clusters on unstructured
        # synthetic data, so the winner realizes far more than 4 clusters
        assert len(doc["best_trial"]["clusters"]) == 15
        assert doc["f2"] <= doc["chart"]["average_caution"]

    def test_emit_charts(self, generated_chart, tmp_path):
        out = tmp_path / "r.json"
        charts_dir = tmp_path / "charts"
        assert run_cli(
            ["cluster", "--input", str(generated_chart), "--clusters", "3",
             "--trials", "20", "--seed", "2", "--output", str(out),
             "--emit-charts", str(charts_dir)]
        ) == 0
        doc = json.loads(out.read_text())
        csvs = sorted(charts_dir.glob("cluster_*.csv"))
        svgs = sorted(charts_dir.glob("cluster_*.svg"))
        assert len(csvs) == len(doc["best_trial"]["clusters"])
        assert len(svgs) == len(csvs)
        total = 0
        for path in csvs:
            sub = spchart.parse_chart(path.read_bytes())
            total += sub.num_students
        assert total == 60
        # each file is the sorted S-P chart of its cluster's students
        chart = spchart.parse_chart(generated_chart.read_bytes())
        position = {sid: i for i, sid in enumerate(chart.student_ids)}
        for k, entry in enumerate(doc["best_trial"]["clusters"], start=1):
            members = [position[sid] for sid in entry["student_ids"]]
            expected = spchart.rearrange(spchart.take_rows(chart, members))
            assert spchart.parse_chart((charts_dir / f"cluster_{k:02d}.csv").read_bytes()) == expected
            root = ElementTree.parse(charts_dir / f"cluster_{k:02d}.svg").getroot()
            texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
            assert texts == [*expected.problem_ids, *expected.student_ids]

    def test_unwritable_emit_charts_names_its_flag(self, generated_chart, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file where the directory would go")
        assert run_cli(
            ["cluster", "--input", str(generated_chart), "--clusters", "2", "--trials", "2",
             "--seed", "0", "--output", str(tmp_path / "r.json"), "--emit-charts", str(taken)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --emit-charts: ")
        assert captured.err.count("\n") == 1

    def test_files_are_utf8_in_an_ascii_locale(self, tmp_path):
        path, ids = write_non_ascii_chart(tmp_path)
        run = ascii_locale_python()
        out, charts_dir, txt = tmp_path / "r.json", tmp_path / "charts", tmp_path / "c.txt"
        cluster = run(
            "-m", "spcluster.cli", "cluster", "--input", str(path), "--clusters", "2",
            "--trials", "5", "--seed", "1", "--output", str(out), "--emit-charts", str(charts_dir),
        )
        assert cluster.returncode == 0, cluster.stderr
        clusters = json.loads(out.read_bytes())["best_trial"]["clusters"]
        for k, entry in enumerate(clusters, 1):
            sub = spchart.parse_chart((charts_dir / f"cluster_{k:02d}.csv").read_bytes())
            assert sorted(sub.student_ids) == sorted(entry["student_ids"])
        inspect = run("-m", "spcluster.cli", "inspect", "--input", str(path), "--output", str(txt))
        assert inspect.returncode == 0, inspect.stderr
        assert all(i in txt.read_text(encoding="utf-8") for i in ids)

    def test_invalid_parameters(self, generated_chart, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_cli(["cluster", "--input", str(generated_chart), "--clusters", "0",
                        "--output", out]) == 2
        assert run_cli(["cluster", "--input", str(generated_chart), "--trials", "0",
                        "--output", out]) == 2
        assert run_cli(["cluster", "--input", str(generated_chart), "--seed", "-1",
                        "--output", out]) == 2
        assert run_cli(["cluster", "--input", str(generated_chart), "--clusters", "500",
                        "--output", out]) == 2

    def test_parse_errors_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n0,1")
        assert run_cli(["cluster", "--input", str(bad), "--output",
                        str(tmp_path / "r.json")]) == 1
        assert "row 1, column 2" in capsys.readouterr().err
        assert run_cli(["cluster", "--input", str(tmp_path / "missing.csv"),
                        "--output", str(tmp_path / "r.json")]) == 1

    def test_input_is_read_before_parameters_are_checked(self, tmp_path):
        assert run_cli(["cluster", "--input", str(tmp_path / "missing.csv"), "--trials", "0",
                        "--output", str(tmp_path / "r.json")]) == 1

    def test_unreadable_csv_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "long.csv"
        bad.write_text("id,P1\n" + "S" * (csv.field_size_limit() + 1) + ",1\n")
        assert run_cli(["cluster", "--input", str(bad), "--output",
                        str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --input: unreadable CSV at line 2: ")
        assert err.count("\n") == 1

    def test_bad_workers_variable_exits_two(self, generated_chart, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPCLUSTER_WORKERS", "lots")
        assert run_cli(
            ["cluster", "--input", str(generated_chart), "--clusters", "2",
             "--trials", "2", "--seed", "0", "--output", str(tmp_path / "r.json")]
        ) == 2
        assert capsys.readouterr().err == "error: SPCLUSTER_WORKERS must be a positive integer, got 'lots'\n"

    def test_unwritable_output_exits_two(self, generated_chart, tmp_path):
        assert run_cli(
            ["cluster", "--input", str(generated_chart), "--clusters", "2",
             "--trials", "2", "--seed", "0",
             "--output", str(tmp_path / "no" / "such" / "dir" / "r.json")]
        ) == 2

    def test_summary_on_stdout(self, generated_chart, tmp_path, capsys):
        assert run_cli(
            ["cluster", "--input", str(generated_chart), "--clusters", "3",
             "--trials", "10", "--seed", "0", "--output", str(tmp_path / "r.json")]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("Cluster ")
        assert "Students" in out and "Caution " in out and "f1 = " in out


class TestBaseline:
    def test_hundred_students_four_quarters(self, tmp_path):
        rng = np.random.default_rng(0)
        path = write_chart(tmp_path, rng.integers(0, 2, size=(100, 10)))
        out = tmp_path / "b.json"
        assert run_cli(["baseline", "--input", str(path), "--clusters", "4",
                        "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [c["size"] for c in doc["best_trial"]["clusters"]] == [25, 25, 25, 25]
        assert doc["f1"] == 0.0
        assert all(c["fixed_point"] is None for c in doc["best_trial"]["clusters"])

    def test_remainders(self, tmp_path):
        path = write_chart(tmp_path, np.ones((10, 3), dtype=np.int8))
        out = tmp_path / "b.json"
        assert run_cli(["baseline", "--input", str(path), "--clusters", "3",
                        "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [c["size"] for c in doc["best_trial"]["clusters"]] == [4, 3, 3]

    def test_identical_reports(self, tmp_path):
        rng = np.random.default_rng(5)
        path = write_chart(tmp_path, rng.integers(0, 2, size=(12, 6)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["baseline", "--input", str(path), "--clusters", "3",
                        "--output", str(a)]) == 0
        assert run_cli(["baseline", "--input", str(path), "--clusters", "3",
                        "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestInspect:
    def test_all_ones(self, tmp_path, capsys):
        path = write_chart(tmp_path, np.ones((3, 3), dtype=np.int8))
        assert run_cli(["inspect", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chart type: drill" in out
        assert "S: 3 3 3" in out
        assert "P: 3 3 3" in out

    def test_txt_grid_is_rearranged(self, tmp_path, capsys):
        path = write_chart(tmp_path, [[0, 1], [1, 1]])
        assert run_cli(["inspect", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        rows = [
            m.group(1)
            for m in (re.match(r"^\s*S\d+\s(.*)$", l) for l in out.splitlines())
            if m
        ]
        cells = ["".join(ch for ch in body if ch in "01") for body in rows]
        assert cells == ["11", "10"]

    def test_txt_output_is_stable(self, tmp_path):
        path = write_chart(tmp_path, [[0, 1, 1], [1, 0, 1], [1, 1, 1]])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(["inspect", "--input", str(path), "--output", str(a)]) == 0
        assert run_cli(["inspect", "--input", str(path), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # far more output than a pipe buffers, so writing fails once the reader is gone
        chart = datagen.generate_chart(datagen.GenSpec(spchart.ChartType.TEST, 20000, 6, seed=1))
        path = tmp_path / "big.csv"
        path.write_text(spchart.chart_to_csv(chart))
        env = module_env()
        # buffered stdout, and unbuffered, whose writes a leaving reader can cut short
        for unbuffered in ("", "1"):
            env["PYTHONUNBUFFERED"] = unbuffered
            with subprocess.Popen(
                [sys.executable, "-m", "spcluster.cli", "inspect", "--input", str(path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            ) as proc:
                assert proc.stdout.readline() == b"students: 20000  problems: 6\n"
                proc.stdout.close()
                assert proc.stderr.read() == b""
                assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE

    def test_short_writes_lose_nothing(self, tmp_path, capsys, monkeypatch):
        path = write_chart(tmp_path, np.random.default_rng(3).integers(0, 2, size=(40, 5)))
        assert_stdout_arrives_whole(["inspect", "--input", str(path)], capsys, monkeypatch)

    def test_stdout_that_cannot_encode_an_id_exits_two(self, tmp_path):
        path, _ = write_non_ascii_chart(tmp_path)
        run = ascii_locale_python()
        inspect = run("-m", "spcluster.cli", "inspect", "--input", str(path))
        assert inspect.returncode == 2
        assert inspect.stdout == ""
        assert inspect.stderr.startswith("error: stdout (")
        assert inspect.stderr.endswith("; use --output\n")
        assert inspect.stderr.count("\n") == 1

    def test_unwritable_output_prints_nothing(self, tmp_path, capsys):
        path = write_chart(tmp_path, [[0, 1], [1, 1]])
        out = tmp_path / "no" / "such" / "c.txt"
        assert run_cli(["inspect", "--input", str(path), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --output: ")
        assert captured.err.count("\n") == 1

    def test_svg(self, tmp_path):
        path = write_chart(tmp_path, [[0, 1], [1, 1]])
        out = tmp_path / "chart.svg"
        assert run_cli(["inspect", "--input", str(path), "--format", "svg",
                        "--output", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 2
        assert svg.count("<rect") == 4

    def test_svg_escapes_ids(self, tmp_path):
        bits = np.array([[1, 0], [1, 1]], dtype=np.int8)
        chart = SPChart(bits, ("A&B", "<x>"), ("P&1", "P>2"))
        path = tmp_path / "chart.csv"
        path.write_text(spchart.chart_to_csv(chart))
        out = tmp_path / "chart.svg"
        assert run_cli(["inspect", "--input", str(path), "--format", "svg",
                        "--output", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        rearranged = spchart.rearrange(spchart.parse_chart(path.read_text()))
        assert texts == list(rearranged.problem_ids + rearranged.student_ids)


class TestStdout:
    """Every command writes its stdout in full or fails loudly: exit 141 when
    the reader leaves, exit 2 and one error line when stdout is closed or
    cannot be written."""

    @pytest.fixture()
    def chart(self, tmp_path):
        return write_chart(tmp_path, np.random.default_rng(3).integers(0, 2, size=(40, 5)))

    @pytest.mark.parametrize("command", ["cluster", "baseline"])
    def test_tables_arrive_whole(self, command, chart, tmp_path, capsys, monkeypatch):
        assert_stdout_arrives_whole(printing_argv(command, chart, tmp_path), capsys, monkeypatch)

    @pytest.mark.parametrize("command", sorted(PRINTING))
    def test_closed_stdout_exits_two(self, command, chart, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)  # as Python sets it when file descriptor 1 is closed
        assert run_cli(printing_argv(command, chart, tmp_path)) == cli.EXIT_PARAMS
        assert capsys.readouterr().err == "error: stdout is closed\n"

    def test_generate_needs_no_stdout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        out = tmp_path / "g.csv"
        assert run_cli(["generate", "--type", "test", "--students", "5", "--problems", "3",
                        "--output", str(out)]) == 0
        assert spchart.parse_chart(out.read_bytes()).num_students == 5

    @pytest.mark.parametrize("command", sorted(PRINTING))
    def test_write_errors_exit_two(self, command, chart, tmp_path, capsys, monkeypatch):
        full = FailingWrites(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(full, "utf-8", write_through=True))
        assert run_cli(printing_argv(command, chart, tmp_path)) == cli.EXIT_PARAMS
        assert capsys.readouterr().err == f"error: stdout: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("command", sorted(PRINTING))
    def test_a_leaving_reader_exits_quietly(self, command, chart, tmp_path, capsys, monkeypatch):
        gone = FailingWrites(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(gone, "utf-8", write_through=True))
        assert run_cli(printing_argv(command, chart, tmp_path)) == cli.EXIT_BROKEN_PIPE
        assert capsys.readouterr().err == ""

    def run_redirected(self, redirect, argv):
        """``python -m spcluster.cli argv`` with its stdout redirected by the shell."""
        return subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "spcluster.cli", *argv],
            env=module_env(), stderr=subprocess.PIPE, text=True, timeout=60,
        )

    def test_closed_file_descriptor(self, chart, tmp_path):
        out = tmp_path / "g.csv"
        generate = self.run_redirected(">&-", ["generate", "--type", "test", "--students", "5",
                                               "--problems", "3", "--output", str(out)])
        assert (generate.returncode, generate.stderr) == (0, "")
        assert out.exists()
        cluster = self.run_redirected(">&-", printing_argv("cluster", chart, tmp_path))
        assert (cluster.returncode, cluster.stderr) == (2, "error: stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", ["cluster", "inspect"])
    def test_full_device(self, command, chart, tmp_path):
        done = self.run_redirected("> /dev/full", printing_argv(command, chart, tmp_path))
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: stdout: [Errno {errno.ENOSPC}] ")
        assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--type", "test", "--students", "0", "--problems", "5",
         "--output", "{tmp}/x.csv"],
        ["generate", "--type", "test", "--students", "5", "--problems", "0",
         "--output", "{tmp}/x.csv"],
        ["generate", "--type", "test", "--students", "5", "--problems", "5", "--seed", "-1",
         "--output", "{tmp}/x.csv"],
        ["generate", "--type", "test", "--students", "5", "--problems", "5", "--noise", "0.7",
         "--output", "{tmp}/x.csv"],
        ["generate", "--type", "test", "--students", "5", "--problems", "5",
         "--output", "{tmp}/no/such/x.csv"],
        ["baseline", "--input", "{chart}", "--clusters", "0", "--output", "{tmp}/r.json"],
        ["inspect", "--input", "{chart}", "--output", "{tmp}/no/such/c.txt"],
    ],
)
def test_bad_parameters_print_one_error_line_and_exit_two(argv, generated_chart, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path, chart=generated_chart) for a in argv]
    capsys.readouterr()
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


LONG_LABEL = b"id,P1\n" + b"S" * (csv.field_size_limit() + 1) + b",1\n"
TWO_STUDENTS = b"id,P1,P2\nS1,1,0\nS2,0,1\n"
REFUSALS = {
    "non-binary-cell": (b"id,P1,P2\nS1,1,2\nS2,0,1\n", [], 1,
                        "--input: non-binary cell '2' at row 2, column 3"),
    "empty-cell": (b"id,P1,P2\nS1,1,\nS2,0,1\n", [], 1,
                   "--input: non-binary cell at row 2, column 3"),
    "ragged-row": (b"id,P1,P2\nS1,1,0\nS2,0,1,1\n", [], 1,
                   "--input: ragged rows at row 3: expected 2 cells, found 3"),
    "ragged-header": (b"P1,P2,P3,P4\nS1,1,0\n", [], 1,
                      "--input: ragged rows at row 1: expected 2 cells, found 4"),
    "header-only": (b"id,P1,P2\n", [], 1, "--input: input contains no data rows"),
    "labels-without-cells": (b"S1\nS2\n", [], 1, "--input: input contains no data rows"),
    "over-long-field": (LONG_LABEL, [], 1, "--input: unreadable CSV at line 2: "
                        f"field larger than field limit ({csv.field_size_limit()})"),
    "invalid-utf8": (b"\xff\xfe1,0\n", [], 1, "--input: input is not valid UTF-8: "
                     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "duplicate-student": (TWO_STUDENTS + b"S1,1,1\n", [], 1,
                          "--input: student id 'S1' appears more than once"),
    "duplicate-problem": (b"id,P1,P1\nS1,1,0\nS2,0,1\n", [], 1,
                          "--input: problem id 'P1' appears more than once"),
    "too-many-clusters": (TWO_STUDENTS, ["--clusters", "3"], 2,
                          "cannot make 3 clusters from 2 students"),
    "negative-seed": (TWO_STUDENTS, ["--seed", "-1"], 2, "master seed must be non-negative"),
}


@pytest.mark.parametrize("content, argv, code, message", REFUSALS.values(), ids=REFUSALS)
def test_each_refusal_prints_its_exact_line_and_exit_code(
    content, argv, code, message, tmp_path, capsys
):
    path, out = tmp_path / "chart.csv", tmp_path / "r.json"
    path.write_bytes(content)
    capsys.readouterr()
    assert run_cli(["cluster", "--input", str(path), "--clusters", "1", "--trials", "1",
                    "--seed", "1", *argv, "--output", str(out)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--input", "{chart}", "--clusters", "3", "--trials", "5", "--seed", "1",
         "--output", "{tmp}/r.json"],
        ["baseline", "--input", "{chart}", "--clusters", "3", "--output", "{tmp}/b.json"],
        ["inspect", "--input", "{chart}"],
    ],
)
def test_commands_never_import_numpy_random(argv, generated_chart, tmp_path):
    # the trial seeds and draws are the package's own, so a run does not
    # pay for importing numpy.random
    argv = [a.format(tmp=tmp_path, chart=generated_chart) for a in argv]
    script = (
        "import sys\nfrom spcluster import cli\ncode = cli.main(sys.argv[1:])\n"
        "print('numpy.random' in sys.modules)\nsys.exit(code)"
    )
    src = str(Path(spcluster.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(*args, **preset):
    """Run ``python <args>`` with the package on the path and none of the BLAS
    thread variables but those in ``preset`` (an earlier import of
    ``spcluster.cli`` in this process may have set them); returns its stdout."""
    src = str(Path(spcluster.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, preset, expected",
    [
        ("import spcluster.cli", {}, ["1", "1", "1"]),
        ("import spcluster.cli", {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
        ("import spcluster", {}, [None, None, None]),
        ("from spcluster import run_trials", {}, [None, None, None]),
    ],
    ids=["cli", "cli-keeps-a-set-value", "package", "library-export"],
)
def test_only_the_cli_pins_blas_threads(script, preset, expected):
    probe = f"{script}\nimport json, os\nprint(json.dumps([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}]))"
    assert json.loads(run_python("-c", probe, **preset)) == expected


def openblas_on_two_cpus():
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        return False
    return "openblas" in blas.lower()


@pytest.mark.skipif(not openblas_on_two_cpus(), reason="needs Linux, 2 CPUs and an OpenBLAS numpy")
def test_cli_import_starts_no_blas_thread():
    # OpenBLAS starts its helper threads as numpy loads, one per further CPU
    probe = "import spcluster.cli, os\nprint(len(os.listdir('/proc/self/task')))"
    assert run_python("-c", probe) == "1\n"


@pytest.mark.parametrize(
    "students, problems, clusters, trials",
    [(100, 10, 4, 20), (2000, 40, 8, 2)],
    ids=["state-table", "column-loop"],
)
def test_reports_do_not_depend_on_blas_threads(tmp_path, students, problems, clusters, trials):
    # the column loop's products over 2,000 rows are large enough for OpenBLAS to split
    chart = datagen.generate_chart(datagen.GenSpec(spchart.ChartType.TEST, students, problems, seed=1))
    path = tmp_path / "chart.csv"
    path.write_text(spchart.chart_to_csv(chart))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        run_python("-m", "spcluster.cli", "cluster", "--input", str(path), "--clusters", str(clusters),
                   "--trials", str(trials), "--seed", "1", "--output", str(out),
                   OPENBLAS_NUM_THREADS=threads)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


class TestRendering:
    def test_text_marks_curves(self):
        chart = spchart.parse_chart("1,1\n1,0")
        text = render.render_text(spchart.rearrange(chart))
        assert "|" in text and "-" in text

    def test_text_underlines_an_unsolved_problem_above_the_first_row(self):
        sp = spchart.rearrange(spchart.parse_chart("1,0,1\n0,0,1\n1,0,0"))
        lines = render.render_text(sp).splitlines()
        assert lines[0].split() == ["P1", "P3", "P2"]  # P2, solved by nobody, comes last
        assert lines[1] == " " * lines[0].index("P2") + "--"
        assert lines[2].startswith("S1 ")

    def test_svg_polyline_counts(self):
        svg = render.render_svg(spchart.rearrange(spchart.parse_chart("1,0\n0,1")))
        assert svg.count("<polyline") == 2
