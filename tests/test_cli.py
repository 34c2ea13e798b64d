import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chordspec import cli, kernels, verifier
from chordspec.cli import main
from chordspec.families import build_family
from chordspec.graphs import graph6_encode


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_family_then_q_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, "family", "K11n2Plus:n=7")
    assert code == 0
    g6 = out.strip()
    code, out, _ = run(capsys, "q", stdin=g6 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert abs(float(out.strip()) - 8.7355) < 5e-4


def test_q_formats_12_decimals(capsys, monkeypatch):
    g6 = graph6_encode(build_family("Cycle:n=9").graph)
    code, out, _ = run(capsys, "q", stdin=g6 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "4.000000000000"


def test_q_prints_indices_next_to_a_midpoint_correctly_rounded(capsys, monkeypatch):
    # mpmath at 40 digits: 6.84963406038749939... and 5.09362761511050009...;
    # eigvalsh gives 6.8496340603875 and 5.0936276151105, whose 12-decimal
    # print rounds the other way. An edgeless graph's 0 is zero-padded
    code, out, _ = run(capsys, "q", stdin="Flfc?\nFko`?\nB?\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.split() == ["6.849634060387", "5.093627615111", "0.000000000000"]


def test_detect_apex_on_k5_prints_none(capsys, monkeypatch):
    g6 = graph6_encode(build_family("Complete:n=5").graph)
    code, out, _ = run(
        capsys, "detect", "--k", "3", "--apex", stdin=g6 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.strip() == "NONE"


def test_detect_apex_on_k6_prints_certificate(capsys, monkeypatch):
    g6 = graph6_encode(build_family("Complete:n=6").graph)
    code, out, _ = run(
        capsys, "detect", "--k", "3", "--apex", stdin=g6 + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.startswith("cycle=") and "apex=" in out


def test_every_family_parses_back_through_consumers(capsys, monkeypatch):
    specs = [
        "Complete:n=5", "Path:n=4", "Cycle:n=6", "Star:s=3", "StarPlus:s=3",
        "DoubleStar:n1=1,n2=2", "C4Plus", "K11n2Plus:n=8", "K1JoinK4UnionK1",
        "Extremal:n=7", "K1JoinK4s:n=9", "K1JoinK1K4s:n=6", "K1JoinK2K4s:n=7",
        "K1JoinStarPlusK4s:n=9,s=3", "CompleteMultipartite:parts=2,2,2",
        "U1", "U9", "U12:s=3", "G1:n=10", "G10:n=7", "G12:n=10,s=3", "G13:n=7",
    ]
    for spec in specs:
        code, out, _ = run(capsys, "family", spec)
        assert code == 0, spec
        code, qout, _ = run(capsys, "q", stdin=out, monkeypatch=monkeypatch)
        assert code == 0 and float(qout.strip()) > 0, spec
        code, dout, _ = run(
            capsys, "detect", "--k", "1", stdin=out, monkeypatch=monkeypatch
        )
        assert code == 0 and dout.strip(), spec


def test_family_list(capsys):
    code, out, _ = run(capsys, "family", "--list")
    assert code == 0
    assert "K11n2Plus" in out and "G12" in out


def test_bad_family_exits_2(capsys):
    code, _, err = run(capsys, "family", "Bogus:n=3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("spec, named", [
    ("U3:n=99", "'n'"), ("G13:n=9,s=5", "'s'"), ("G5:n=13,x=1", "'x'"),
    ("Cycle:n=9,n=10", "'n' given twice"),
])
def test_family_parameter_it_does_not_take_exits_2(capsys, spec, named):
    code, out, err = run(capsys, "family", spec)
    assert code == 2 and out == ""
    assert named in err


def test_family_list_shows_parameters(capsys):
    code, out, _ = run(capsys, "family", "--list")
    assert code == 0
    lines = out.splitlines()
    assert "Complete (n=...)" in lines and "K1JoinStarPlusK4s (n=...,s=...)" in lines
    assert lines.index("StarPlus (s=...)") + 1 == lines.index("U1")


def test_malformed_graph6_reports_line(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, "q", stdin="Bw\n???bad\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "line 2" in err
    # a byte that is not text, in a file as on stdin
    path = tmp_path / "bad.g6"
    path.write_bytes(b"Bw\n\xff\n")
    for command in ("q", "detect"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert "chordspec: error: line 2: graph6 byte" in err, command


def test_unknown_flag_exits_2(capsys):
    for argv in (
        ("q", "--bogus"),
        # --jobs only parallelises the theorem and corollary sweeps
        ("verify", "appendix", "--n-lo", "7", "--n-hi", "7", "--jobs", "2"),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 2, argv


def test_bad_detect_parameter_exits_2(capsys, monkeypatch):
    code, _, err = run(capsys, "detect", "--k", "0", stdin="Bw\n",
                       monkeypatch=monkeypatch)
    assert code == 2 and "error" in err


def test_bad_verify_parameter_exits_2(capsys, monkeypatch):
    # refused before any sweep, and nothing is written to stdout
    def no_sweep(*args):
        raise AssertionError("swept with a bad parameter")

    monkeypatch.setattr(verifier, "_sweep_classified", no_sweep)
    for argv in (
        ("corollary", "--n", "7", "--min-chords", "0"),
        ("corollary", "--n", "7", "--min-chords", "-2"),
        ("theorem", "--n", "6", "--threshold-offset", "nan"),
        ("theorem", "--n", "6", "--threshold-offset", "inf"),
        ("theorem", "--n", "6", "--threshold-offset", "-inf"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert "error" in err, argv


def test_jobs_below_one_exits_2(capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept with a bad --jobs")

    monkeypatch.setattr(kernels, "classify", no_sweep)
    for argv in (
        ("theorem", "--n", "6", "--jobs", "0"),
        ("theorem", "--n", "6", "--jobs", "-4"),
        ("corollary", "--n", "7", "--jobs", "0"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert "jobs" in err, argv


def test_jobs_help_names_the_cpu_cap_and_the_serial_order(capsys):
    for task in ("theorem", "corollary"):
        code, out, _ = run(capsys, "verify", task, "--help")
        assert code == 0 and ("--jobs JOBS worker threads of the sweep, capped at the "
                              "usable CPUs; order 6 sweeps serially") in " ".join(out.split()), out


def test_broken_pipe_exits_0_quietly(capsys, monkeypatch):
    # a reader that stops early (`chordspec verify ... | head -1`)
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    import sys

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["verify", "theorem", "--n", "6"])
    _, err = capsys.readouterr()
    assert (code, err) == (0, "")


def test_missing_input_file_exits_2(capsys):
    code, _, err = run(capsys, "q", "/nonexistent/file.g6")
    assert code == 2 and "error" in err


def test_verify_theorem_json(capsys):
    code, out, err = run(capsys, "verify", "theorem", "--n", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["task"] == "theorem" and rep["passed"]
    assert rep["extremal_hits"] == 30
    assert "result: PASS" in err


def test_verify_mutated_theorem_exits_1(capsys):
    code, out, _ = run(
        capsys, "verify", "theorem", "--n", "6", "--threshold-offset", "-0.5"
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["counterexamples"]


def test_verify_properties_json(capsys):
    code, out, _ = run(
        capsys, "verify", "properties", "--seed", "5", "--trials", "40"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["task"] == "properties"


def test_report_diff(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "theorem", "--n", "6")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(out)
    code, out, _ = run(capsys, "verify", "theorem", "--n", "6")
    b.write_text(out)
    code, out, _ = run(capsys, "report-diff", str(a), str(b))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", "theorem", "--n", "6",
                       "--threshold-offset", "-0.5")
    b.write_text(out)
    code, out, _ = run(capsys, "report-diff", str(a), str(b))
    assert code == 1 and "counterexamples" in out
    # a malformed report is an input error, not a difference, on either side
    report = a.read_text()
    good = tmp_path / "good.json"
    good.write_text(report)
    fields = json.loads(report)
    for text, problem in (
        (report[: len(report) // 2], "not JSON"),
        ("{}", "'task'"),
        ("[]", "not a JSON object"),
        (b"\xff", "not JSON"),  # not UTF-8
        (json.dumps({**fields, "details": [1]}), "'details'"),
        (json.dumps({**fields, "wall_time_ms": "x"}), "'wall_time_ms'"),
        (json.dumps({**fields, "graphs_examined": True}), "'graphs_examined'"),
        (json.dumps({**fields, "counterexamples": [0]}), "'counterexamples'"),
    ):
        b.write_bytes(text if isinstance(text, bytes) else text.encode())
        for pair in ((b, good), (good, b)):
            code, out, err = run(capsys, "report-diff", *map(str, pair))
            assert (code, out) == (2, "") and problem in err, text
            assert err.startswith("chordspec: error: "), text


def test_q_reads_file(tmp_path, capsys):
    p = tmp_path / "graphs.g6"
    p.write_text("Bw\nBg\n")
    code, out, _ = run(capsys, "q", str(p))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert abs(float(lines[0]) - 4.0) < 1e-9  # triangle


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # the docs must not name API the package no longer has
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_pipelines_print_what_the_readme_states(capsys, monkeypatch):
    # `chordspec family SPEC | chordspec CMD ...   # OUTPUT` lines
    lines = re.findall(r"^chordspec family (\S+) \| chordspec ([^#\n]+?) +# (\S+)$",
                       README.read_text(), re.M)
    assert [want for *_, want in lines] == ["8.735489498216", "NONE", "4.000000000000"]
    for spec, cmd, want in lines:
        code, g6, _ = run(capsys, "family", spec)
        assert code == 0
        code, out, _ = run(capsys, *cmd.split(), stdin=g6, monkeypatch=monkeypatch)
        assert (code, out.strip()) == (0, want), (spec, cmd)


SRC = Path(cli.__file__).resolve().parent.parent


def _fresh_process(argv, stdin=""):
    """(exit code, stdout, stderr) of one ``chordspec`` run in a new
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "chordspec.cli", *argv], input=stdin,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc.returncode, proc.stdout, proc.stderr


def _without_wall_time(out):
    # a report's body is everything but its wall time; other output as is
    try:
        report = json.loads(out)
    except ValueError:
        return out
    if isinstance(report, dict):
        report.pop("wall_time_ms")
    return report


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # the first main call builds the ten parsers of the tree, later calls
    # reuse them; each call, whatever ran before it in the process, gives
    # what a new process gives: the offset of a previous call does not
    # stick, a refused option still exits 2 and --help still exits 0
    monkeypatch.setenv("COLUMNS", "80")  # the same help width in both
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    cli.build_parser.cache_clear()
    g6 = graph6_encode(build_family("K11n2Plus:n=7").graph)
    calls = [
        (("verify", "theorem", "--n", "6", "--threshold-offset", "-0.5"), ""),
        (("verify", "theorem", "--n", "6"), ""),
        (("verify", "appendix", "--n-lo", "7", "--n-hi", "7", "--jobs", "2"), ""),
        (("--help",), ""),
        (("family", "K11n2Plus:n=7"), ""),
        (("q",), g6 + "\n"),
    ]
    codes, outs = [], []
    for argv, stdin in calls:
        code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
        assert len(built) == 10, argv
        fresh = _fresh_process(argv, stdin)
        assert (code, _without_wall_time(out), err) == (
            fresh[0], _without_wall_time(fresh[1]), fresh[2]), argv
        codes.append(code)
        outs.append(out)
    assert codes == [1, 0, 2, 0, 0, 0]
    assert json.loads(outs[1])["params"] == {"n": 6, "threshold_offset": 0.0}
    assert outs[3].startswith("usage: chordspec") and outs[4].strip() == g6
    assert outs[5].strip() == "8.735489498216"


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **kw: built.append(1) or init(self, *a, **kw)\n"
            "import chordspec.cli as cli\n"
            "print(len(built), cli.build_parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\n", "")
