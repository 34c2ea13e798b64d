import json

import pytest

from chordspec import verifier
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

    monkeypatch.setattr(verifier, "_classify_chunk", no_sweep)
    for argv in (
        ("theorem", "--n", "6", "--jobs", "0"),
        ("theorem", "--n", "6", "--jobs", "-4"),
        ("corollary", "--n", "7", "--jobs", "0"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert "jobs" in err, argv


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
