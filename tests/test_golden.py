"""Stored report bodies: every file in ``tests/golden/`` named below is the
JSON report of one ``chordspec verify`` command, and running that command
again must give the same body, keys in their order, except ``wall_time_ms``
(``oracles.body_text``). The theorem and corollary at n = 8 also run with
``--jobs 2`` against the same bodies, so the threaded sweep is held to the
serial report. A change that moves a body regenerates only the files it
moves, and says so.
"""

import json
from pathlib import Path

import pytest

from chordspec import cli
from oracles import body_text

GOLDEN = Path(__file__).resolve().parent / "golden"

# stored body -> the `chordspec verify` arguments that produce it
COMMANDS = {
    "theorem-n6.json": ["theorem", "--n", "6"],
    "theorem-n7.json": ["theorem", "--n", "7"],
    "theorem-n8.json": ["theorem", "--n", "8"],
    "theorem-n6-offset-0.5.json": ["theorem", "--n", "6", "--threshold-offset", "-0.5"],
    "theorem-n7-offset-0.5.json": ["theorem", "--n", "7", "--threshold-offset", "-0.5"],
    "corollary-n7.json": ["corollary", "--n", "7"],
    "corollary-n8.json": ["corollary", "--n", "8"],
    "appendix-7-30.json": ["appendix", "--n-lo", "7", "--n-hi", "30"],  # g18 chain fails
    "properties-seed7-trials150.json": ["properties", "--seed", "7", "--trials", "150"],
    "properties-seed7-trials10000.json": ["properties", "--seed", "7", "--trials", "10000"],
    "properties-seed1-trials1000.json": ["properties", "--seed", "1", "--trials", "1000"],
}

CASES = [(stored, argv) for stored, argv in COMMANDS.items()] + [
    (stored, COMMANDS[stored] + ["--jobs", "2"])
    for stored in ("theorem-n8.json", "corollary-n8.json")
]


@pytest.mark.parametrize("stored, argv", CASES, ids=[" ".join(argv) for _, argv in CASES])
def test_verify_reproduces_its_stored_body(stored, argv, capsys):
    code = cli.main(["verify", *argv])
    out = capsys.readouterr().out
    want = (GOLDEN / stored).read_text()
    assert body_text(out) == body_text(want)
    assert code == (cli.EXIT_OK if json.loads(want)["passed"] else cli.EXIT_FAIL)


def test_a_one_key_edit_of_a_stored_body_is_seen():
    text = (GOLDEN / "corollary-n7.json").read_text()
    body = json.loads(text)
    body["graphs_examined"] += 1
    assert body_text(json.dumps(body)) != body_text(text)
