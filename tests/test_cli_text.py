"""The parser's text is pinned: ``hyperlin --help``, every subcommand's
``--help``, and the ``invalid choice`` error of every option whose choices
come from a table the code also dispatches on.

``cli_text.json`` holds the exit code, stdout and stderr of each case,
recorded with ``COLUMNS=80`` before those options read their tables. The
wording and wrapping of argparse differ between Python versions, so the
text is compared only under the version it was recorded with.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from hyperlin import cli
from hyperlin.randwalk import SELF_TIMES
from hyperlin.spectra import _MATRIX_BUILDERS, WEIGHT_PRESETS

COMMANDS = (
    "units", "contract", "nullspace", "certify", "partitions", "spectra",
    "walk", "hitting", "centrality", "check", "dot",
)

#: case name -> argv; the file is never read, argparse stops first.
CASES = {
    "help": ("--help",),
    **{f"{cmd}-help": (cmd, "--help") for cmd in COMMANDS},
    "bad-command": ("bogus", "f.json"),
    "bad-spectra-weights": ("spectra", "f.json", "--weights", "bogus"),
    "bad-spectra-matrix": ("spectra", "f.json", "--matrix", "bogus"),
    "bad-centrality-weights": ("centrality", "f.json", "--kind", "perron", "--weights", "bogus"),
    "bad-walk-policy": ("walk", "f.json", "--policy", "bogus"),
    "bad-hitting-policy": ("hitting", "f.json", "--target", "1", "--policy", "bogus"),
    "bad-centrality-policy": ("centrality", "f.json", "--kind", "rw_closeness", "--policy", "bogus"),
    "bad-hitting-self-time": ("hitting", "f.json", "--target", "1", "--self-time", "bogus"),
    "bad-centrality-self-time": (
        "centrality", "f.json", "--kind", "rw_closeness", "--self-time", "bogus"
    ),
    "bad-centrality-kind": ("centrality", "f.json", "--kind", "bogus"),
    "bad-dot-which": ("dot", "f.json", "--which", "bogus"),
    "bad-nullspace-axis": ("nullspace", "f.json", "--axis", "bogus"),
}

PINNED = json.loads((Path(__file__).with_name("cli_text.json")).read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert set(PINNED["cases"]) == set(CASES)


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != PINNED["python"],
    reason="argparse's wording and wrapping differ from the recording version",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_text_is_unchanged(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(PINNED["columns"]))
    with pytest.raises(SystemExit) as exc:
        cli.main(list(CASES[name]))
    captured = capsys.readouterr()
    want = PINNED["cases"][name]
    assert (exc.value.code, captured.out, captured.err) == (
        want["exit"], want["stdout"], want["stderr"]
    )


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_subcommand_names_its_handler():
    parsers = _subparsers()
    assert tuple(parsers) == COMMANDS
    for name, parser in parsers.items():
        assert parser.get_default("handler") is getattr(cli, f"cmd_{name}")


@pytest.mark.parametrize(
    "command, flag, table",
    [
        ("nullspace", "--axis", cli._NULLSPACE_AXES),
        ("spectra", "--matrix", [*_MATRIX_BUILDERS, "A_GH", "I"]),
        ("spectra", "--weights", WEIGHT_PRESETS),
        ("centrality", "--weights", WEIGHT_PRESETS),
        ("walk", "--policy", cli._POLICIES),
        ("hitting", "--policy", cli._POLICIES),
        ("centrality", "--policy", cli._POLICIES),
        ("hitting", "--self-time", SELF_TIMES),
        ("centrality", "--self-time", SELF_TIMES),
        ("dot", "--which", cli._DOT),
        ("centrality", "--kind", cli._CENTRALITIES),
    ],
)
def test_each_option_offers_the_table_its_handler_reads(command, flag, table):
    (action,) = [a for a in _subparsers()[command]._actions if flag in a.option_strings]
    assert action.choices == list(table)
