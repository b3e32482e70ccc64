"""The batch commands of the benchmark, run in process through cli.run,
must print exactly what perfbench/expected/ holds and exit as expected.

This makes records identity part of the plain test run, so a refactor
that changes a report shows up here first.  The files are only read.
"""

from pathlib import Path

import pytest

from freelat.cli import run

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"

COMMANDS = [
    (["verify", "fig1", "--format", "records"], 0, "fig1.out"),
    (["verify", "fig2", "--format", "records"], 0, "fig2.out"),
    (["verify", "fig3", "--format", "records"], 0, "fig3.out"),
    # the tower has not stabilised at its last stage, so this exits 1
    (["tower", "classify", "--stage", "builtin:fd3:x=x,y=y,z=z",
      "--stage", "builtin:A:x=x,y=y,z=z", "x*(y+z)"], 1, "tower-classify.out"),
    (["verify", "pi3-f3", "--max-size", "5", "--format", "records"], 0,
     "f3-coverage.out"),
    (["verify", "pi3-f4", "--max-size", "5", "--format", "records"], 0,
     "f4-triples.out"),
]


@pytest.mark.parametrize("argv,code,expected", COMMANDS,
                         ids=[c[2].removesuffix(".out") for c in COMMANDS])
def test_batch_output_matches_expected(argv, code, expected, capsys):
    assert run(argv) == code
    assert capsys.readouterr().out.encode() == (EXPECTED / expected).read_bytes()
