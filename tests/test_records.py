"""The batch commands of the benchmark, run in process through cli.run,
must print exactly what perfbench/expected/ holds and exit as expected;
the lattice and report commands must print exactly what tests/data/
holds.

This makes records identity part of the plain test run, so a refactor
that changes a report shows up here first.  The files are only read.
"""

from pathlib import Path

import pytest

from freelat import builders
from freelat.cli import run

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
DATA = Path(__file__).resolve().parent / "data"

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


def test_batch_output_does_not_depend_on_command_order(capsys):
    # fd3 and A are shared by the commands of one process, so run the
    # tower first, on newly built ones, then the figures in reverse and
    # the coverage search that evaluates terms under the doubled map
    builders.build_fd3.cache_clear()
    builders._default_a.cache_clear()
    for argv, code, expected in [*COMMANDS[3::-1], COMMANDS[4]]:
        assert run(argv) == code, expected
        out = capsys.readouterr().out.encode()
        assert out == (EXPECTED / expected).read_bytes(), expected


FD3_TO_A = ["--stage", "builtin:fd3:x=x,y=y,z=z", "--stage", "builtin:A:x=x,y=y,z=z"]

LATTICE_COMMANDS = [
    (["lat", "check", "builtin:fd3"], 0, "lat-check-fd3.out"),
    (["lat", "drank", "builtin:A"], 0, "lat-drank-A.out"),
    (["lat", "drank", "builtin:n5"], 0, "lat-drank-n5.out"),
    (["lat", "sd", "builtin:m3"], 1, "lat-sd-m3.out"),
    (["lat", "double", "builtin:n5", "b"], 0, "lat-double-n5-b.out"),
    (["lat", "dm", str(DATA / "a24.lat")], 0, "lat-dm-a24.out"),
    (["hom", "classes", "--lat", "builtin:n5", "--map", "x=c,y=b,z=a"], 0,
     "hom-classes-n5.out"),
    (["tower", "compare", *FD3_TO_A, "x*(y+z)", "x*y+x*z"], 0, "tower-compare.out"),
]


@pytest.mark.parametrize("argv,code,expected", LATTICE_COMMANDS,
                         ids=[c[2].removesuffix(".out") for c in LATTICE_COMMANDS])
def test_lattice_output_matches_expected(argv, code, expected, capsys):
    assert run(argv) == code
    assert capsys.readouterr().out.encode() == (DATA / expected).read_bytes()


# the reports whose code paths have more than one way to an answer
REPORT_COMMANDS = [
    (["verify", "pi3-f4", "--max-size", "4", "--format", "records"], 0,
     "pi3-f4-size4.out"),
    (["verify", "separate", "x", "y", "--format", "records"], 0, "separate-x-y.out"),
    (["verify", "separate", "a", "a+b", "-g", "a,b", "--format", "records"], 0,
     "separate-a-ab.out"),
    # nested terms over x, y and z, told apart by the cuts of their 13
    # subterm forms
    (["verify", "separate", "x*(y+z*(y+x*(y+z)))", "x*(y+z*(x+y))",
      "--format", "records"], 0, "separate-nested-x.out"),
    (["idealdm", "sd-fail", "--budget", "8", "--format", "records"], 0,
     "idealdm-sd-fail-8.out"),
    (["verify", "pi3-f3", "--max-size", "6", "--format", "records"], 0,
     "pi3-f3-size6.out"),
    (["enum", "--max-size", "6"], 0, "enum-size6.out"),
]


@pytest.mark.parametrize("argv,code,expected", REPORT_COMMANDS,
                         ids=[c[2].removesuffix(".out") for c in REPORT_COMMANDS])
def test_report_output_matches_expected(argv, code, expected, capsys):
    assert run(argv) == code
    assert capsys.readouterr().out.encode() == (DATA / expected).read_bytes()
