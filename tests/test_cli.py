import os
import subprocess
import sys
from pathlib import Path

import pytest

from freelat.builders import chain
from freelat.cli import run
from freelat.finlat import dm_completion, join_irreducibles, poset_from_covers
from freelat.latfile import dumps

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PENTAGON = """lattice pent
elem 0
elem a
elem b
elem c
elem 1
cover 0 a
cover a 1
cover 0 b
cover b c
cover c 1
"""


def test_leq_true_false(capsys):
    assert run(["leq", "x*y", "x+y"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["leq", "x+y", "x*y"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eq_with_custom_gens(capsys):
    assert run(["eq", "-g", "a,b", "a*(a+b)", "a"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_canon_prints_canonical_form(capsys):
    assert run(["canon", "x*y+x"]) == 0
    assert capsys.readouterr().out.strip() == "x"
    assert run(["canon", "(x+y*z)*(y+z)"]) == 0
    assert capsys.readouterr().out.strip() == "(y+z)*(x+y*z)"


def test_ni_and_free4(capsys):
    assert run(["ni", "x", "x+y"]) == 0
    capsys.readouterr()
    assert run(["ni", "x"]) == 2
    assert capsys.readouterr().err == "freelat: need at least two terms\n"
    assert run(["free4", "-g", "x,y,z,w", "x", "y", "z", "w"]) == 0
    assert capsys.readouterr().out.strip().endswith("true")
    assert run(["free4", "x", "y", "z", "x+y"]) == 1


def test_enum_two_generators(capsys):
    assert run(["enum", "-g", "x,y", "--max-size", "1"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["x", "y", "x*y", "x+y"]
    assert run(["enum", "--max-size", "0"]) == 0
    assert capsys.readouterr().out.split() == ["x", "y", "z"]


def test_parse_error_exits_2(capsys):
    assert run(["leq", "x+", "y"]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert run(["canon", "-g", "x,x", "x"]) == 2


def test_deeply_nested_term_exits_2(capsys):
    t = "x"
    for _ in range(1500):
        t = f"({t}+y)*z"
    assert run(["canon", t]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "freelat: term too deeply nested"
    assert captured.out == ""


def test_lat_check(tmp_path, capsys):
    assert run(["lat", "check", "builtin:n5"]) == 0
    assert "n=5 covers=5" in capsys.readouterr().out
    p = tmp_path / "pent.lat"
    p.write_text(PENTAGON)
    assert run(["lat", "check", str(p)]) == 0
    capsys.readouterr()
    q = tmp_path / "v.lat"
    q.write_text("poset v\nelem 0\nelem a\nelem b\ncover 0 a\ncover 0 b\n")
    assert run(["lat", "check", str(q)]) == 1
    assert "not a lattice" in capsys.readouterr().err
    assert run(["lat", "check", str(tmp_path / "missing.lat")]) == 2


def test_lat_dot_and_dm(tmp_path, capsys):
    assert run(["lat", "dot", "builtin:n5"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    q = tmp_path / "anti.lat"
    q.write_text("poset p2\nelem 0\nelem 1\n")
    out_file = tmp_path / "dm.lat"
    assert run(["lat", "dm", str(q), "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("lattice")
    assert text.count("elem ") == 4


def test_lat_dm_refuses_completions_over_4096(tmp_path, capsys):
    # the crown a_i < b_j (i != j) on 13 + 13 points completes to the
    # Boolean lattice 2^13, 8,192 elements
    k = 13
    crown = poset_from_covers("crown26", 2 * k, [(i, k + j) for i in range(k)
                                                 for j in range(k) if i != j])
    path = tmp_path / "crown26.lat"
    path.write_text(dumps(crown))
    assert run(["lat", "dm", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "freelat: crown26: completion exceeds 4096 elements\n"


def test_lat_double(capsys):
    assert run(["lat", "double", "builtin:n5", "b"]) == 0
    out = capsys.readouterr().out
    assert "elem b.0" in out and "elem b.1" in out
    assert out.count("elem ") == 6
    assert run(["lat", "double", "builtin:n5", "zzz"]) == 2


def test_lat_drank(capsys):
    assert run(["lat", "drank", "builtin:n5"]) == 0
    assert "rank lower=1 upper=1" in capsys.readouterr().out
    assert run(["lat", "drank", "builtin:m3"]) == 0
    assert "rank lower=none upper=none" in capsys.readouterr().out


def _drank_lines(path, capsys):
    assert run(["lat", "drank", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


def test_lat_drank_past_twenty_join_irreducibles(tmp_path, capsys):
    # A chain is distributive: a <= q+x with q < a forces x >= a, hence
    # a <= q_*+x too, so every D(a) is empty and every rank is 0.
    C = chain(30)
    assert len(join_irreducibles(C)) == 29
    path = tmp_path / "chain30.lat"
    path.write_text(dumps(C))
    lines = _drank_lines(path, capsys)
    assert lines == [f"elem {lbl} lower=0 upper=0" for lbl in C.labels] + \
        ["rank lower=0 upper=0"]
    # The completion of a 21-antichain is M_21.  For atoms p != q, p <= q+r
    # but not p <= 0+r for any third atom r, so D(p) holds every other
    # atom: D is cyclic and no atom, nor the top, is ranked.  Only the
    # bottom has no cover.  M_21 is self-dual, with bottom and top swapped.
    M, _ = dm_completion(poset_from_covers("anti21", 21, []))
    assert len(join_irreducibles(M)) == 21
    path = tmp_path / "m21.lat"
    path.write_text(dumps(M))
    lines = _drank_lines(path, capsys)
    want = {M.bottom: "lower=0 upper=None", M.top: "lower=None upper=0"}
    assert lines == [f"elem {M.labels[i]} {want.get(i, 'lower=None upper=None')}"
                     for i in range(M.n)] + ["rank lower=none upper=none"]


def test_lat_sd_and_w(capsys):
    assert run(["lat", "sd", "builtin:n5"]) == 0
    capsys.readouterr()
    assert run(["lat", "sd", "builtin:m3"]) == 1
    out = capsys.readouterr().out
    assert "sd_join false witness=" in out
    assert run(["lat", "w", "builtin:n5"]) == 0
    capsys.readouterr()
    assert run(["lat", "w", "builtin:fd3"]) == 1
    assert "w false witness=" in capsys.readouterr().out


def test_hom_beta_alpha(capsys):
    base = ["hom", "beta", "--lat", "builtin:n5", "--map", "x=c,y=b,z=a"]
    assert run(base + ["c"]) == 0
    assert capsys.readouterr().out.strip() == "x*(z+x*y)"
    assert run(["hom", "alpha", "--lat", "builtin:n5",
                "--map", "x=c,y=b,z=a", "c"]) == 0
    assert capsys.readouterr().out.strip() == "x+y"


def test_hom_beta_unbounded_exits_1(capsys):
    assert run(["hom", "beta", "--lat", "builtin:m3",
                "--map", "x=a,y=b,z=c", "a"]) == 1
    assert "lower" in capsys.readouterr().err


def test_hom_classes_unbounded_exits_like_beta(capsys):
    m3 = ["--lat", "builtin:m3", "--map", "x=a,y=b,z=c"]
    assert run(["hom", "beta"] + m3 + ["a"]) == 1
    beta_err = capsys.readouterr().err
    assert run(["hom", "classes"] + m3) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == beta_err == "hom onto m3 is not lower bounded\n"


def test_hom_beta_outside_image_exits_1(capsys):
    assert run(["hom", "beta", "--lat", "builtin:n5",
                "--map", "x=a,y=a,z=a", "0"]) == 1
    assert "image sublattice" in capsys.readouterr().err


def test_hom_classes(capsys):
    assert run(["hom", "classes", "--lat", "builtin:n5",
                "--map", "x=c,y=b,z=a"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(ln.startswith("elem ") and " lo=" in ln and " hi=" in ln
               for ln in lines)


def test_hom_bad_map_spec(capsys):
    assert run(["hom", "beta", "--lat", "builtin:n5", "--map", "x=c,y", "c"]) == 2
    assert "bad map entry" in capsys.readouterr().err
    assert run(["hom", "beta", "--lat", "builtin:n5",
                "--map", "x=nope,y=b,z=a", "c"]) == 2


def test_hom_generator_mapped_twice(capsys):
    assert run(["hom", "beta", "--lat", "builtin:pentagon",
                "--map", "x=c,x=b,y=b,z=a", "b"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "freelat: generator 'x' mapped twice\n"
    assert run(["tower", "classify", "--stage", "builtin:fd3:x=x,y=y,z=z",
                "--stage", "builtin:A:x=x,y=y,y=z", "x"]) == 2
    assert "generator 'y' mapped twice" in capsys.readouterr().err


def test_tower_classify_and_compare(capsys):
    stages = ["--stage", "builtin:fd3:x=x,y=y,z=z",
              "--stage", "builtin:A:x=x,y=y,z=z"]
    assert run(["tower", "classify"] + stages + ["x"]) == 0
    out = capsys.readouterr().out
    assert "stable true" in out
    assert run(["tower", "classify"] + stages + ["x*y+x*z"]) == 1
    assert "stable false" in capsys.readouterr().out
    assert run(["tower", "compare"] + stages + ["x*(y+z)", "x*y+x*z"]) == 0
    assert capsys.readouterr().out.strip() == "geq"


def test_tower_bad_stage(capsys):
    assert run(["tower", "classify", "--stage", "nostage", "x"]) == 2
    assert "bad stage" in capsys.readouterr().err
    assert run(["tower", "classify", "--stage", "builtin:fd3:x=x,y=y,z=z", "x"]) == 2
    assert "need at least two stages" in capsys.readouterr().err


def test_idealdm_sd_fail(capsys):
    assert run(["idealdm", "sd-fail", "--budget", "2",
                "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("claim=ideal-sd-meet-failure status=pass")
    assert run(["idealdm", "sd-fail", "--budget", "0"]) == 2


def test_verify_fig_reports(capsys):
    assert run(["verify", "fig1", "--format", "records"]) == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("claim=fd3-and-its-doubling status=pass")
    assert "# finished in" in cap.err
    assert run(["verify", "fig3"]) == 0
    assert "kernel-classes-of-pentagon-map" in capsys.readouterr().out


def test_verify_pi3_small(capsys):
    assert run(["verify", "pi3-f3", "--max-size", "4"]) == 0
    capsys.readouterr()
    assert run(["verify", "pi3-f4", "--max-size", "2"]) == 0
    capsys.readouterr()
    assert run(["verify", "pi3-f4", "--max-size", "4", "--budget", "0.0"]) == 1
    assert "inconclusive" in capsys.readouterr().out


def test_verify_pi3_f3_budget_exits_1(capsys):
    assert run(["verify", "pi3-f3", "--max-size", "5", "--budget", "0",
                "--format", "records"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("claim=pi3-coverage-in-f3 status=inconclusive-budget")
    assert "data stopped=during_tuple_search_at_term_0_of_121" in out


@pytest.mark.parametrize("budget, code", [
    ("0", 1), ("inf", 0), ("nan", 2), ("-1", 2)])
def test_verify_pi3_f3_budget_values(budget, code, capsys):
    # NaN would never run out: every elapsed > nan comparison is false
    assert run(["verify", "pi3-f3", "--max-size", "4", "--budget", budget]) == code
    if code == 2:
        assert "budget must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("budget, code", [
    ("0", 1), ("inf", 0), ("nan", 2), ("-1", 2)])
def test_verify_pi3_f4_budget_values(budget, code, capsys):
    assert run(["verify", "pi3-f4", "--max-size", "2", "--budget", budget]) == code
    if code == 2:
        assert "budget must be >= 0" in capsys.readouterr().err


def test_verify_separate(capsys):
    assert run(["verify", "separate", "x", "y", "--format", "records"]) == 0
    assert "lattice=pentagon" in capsys.readouterr().out
    assert run(["verify", "separate", "x*(y+z)", "x*(z+y)"]) == 2
    assert "nothing separates" in capsys.readouterr().err


def test_global_jobs_and_seed_flags_are_usage_errors(capsys):
    assert run(["--jobs", "4", "leq", "x", "x"]) == 2
    assert run(["--seed", "7", "leq", "x", "x"]) == 2


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "freelat" in capsys.readouterr().out


def test_no_command_exits_2():
    assert run([]) == 2
    assert run(["bogus"]) == 2


def _plain_project_scripts(text):
    """The `[project.scripts]` table of a pyproject.toml, read line by line
    so that it works on Python 3.10, which has no `tomllib`:
    `name = "module:attr"` entries."""
    scripts, section = {}, None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line and not line.startswith("#"):
            name, value = line.split("=", 1)
            scripts[name.strip().strip('"')] = value.strip().strip('"')
    return scripts


def test_plain_scripts_reader_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text(encoding="utf-8")
    assert _plain_project_scripts(text) == tomllib.loads(text)["project"]["scripts"]


def _run_freelat_script(args, cwd):
    """Run this checkout's `freelat` console script in a child interpreter
    the way pip's generated wrapper does: import the declared callable,
    then `sys.exit(callable())`. The entry point is read from this
    checkout's pyproject.toml and the child's import path is this
    checkout's `src`, so neither the working directory nor an install
    elsewhere decides which code runs."""
    scripts = _plain_project_scripts(PYPROJECT.read_text(encoding="utf-8"))
    assert "freelat" in scripts, "'freelat' is not in [project.scripts]"
    module, _, func = scripts["freelat"].partition(":")
    code = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_installed_script_smoke(tmp_path):
    proc = _run_freelat_script(["leq", "x", "x+y"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "true"
    proc = _run_freelat_script(["leq", "x+y", "x*y"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.strip() == "false"
