"""Command-line front end.

Boolean queries print true or false and exit 0 only on true, so shell
scripts can chain them.  Report-producing commands exit 0 only when the
claim passes; a budget-truncated search exits 1 like a failure, since
nothing was certified.  Usage and input errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import verify as V
from .bhom import (
    Hom,
    NotBoundedError,
    Tower,
    alpha,
    beta,
    compare_stages,
    kernel_table,
    stage_classes,
)
from .finlat import (
    NotALatticeError,
    check_W,
    check_sd_join,
    check_sd_meet,
    d_rank,
    d_rank_op,
    dm_completion,
    double,
    to_dot,
)
from .ideals import sd_meet_failure_report
from .latfile import LatticeFileError, dumps, load_lattice, load_order
from .reporting import PASS, Report
from .terms import GeneratorSet, ParseError, enumerate_terms, parse_term, print_term
from .whitman import canonical_form, equal, generates_free, leq, ni_predicate


class UsageError(Exception):
    pass


def _term(src: str, G: GeneratorSet):
    try:
        return parse_term(src, G)
    except ParseError as e:
        raise UsageError(f"cannot parse {src!r}: {e}") from e


def _hom(lat_spec: str, map_spec: str) -> Hom:
    L = load_lattice(lat_spec)
    images: dict[str, int] = {}
    for piece in map_spec.split(","):
        if "=" not in piece:
            raise UsageError(f"bad map entry {piece!r}; expected gen=label")
        g, lbl = (w.strip() for w in piece.split("=", 1))
        if g in images:
            raise UsageError(f"generator {g!r} mapped twice")
        try:
            images[g] = L.index_of(lbl)
        except KeyError as e:
            raise UsageError(str(e.args[0])) from e
    return Hom(GeneratorSet(tuple(images)), L, images)


def _bool_out(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_out(rep: Report, fmt: str) -> int:
    if fmt == "records":
        for rec in rep.records():
            print(rec)
    else:
        print(rep.text())
    return 0 if rep.status == PASS else 1


@functools.cache   # parsing leaves the parser as it was, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="freelat",
        description="free-lattice terms, finite quotients, and the checks built on them")
    sub = p.add_subparsers(dest="cmd", required=True)

    def gens_arg(sp):
        sp.add_argument("-g", "--gens", default="x,y,z",
                        help="comma-separated generator names (default x,y,z)")

    def fmt_arg(sp):
        sp.add_argument("--format", choices=("text", "records"), default="text")

    sp = sub.add_parser("leq", help="decide s <= t in the free lattice")
    sp.add_argument("s")
    sp.add_argument("t")
    gens_arg(sp)

    sp = sub.add_parser("eq", help="decide s = t in the free lattice")
    sp.add_argument("s")
    sp.add_argument("t")
    gens_arg(sp)

    sp = sub.add_parser("canon", help="print the canonical form of a term")
    sp.add_argument("term")
    gens_arg(sp)

    sp = sub.add_parser("ni", help="decide whether a tuple fails free independence")
    sp.add_argument("terms", nargs="+")
    gens_arg(sp)

    sp = sub.add_parser("free4", help="decide whether four terms freely generate")
    sp.add_argument("terms", nargs=4)
    gens_arg(sp)

    sp = sub.add_parser("enum", help="list canonical terms up to a size")
    sp.add_argument("--max-size", type=int, default=3)
    gens_arg(sp)

    lat = sub.add_parser("lat", help="operations on finite lattices").add_subparsers(
        dest="latcmd", required=True)
    for name, hlp in [("check", "validate the lattice axioms"),
                      ("dot", "write a Hasse diagram in dot form"),
                      ("dm", "write the completion of an order by cuts"),
                      ("double", "double a convex subset"),
                      ("drank", "print dependency ranks both ways"),
                      ("sd", "check both semidistributive laws"),
                      ("w", "check Whitman's condition (W)")]:
        sp = lat.add_parser(name, help=hlp)
        sp.add_argument("lattice", help="FILE or builtin:NAME")
        if name in ("dot", "dm", "double"):
            sp.add_argument("-o", "--out", default=None)
        if name == "double":
            sp.add_argument("elems", help="comma-separated labels of a convex set")

    hom = sub.add_parser("hom", help="bounds of a map into a finite lattice").add_subparsers(
        dest="homcmd", required=True)
    for name, hlp in [("beta", "least preimage term of an image element"),
                      ("alpha", "greatest preimage term of an image element"),
                      ("classes", "kernel classes as intervals of terms")]:
        sp = hom.add_parser(name, help=hlp)
        sp.add_argument("--lat", required=True, help="FILE or builtin:NAME")
        sp.add_argument("--map", required=True, dest="map_spec",
                        metavar="MAP", help="images, e.g. x=c,y=b,z=a")
        if name != "classes":
            sp.add_argument("element", help="label of an image element")

    tower = sub.add_parser("tower", help="stacked maps compared stage by stage").add_subparsers(
        dest="towercmd", required=True)
    sp = tower.add_parser("classify", help="bracket a term through all stages")
    sp.add_argument("--stage", action="append", required=True,
                    metavar="LAT:MAP", help="repeatable, e.g. builtin:fd3:x=x,y=y,z=z")
    sp.add_argument("term")
    sp = tower.add_parser("compare", help="compare two terms through all stages")
    sp.add_argument("--stage", action="append", required=True, metavar="LAT:MAP")
    sp.add_argument("s")
    sp.add_argument("t")

    idl = sub.add_parser("idealdm", help="ideal-lattice checks").add_subparsers(
        dest="idealcmd", required=True)
    sp = idl.add_parser("sd-fail",
                        help="report the semidistributivity failure among ideals")
    sp.add_argument("--budget", type=int, default=4)
    fmt_arg(sp)

    ver = sub.add_parser("verify", help="end-to-end checks").add_subparsers(
        dest="vercmd", required=True)
    for name, hlp in [("fig1", "the 18-element lattice and its 24-element doubling"),
                      ("fig2", "the 24 kernel classes of the doubled map"),
                      ("fig3", "the 5 kernel classes of the pentagon map"),
                      ("pi3-f3", "coverage of free 4-tuples over 3 generators"),
                      ("pi3-f4", "absence of covering triples over 4 generators"),
                      ("separate", "find a finite quotient separating two terms")]:
        sp = ver.add_parser(name, help=hlp)
        fmt_arg(sp)
        if name in ("pi3-f3", "pi3-f4"):
            sp.add_argument("--max-size", type=int,
                            default=6 if name == "pi3-f3" else 4)
            sp.add_argument("--budget", type=float, default=None,
                            help="seconds before giving up")
        if name == "separate":
            sp.add_argument("s")
            sp.add_argument("t")
            gens_arg(sp)
    return p


def _cmd_lat(args) -> int:
    if args.latcmd == "check":
        try:
            L = load_lattice(args.lattice)
        except (LatticeFileError, NotALatticeError) as e:
            print(f"not a lattice: {e}", file=sys.stderr)
            return 1
        print(f"lattice {L.name}: n={L.n} covers={len(L.covers())}")
        return 0
    if args.latcmd == "dot":
        _write_out(to_dot(load_order(args.lattice)), args.out)
        return 0
    if args.latcmd == "dm":
        C, _ = dm_completion(load_order(args.lattice))
        _write_out(dumps(C), args.out)
        return 0
    if args.latcmd == "double":
        L = load_lattice(args.lattice)
        try:
            elems = [L.index_of(lbl) for lbl in args.elems.split(",")]
        except KeyError as e:
            raise UsageError(str(e.args[0])) from None
        _write_out(dumps(double(L, elems)), args.out)
        return 0
    L = load_lattice(args.lattice)
    if args.latcmd == "drank":
        rho, rk = d_rank(L)
        rho_op, rk_op = d_rank_op(L)
        for i in range(L.n):
            print(f"elem {L.labels[i]} lower={rho[i]} upper={rho_op[i]}")
        print(f"rank lower={'none' if rk is None else rk} "
              f"upper={'none' if rk_op is None else rk_op}")
        return 0
    if args.latcmd == "sd":
        okj, wj = check_sd_join(L)
        okm, wm = check_sd_meet(L)
        print("sd_join " + ("true" if okj else
                            "false witness=" + ",".join(L.labels[i] for i in wj)))
        print("sd_meet " + ("true" if okm else
                            "false witness=" + ",".join(L.labels[i] for i in wm)))
        return 0 if okj and okm else 1
    okw, ww = check_W(L)
    print("w " + ("true" if okw else
                  "false witness=" + ",".join(L.labels[i] for i in ww)))
    return 0 if okw else 1


def _cmd_hom(args) -> int:
    h = _hom(args.lat, args.map_spec)
    if args.homcmd == "classes":
        try:
            table = kernel_table(h)
        except NotBoundedError as e:
            print(str(e), file=sys.stderr)
            return 1
        for a, (lo, hi) in table.items():
            print(f"elem {h.target.labels[a]} lo={print_term(lo)} hi={print_term(hi)}")
        return 0
    try:
        a = h.target.index_of(args.element)
    except KeyError as e:
        raise UsageError(str(e.args[0])) from None
    try:
        t = beta(h, a) if args.homcmd == "beta" else alpha(h, a)
    except (NotBoundedError, ValueError) as e:
        print(str(e), file=sys.stderr)
        return 1
    print(print_term(t))
    return 0


def _cmd_tower(args) -> int:
    homs = []
    for st in args.stage:
        lat_spec, _, map_spec = st.rpartition(":")
        if not lat_spec:
            raise UsageError(f"bad stage {st!r}; expected LAT:MAP")
        homs.append(_hom(lat_spec, map_spec))
    G = homs[0].gens
    classify = args.towercmd == "classify"
    terms = [_term(src, G) for src in ([args.term] if classify else [args.s, args.t])]
    if classify and len(homs) < 2:
        raise UsageError("need at least two stages to judge stability")
    try:
        tw = Tower(homs)
    except NotBoundedError as e:   # a valid stage that has no kernel classes
        print(str(e), file=sys.stderr)
        return 1
    if classify:
        classes = stage_classes(tw, terms[0])
        for j, (lo, hi) in enumerate(classes):
            print(f"stage {j} lo={print_term(lo)} hi={print_term(hi)}")
        # stable: the last two stages agree on both endpoints
        stable = classes[-1] == classes[-2]
        note = "stable within tower" if stable else "still refining at the last stage"
        print(f"stable {'true' if stable else 'false'} note={note}")
        return 0 if stable else 1
    print(compare_stages(tw, *terms))
    return 0


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.vercmd == "fig1":
        rep = V.verify_figure1()
    elif args.vercmd == "fig2":
        rep = V.verify_figure2()
    elif args.vercmd == "fig3":
        rep = V.verify_figure3()
    elif args.vercmd == "pi3-f3":
        rep = V.check_pi3_in_f3(args.max_size, args.budget)
    elif args.vercmd == "pi3-f4":
        rep = V.search_pi3_in_f4(args.max_size, args.budget)
    else:
        G = GeneratorSet.from_spec(args.gens)
        rep = V.separate_terms(_term(args.s, G), _term(args.t, G))
    code = _report_out(rep, args.format)
    print(f"# finished in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        if args.cmd in ("leq", "eq"):
            G = GeneratorSet.from_spec(args.gens)
            s, t = _term(args.s, G), _term(args.t, G)
            return _bool_out(leq(s, t) if args.cmd == "leq" else equal(s, t))
        if args.cmd == "canon":
            G = GeneratorSet.from_spec(args.gens)
            print(print_term(canonical_form(_term(args.term, G))))
            return 0
        if args.cmd == "ni":
            G = GeneratorSet.from_spec(args.gens)
            return _bool_out(ni_predicate([_term(s, G) for s in args.terms]))
        if args.cmd == "free4":
            G = GeneratorSet.from_spec(args.gens)
            return _bool_out(generates_free([_term(s, G) for s in args.terms]))
        if args.cmd == "enum":
            G = GeneratorSet.from_spec(args.gens)
            for t in enumerate_terms(G, args.max_size):
                print(print_term(t))
            return 0
        if args.cmd == "lat":
            return _cmd_lat(args)
        if args.cmd == "hom":
            return _cmd_hom(args)
        if args.cmd == "tower":
            return _cmd_tower(args)
        if args.cmd == "idealdm":
            rep = sd_meet_failure_report(args.budget)
            return _report_out(rep, args.format)
        return _cmd_verify(args)
    except (UsageError, ValueError, OSError) as e:
        print(f"freelat: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("freelat: term too deeply nested", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
