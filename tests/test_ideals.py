import pytest

from freelat.ideals import (
    ChainIdeal,
    ideal_member,
    join_member,
    sd_meet_failure_report,
    yz_chains,
)
from freelat.reporting import PASS
from freelat.terms import GeneratorSet, gen, parse_term, print_term
from freelat.whitman import canonical_form, equal, leq

G = GeneratorSet(("x", "y", "z"))


def t(src):
    return parse_term(src, G)


def test_chain_validation():
    with pytest.raises(ValueError, match="decreases"):
        ChainIdeal("bad", [t("x+y"), t("x")], budget=1)
    with pytest.raises(ValueError, match="budget"):
        ChainIdeal("bad", [t("x")], budget=-1)
    with pytest.raises(ValueError, match="no chain terms"):
        ChainIdeal("bad", [], budget=2)


def test_chain_indexing_saturates():
    I = ChainIdeal("I", [t("x"), t("x+y")], budget=5)
    assert I.term_at(0) is t("x")
    assert I.term_at(99) is t("x+y")
    assert I.depth == 1


def test_members_and_witnesses():
    Y = ChainIdeal("Y", [yz_chains(k)[0] for k in range(5)], budget=4)
    ans = ideal_member(Y, t("y"))
    assert ans and ans.witness == (0,)
    ans = ideal_member(Y, t("y+x*z"))
    assert ans and ans.witness == (1,)
    ans = ideal_member(Y, t("x"))
    assert not ans and ans.witness is None
    assert ans.verdict == "no-up-to-budget"


def test_join_members():
    X = ChainIdeal("x", [t("x")], budget=2)
    Y = ChainIdeal("y", [t("y")], budget=2)
    ans = join_member(X, Y, t("x+y"))
    assert ans and ans.witness == (0, 0)
    assert not join_member(X, Y, t("z"))
    # the shallow-first witness: y[1] needs depth 1 on the Y side
    ys, zs = zip(*map(yz_chains, range(4)))
    Yc = ChainIdeal("Y", ys, budget=3)
    Zc = ChainIdeal("Z", zs, budget=3)
    ans = join_member(Yc, Zc, t("x*(y+z)"))
    assert ans and ans.witness == (0, 0)


def test_yz_chains_shape():
    y0, z0 = yz_chains(0)
    assert y0 is gen("y") and z0 is gen("z")
    prev_y, prev_z = y0, z0
    for k in range(1, 6):
        yk, zk = yz_chains(k)
        assert yk.size == 2 * k and zk.size == 2 * k
        assert canonical_form(yk) is yk
        assert canonical_form(zk) is zk
        assert leq(prev_y, yk) and leq(prev_z, zk)
        assert not equal(prev_y, yk)
        prev_y, prev_z = yk, zk
    assert print_term(yz_chains(2)[0]) == "y+x*(z+x*y)"
    with pytest.raises(ValueError):
        yz_chains(-1)


def test_sd_meet_failure_report():
    rep = sd_meet_failure_report(budget=3)
    assert rep.status == PASS
    assert rep.data["witness"] is t("x*(y+z)")
    assert rep.data["meet_xy_equals_meet_xz"] is True
    assert rep.data["witness_in_meet_x_yz"] is True
    assert rep.data["witness_outside_meets_up_to_budget"] is True
    checks = {ln["check"] for ln in rep.lines}
    assert {"meets-interleave", "witness-in-X", "witness-in-Y-join-Z",
            "witness-in-Y", "witness-in-Z"} <= checks
    with pytest.raises(ValueError):
        sd_meet_failure_report(budget=0)


def test_sd_meet_failure_report_records_are_stable():
    r1 = sd_meet_failure_report(budget=2).records()
    r2 = sd_meet_failure_report(budget=2).records()
    assert r1 == r2
