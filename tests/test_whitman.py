import itertools

import pytest

from conftest import perturb, rand_term
from freelat.terms import GeneratorSet, join, meet, parse_term, print_term
from freelat.whitman import (
    canonical_form,
    equal,
    fixed_point_search,
    generates_free,
    leq,
    ni_predicate,
)

G = GeneratorSet(("x", "y", "z"))
X, Y, Z = G.terms()


def t(src):
    return parse_term(src, G)


@pytest.mark.parametrize("s,u,want", [
    ("x", "x", True),
    ("x", "y", False),
    ("x*y", "x", True),
    ("x", "x+y", True),
    ("x+y", "x", False),
    ("x", "(x+y)*(x+z)", True),
    ("x*y+x*z", "x*(y+z)", True),
    ("x*(y+z)", "x*y+x*z", False),
    ("xy+xz+yz", "(x+y)*(x+z)*(y+z)", True),
    ("(x+y)*(x+z)*(y+z)", "xy+xz+yz", False),
    ("x*(z+x*y)", "z+x*y", True),
    ("z*(x+y)", "z", True),
])
def test_leq_cases(s, u, want):
    assert leq(t(s), t(u)) is want


def test_leq_is_a_preorder(rng):
    terms = [canonical_form(rand_term(rng, G.names, rng.randrange(5)))
             for _ in range(40)]
    for a in terms:
        assert leq(a, a)
    for a, b, c in itertools.islice(itertools.permutations(terms, 3), 4000):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_lattice_inequalities_hold(rng):
    for _ in range(200):
        a = rand_term(rng, G.names, rng.randrange(4))
        b = rand_term(rng, G.names, rng.randrange(4))
        assert leq(meet(a, b), a)
        assert leq(a, join(a, b))
        assert leq(meet(a, b), join(a, b))
        c = rand_term(rng, G.names, rng.randrange(3))
        if leq(a, b):
            assert leq(join(a, c), join(b, c))
            assert leq(meet(a, c), meet(b, c))


def test_equal_on_rearrangements():
    assert equal(t("x+y"), t("y+x"))
    assert equal(t("x+(y+z)"), t("(x+y)+z"))
    assert equal(t("x*(x+y)"), t("x"))
    assert not equal(t("x*(y+z)"), t("x*y+x*z"))


@pytest.mark.parametrize("src,want", [
    ("x+x", "x"),
    ("x*(x+y)", "x"),
    ("(x+y)+z", "x+y+z"),
    ("x*(y+z)*x", "x*(y+z)"),
    ("y*z+x*y*z", "y*z"),
    ("((x+y*z)*(y+z)+x*z)*(x+y)", "(y+z)*(x+y*z)"),
    ("x*y+y", "y"),
    ("(x*y)*(z*x)", "x*y*z"),
])
def test_canonical_known_forms(src, want):
    assert print_term(canonical_form(t(src))) == want


def test_canonical_idempotent_and_complete(rng):
    for _ in range(400):
        a = rand_term(rng, G.names, rng.randrange(6))
        c = canonical_form(a)
        assert canonical_form(c) is c
        assert equal(a, c)
        b = rand_term(rng, G.names, rng.randrange(6))
        assert equal(a, b) is (canonical_form(b) is c)


def test_canonical_stable_under_perturbation(rng):
    for _ in range(300):
        a = rand_term(rng, G.names, rng.randrange(5))
        b = perturb(rng, a, G.names)
        assert canonical_form(b) is canonical_form(a)


def test_ni_predicate():
    assert ni_predicate([X, t("x+y")])              # x below the join
    assert ni_predicate([t("x*y"), X, Y])           # meet above a member
    assert not ni_predicate([X, Y, Z])
    assert not ni_predicate([X, Y])
    with pytest.raises(ValueError):
        ni_predicate([X])


def test_generates_free():
    assert not generates_free([X, Y, Z, t("x+y")])
    with pytest.raises(ValueError):
        generates_free([X, Y, Z])


def test_intervals():
    def inside(s, lo, hi):
        return leq(lo, s) and leq(s, hi)

    iv = (t("x+y*z"), join(X, t("(x+y)(x+z)(y+z)")))
    assert leq(*iv)
    assert inside(t("x+y*z"), *iv)
    assert not inside(X, *iv)          # x is strictly below the low end
    assert inside(t("x+y*z*(x+z)"), *iv)
    assert not leq(t("x+y"), X)        # an empty interval


def test_fixed_point_search():
    p = parse_term("z*(x+y*v)", GeneratorSet(("x", "y", "z", "v")))
    assert fixed_point_search(p, "v", G, 0) is None
    w = fixed_point_search(p, "v", G, 3)
    assert w is not None
    amap = {"x": X, "y": Y, "z": Z, "v": w}
    from freelat.terms import substitute
    assert equal(substitute(p, amap), w)
    assert print_term(w) == "x*z"
