import pytest

from freelat.builders import build_a, build_fd3, builtin_lattice, extended_catalog
from freelat.finlat import (
    FiniteLattice,
    FinitePoset,
    find_isomorphism,
    from_covers,
    poset_from_covers,
)
from freelat.latfile import (
    LatticeFileError,
    dumps,
    load_latfile,
    load_lattice,
    load_order,
    parse_latfile,
)


def test_round_trip_all_builtins():
    for L in extended_catalog() + [build_fd3(), build_a()]:
        M = parse_latfile(dumps(L))
        assert isinstance(M, FiniteLattice)
        assert M.name == L.name
        assert M.labels == L.labels
        assert M.up == L.up


def test_dump_and_load_file(tmp_path):
    L = builtin_lattice("n5")
    p = tmp_path / "n5.lat"
    p.write_text(dumps(L), encoding="utf-8")
    M = load_latfile(str(p))
    assert find_isomorphism(L, M) is not None


def test_parse_pentagon_by_hand():
    text = """
    # the pentagon
    lattice n5
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
    L = parse_latfile(text)
    assert isinstance(L, FiniteLattice)
    assert L.n == 5
    assert L.joins[L.index_of("a")][L.index_of("b")] == L.index_of("1")


def test_poset_header_skips_lattice_check():
    # two maximal elements, no top: fine as a poset, not as a lattice
    text = "poset v\nelem 0\nelem a\nelem b\ncover 0 a\ncover 0 b\n"
    P = parse_latfile(text)
    assert isinstance(P, FinitePoset)
    assert not isinstance(P, FiniteLattice)
    bad = text.replace("poset v", "lattice v")
    with pytest.raises(LatticeFileError, match="'a' and 'b'"):
        parse_latfile(bad)


def test_name_override_argument():
    L = parse_latfile("lattice foo\nelem 0\n", name="bar")
    assert L.name == "bar"
    M = parse_latfile("lattice\nelem 0\n")
    assert M.name == "lattice"


@pytest.mark.parametrize("text,lineno,frag", [
    ("elem 0\n", 1, "expected 'lattice NAME'"),
    ("lattice a b c\n", 1, "expected 'lattice NAME'"),
    ("lattice x\nelem\n", 2, "expected 'elem LABEL'"),
    ("lattice x\nelem 0\nelem 0\n", 3, "duplicate elem"),
    ("lattice x\nelem 0\ncover 0\n", 3, "expected 'cover LOW HIGH'"),
    ("lattice x\nelem 0\ncover 0 q\n", 3, "unknown elem 'q'"),
    ("lattice x\nelem 0\n\nbogus 1 2\n", 4, "unknown directive 'bogus'"),
])
def test_parse_errors_carry_line_numbers(text, lineno, frag):
    with pytest.raises(LatticeFileError, match=frag) as ei:
        parse_latfile(text)
    assert f"line {lineno}:" in str(ei.value)


def test_headerless_and_empty_inputs():
    with pytest.raises(LatticeFileError, match="missing 'lattice' or 'poset'"):
        parse_latfile("# only a comment\n")
    with pytest.raises(LatticeFileError, match="no elements"):
        parse_latfile("lattice x\n")


def test_cycle_reported_as_file_error():
    text = "lattice x\nelem a\nelem b\ncover a b\ncover b a\n"
    with pytest.raises(LatticeFileError):
        parse_latfile(text)


def test_load_lattice_builtin_and_errors(tmp_path):
    L = load_lattice("builtin:m3")
    assert L.n == 5
    with pytest.raises(LatticeFileError, match="unknown builtin"):
        load_lattice("builtin:nope")
    p = tmp_path / "v.lat"
    p.write_text("poset v\nelem 0\nelem a\nelem b\ncover 0 a\ncover 0 b\n")
    with pytest.raises(LatticeFileError, match="a lattice is required"):
        load_lattice(str(p))
    # load_order accepts the same file
    P = load_order(str(p))
    assert P.n == 3


def test_dumps_rejects_unwritable_labels():
    P = poset_with_labels(["a b"])
    with pytest.raises(LatticeFileError, match="cannot be written"):
        dumps(P)
    # the parser cuts every line at "#", so no label may hold one
    for lbl in ("#", "a#b", "a#"):
        with pytest.raises(LatticeFileError, match="cannot be written"):
            dumps(poset_with_labels([lbl]))


def test_dumps_rejects_unwritable_names():
    # the header is split at whitespace and cut at "#" like any other line
    for name in ("my lat", "a\tb", "#", "a#b"):
        with pytest.raises(LatticeFileError, match="name .* cannot be written"):
            dumps(from_covers(name, 2, [(0, 1)]))
        with pytest.raises(LatticeFileError, match="name .* cannot be written"):
            dumps(poset_from_covers(name, 1, []))


def test_round_trip_punctuated_labels():
    labels = ["{}", "{a,b}", "x+yz", "b.0", "x*(y+z)", "a-b"]
    P = poset_with_labels(labels)
    Q = parse_latfile(dumps(P))
    assert Q.labels == labels and Q.up == P.up


def poset_with_labels(labels):
    return poset_from_covers("p", len(labels), [], labels)
