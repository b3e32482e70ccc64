"""Plain-text order files.

A file is a header line, one elem line per element, and cover lines in
terms of labels::

    # sample
    lattice pentagon
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

The header word is either ``lattice`` or ``poset``; a poset skips the
lattice-property check, which dm completions of raw orders need.  Names
and labels carry no whitespace and no ``#``.  Blank lines and ``#``
comments are ignored.
"""

from __future__ import annotations

from .builders import builtin_lattice
from .finlat import FiniteLattice, FinitePoset, from_covers, poset_from_covers


class LatticeFileError(ValueError):
    pass


def parse_latfile(text: str, name: str | None = None) -> FinitePoset | FiniteLattice:
    kind = None
    fname = None
    labels: list[str] = []
    index: dict[str, int] = {}
    covers: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if kind is None:
            if words[0] not in ("lattice", "poset") or len(words) > 2:
                raise LatticeFileError(
                    f"line {lineno}: expected 'lattice NAME' or 'poset NAME'")
            kind = words[0]
            fname = words[1] if len(words) == 2 else None
            continue
        if words[0] == "elem":
            if len(words) != 2:
                raise LatticeFileError(f"line {lineno}: expected 'elem LABEL'")
            if words[1] in index:
                raise LatticeFileError(f"line {lineno}: duplicate elem '{words[1]}'")
            index[words[1]] = len(labels)
            labels.append(words[1])
        elif words[0] == "cover":
            if len(words) != 3:
                raise LatticeFileError(f"line {lineno}: expected 'cover LOW HIGH'")
            for w in words[1:]:
                if w not in index:
                    raise LatticeFileError(f"line {lineno}: unknown elem '{w}'")
            covers.append((index[words[1]], index[words[2]]))
        else:
            raise LatticeFileError(f"line {lineno}: unknown directive '{words[0]}'")
    if kind is None:
        raise LatticeFileError("missing 'lattice' or 'poset' header")
    if not labels:
        raise LatticeFileError("no elements")
    nm = name or fname or kind
    try:
        if kind == "lattice":
            return from_covers(nm, len(labels), covers, labels)
        return poset_from_covers(nm, len(labels), covers, labels)
    except ValueError as e:
        raise LatticeFileError(str(e)) from e


def load_latfile(path: str) -> FinitePoset | FiniteLattice:
    with open(path, encoding="utf-8") as fh:
        return parse_latfile(fh.read())


def _check_word(what: str, word: str) -> str:
    # parse_latfile splits lines at whitespace and cuts them at "#"
    if not word or any(c.isspace() for c in word) or "#" in word:
        raise LatticeFileError(f"{what} {word!r} cannot be written")
    return word


def dumps(P: FinitePoset) -> str:
    kind = "lattice" if isinstance(P, FiniteLattice) else "poset"
    out = [f"{kind} {_check_word('name', P.name)}" if P.name else kind]
    out += [f"elem {_check_word('label', lbl)}" for lbl in P.labels]
    for lo, hi in P.covers():
        out.append(f"cover {P.labels[lo]} {P.labels[hi]}")
    return "\n".join(out) + "\n"


def load_lattice(spec: str) -> FiniteLattice:
    """Resolve a command-line lattice argument: ``builtin:NAME`` or a
    file path.  A file with a ``poset`` header is rejected here."""
    if spec.startswith("builtin:"):
        try:
            return builtin_lattice(spec[len("builtin:"):])
        except KeyError as e:
            raise LatticeFileError(f"unknown builtin lattice {e.args[0]!r}") from e
    P = load_latfile(spec)
    if not isinstance(P, FiniteLattice):
        raise LatticeFileError(f"{spec} declares a poset; a lattice is required")
    return P


def load_order(spec: str) -> FinitePoset | FiniteLattice:
    """Like load_lattice but a poset file is allowed through."""
    if spec.startswith("builtin:"):
        return load_lattice(spec)
    return load_latfile(spec)
