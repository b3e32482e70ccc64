import itertools
import random

import pytest

from freelat import terms
from freelat.terms import gen, join, meet

SEED = 12345


@pytest.fixture
def rng():
    return random.Random(SEED)


def intern_sizes():
    """The size of each per-kind intern table, for interned_since."""
    return {kind: len(table) for kind, table in terms._INTERN.items()}


def interned_since(sizes):
    """The terms interned after intern_sizes() returned sizes."""
    return [t for kind, table in terms._INTERN.items()
            for t in itertools.islice(table.values(), sizes[kind], None)]


def rand_term(rng, names, budget):
    """Random raw term with exactly `budget` operation nodes."""
    if budget == 0:
        return gen(rng.choice(names))
    lb = rng.randrange(budget)
    left = rand_term(rng, names, lb)
    right = rand_term(rng, names, budget - 1 - lb)
    ctor = join if rng.random() < 0.5 else meet
    return ctor(left, right)


def perturb(rng, t, names):
    """Equality-preserving rewrite: shuffles, duplicates, re-associates,
    and absorption-pads at random."""
    if t.kind == "gen":
        if rng.random() < 0.15:
            other = gen(rng.choice(names))
            return meet(t, join(t, other))
        return t
    ops = [perturb(rng, o, names) for o in t.ops]
    rng.shuffle(ops)
    ctor = join if t.kind == "join" else meet
    if rng.random() < 0.25:
        ops.append(ops[0])
    if len(ops) >= 3 and rng.random() < 0.4:
        k = rng.randrange(1, len(ops) - 1)
        out = ctor(ctor(*ops[: k + 1]), *ops[k + 1:])
    else:
        out = ctor(*ops)
    if rng.random() < 0.1:
        pad = join if t.kind == "meet" else meet
        return pad(out, (meet if pad is join else join)(out, gen(rng.choice(names))))
    return out
