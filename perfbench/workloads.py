"""Seeded workload generators and answer oracles for the solve benchmark.

Every generator takes a ``random.Random`` built from the benchmark's
``--seed`` and returns plain program text plus the answer expected for it.
The expected answers are built by construction from the generator's own
choices, never by running an engine, so a wrong engine answer is caught.

Models are compared in a canonical form that does not go through the
package's formatting or ordering code: an atom is ``(pred, args)`` with
integers as themselves, constants as ``("c", name, args)`` and finite sets
as ``("s", frozenset of tuples)``.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

# Identifiers handed out by the seed.  None is a reserved word of the
# language (not, in, exists, forall, count, sum, max, min).
_NAMES = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "oscar", "papa", "quebec",
    "romeo", "sierra", "tango", "uniform", "victor", "whiskey", "xray",
    "yankee", "zulu",
)

CHOICE_SIZE = 5  # 2^10 there-candidates, 3^5 there-models, 2^5 stable models
CHAIN_LENGTH = 14  # 2^14 there-candidates, one model
SETS_INTS = (1, 4)  # p1 at ints 1..4: 2536 domain values, 32 candidates
DIFFERENTIAL_PROGRAMS = 1000
# The differential shapes are fixed; the seed renames and reorders them.
# Fresh shapes per seed would make the work of a run swing by about a
# quarter between seeds (2^atoms tails), far outside any usable bound.
DIFFERENTIAL_SHAPE_SEED = 20180502


@dataclass(frozen=True)
class Job:
    """One program solved by one or both engines.

    ``expected`` is the set of canonical models; ``None`` means the only
    check is that both engines return the same models.
    """

    text: str
    bounds: dict
    eq: bool
    gz: bool
    expected: frozenset | None


def canonical_value(value):
    """Engine-independent form of a ground value, read by duck typing."""
    if isinstance(value, int):
        return value
    if hasattr(value, "tuples"):
        return ("s", frozenset(tuple(canonical_value(v) for v in t) for t in value.tuples))
    return ("c", value.name, tuple(canonical_value(a) for a in value.args))


def canonical_models(atom_sets):
    """Canonical form of an iterable of models (each an iterable of atoms)."""
    return frozenset(
        frozenset((pred, tuple(canonical_value(a) for a in args)) for pred, args in atoms)
        for atoms in atom_sets
    )


# ---------------------------------------------------------------------------
# choice: even loops through negation, one per element


def choice_job(rng: random.Random, n: int = CHOICE_SIZE) -> Job:
    """``a(X) :- d(X), not b(X). b(X) :- d(X), not a(X).`` over n integers.

    Exactly 2^n stable models, each picking one of ``a(i)``/``b(i)`` per
    element next to the ``d`` facts.  Only the integers vary: predicate
    names and statement order set the order in which the minimality checks
    try smaller models, which moved their cost by up to 1.7x.
    """
    start = rng.randint(0, 20)
    elems = range(start, start + n)
    statements = [f"d({i})." for i in elems]
    statements.append("a(X) :- d(X), not b(X).")
    statements.append("b(X) :- d(X), not a(X).")
    facts = frozenset(("d", (i,)) for i in elems)
    expected = frozenset(
        facts | {(("a" if chosen else "b"), (i,)) for i, chosen in zip(elems, flags)}
        for flags in itertools.product((True, False), repeat=n)
    )
    bounds = dict(int_min=start, int_max=start + n - 1, max_herbrand_depth=0)
    return Job("\n".join(statements), bounds, True, True, expected)


# ---------------------------------------------------------------------------
# chain: a successor chain with one model and 2^length candidates


def chain_job(rng: random.Random, length: int = CHAIN_LENGTH) -> Job:
    """``p(k). p(Y) :- p(X), Y = X + 1.`` over ints k..k+length.

    The predicate name and ``k`` vary.  Statement order stays fixed: it
    moved the number of satisfaction checks by half.
    """
    pred = rng.choice(_NAMES)
    start = rng.randint(0, 20)
    text = f"{pred}({start}).\n{pred}(Y) :- {pred}(X), Y = X + 1."
    model = frozenset((pred, (i,)) for i in range(start, start + length + 1))
    bounds = dict(int_min=start, int_max=start + length, max_herbrand_depth=0)
    return Job(text, bounds, True, True, frozenset({model}))


# ---------------------------------------------------------------------------
# sets: p1's shape, a set value feeding back into its own definition


def sets_jobs(rng: random.Random):
    """A p1 variant (equilibrium only) and aggregate twins (both engines).

    p1 is ``r(1). r(2). q(1). q(2) :- Z = {X : r(X)}, p(Z). p(Y) :- Y =
    {X : q(X)}.``  Variants keep that shape: two ``r`` facts over distinct
    constants ``u``, ``v``, one ``q`` fact on one of them and the derived
    ``q`` head on the other, so the derived head is supported only through
    the set it feeds.  That vicious circle leaves exactly one model,
    ``{r(u), r(v), q(x), p({x})}`` where ``x`` is the ``q`` fact.

    A twin says the same through ``count``, which keeps it inside the GZ
    fragment and free of a set layer: its one model is ``{r(u), r(v),
    q(x), pc(1)}``.  The item carries the twins of all twelve ordered pairs
    of constants, so that the two milliseconds each takes add up to
    something measurable; they run first, on the heap the pass starts
    with.

    Only the constants and the order of the ``r`` facts vary.  The rest
    of the statement order stays p1's, and ``x`` is the smaller constant
    as in p1: shuffled statements moved the number of satisfaction checks
    by a quarter, and the larger ``x`` added 7% of here-world checks.
    """
    ints = range(SETS_INTS[0], SETS_INTS[1] + 1)
    u, v = rng.sample(ints, 2)
    twins = [sets_pair(a, b, min(a, b))[1] for a, b in itertools.permutations(ints, 2)]
    return [*twins, sets_pair(u, v, min(u, v))[0]]


def sets_pair(u, v, x):
    """The p1-shaped job and its twin for constants ``u != v``, ``x`` in both."""
    y = v if x == u else u
    facts = [f"r({u}).", f"r({v}).", f"q({x})."]
    base = frozenset({("r", (u,)), ("r", (v,)), ("q", (x,))})
    bounds = dict(int_min=SETS_INTS[0], int_max=SETS_INTS[1])
    p1 = facts + [f"q({y}) :- Z = {{X : r(X)}}, p(Z).", "p(Y) :- Y = {X : q(X)}."]
    p1_model = base | {("p", (("s", frozenset({(x,)})),))}
    twin = facts + [
        f"q({y}) :- count{{X : r(X)}} = C, pc(C).",
        "pc(C) :- count{X : q(X)} = C.",
    ]
    twin_model = base | {("pc", (1,))}
    return [
        Job("\n".join(p1), bounds, True, False, frozenset({p1_model})),
        Job("\n".join(twin), bounds, True, True, frozenset({twin_model})),
    ]


P1_CONSTANTS = (1, 2, 1)  # (u, v, x) of programs/p1.lp


def format_model(model):
    """Atoms as the CLI prints them, e.g. ``p({1})``, for golden files."""

    def value(v):
        if isinstance(v, int):
            return str(v)
        if v[0] == "s":
            rows = sorted(v[1])
            return "{" + "; ".join(
                value(t[0]) if len(t) == 1 else "(" + ", ".join(map(value, t)) + ")"
                for t in rows
            ) + "}"
        return v[1] + ("(" + ", ".join(map(value, v[2])) + ")" if v[2] else "")

    return {
        pred + ("(" + ", ".join(value(a) for a in args) + ")" if args else "")
        for pred, args in model
    }


# ---------------------------------------------------------------------------
# differential: generated GZ-fragment programs, engines checked against
# each other


DIFFERENTIAL_BOUNDS = dict(int_min=0, int_max=3, max_herbrand_depth=0)


def frozen_random_gz_program(rng: random.Random) -> str:
    """A frozen copy of the package's ``random_gz_program`` generator.

    Kept here so that widening the package's generator does not silently
    change this workload.  Predicates are ``p``/``q``/``r`` and constants
    ``a``/``b``/``c``; :func:`differential_jobs` renames them.
    """
    consts = sorted(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
    preds = sorted(rng.sample(["p", "q", "r"], rng.randint(1, 3)))

    def const_or_int():
        return rng.choice(consts) if rng.random() < 0.6 else str(rng.randint(0, 3))

    def set_atom():
        agg = rng.choice(["count", "sum"])
        pred = rng.choice(preds)
        rel = rng.choice([">=", "=", "<="])
        n = rng.randint(0, 3)
        if rng.random() < 0.3:
            body = f"{pred}(V), V != {rng.choice(consts)}"
        else:
            body = f"{pred}(V)"
        return f"{agg}{{V : {body}}} {rel} {n}"

    def literal():
        roll = rng.random()
        if roll < 0.35:
            return f"{rng.choice(preds)}({const_or_int()})"
        if roll < 0.5:
            return f"not {rng.choice(preds)}({const_or_int()})"
        if roll < 0.85:
            return set_atom()
        return f"not {set_atom()}"

    lines = []
    for _ in range(rng.randint(1, 3)):
        lines.append(f"{rng.choice(preds)}({const_or_int()}).")
    for _ in range(rng.randint(0, 4)):
        body = ", ".join(literal() for _ in range(rng.randint(1, 2)))
        roll = rng.random()
        if roll < 0.15:
            lines.append(f":- {body}.")
        elif roll < 0.3:
            head_pred = rng.choice(preds)
            agg = rng.choice(["count", "sum"])
            src = rng.choice(preds)
            lines.append(f"{head_pred}(X) :- {agg}{{V : {src}(V)}} = X.")
        else:
            lines.append(f"{rng.choice(preds)}({const_or_int()}) :- {body}.")
    return "\n".join(lines)


_SHAPE_NAME = re.compile(r"\b[a-cp-r]\b")


def differential_jobs(rng: random.Random, count: int = DIFFERENTIAL_PROGRAMS):
    """``count`` fixed shapes, each renamed and reordered from ``rng``."""
    shapes = random.Random(DIFFERENTIAL_SHAPE_SEED)
    jobs = []
    for _ in range(count):
        shape = frozen_random_gz_program(shapes)
        names = rng.sample(_NAMES, 6)
        rename = dict(zip("abcpqr", names))
        statements = _SHAPE_NAME.sub(lambda m: rename[m.group()], shape).split("\n")
        rng.shuffle(statements)
        jobs.append(Job("\n".join(statements), DIFFERENTIAL_BOUNDS, True, True, None))
    return jobs


# ---------------------------------------------------------------------------


def build(workload: str, seed: int):
    """The workload's items: each item is a list of jobs timed together as
    one program (on sets, the p1 variant with its twelve twins)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "choice":
        return [[choice_job(rng)]]
    if workload == "chain":
        return [[chain_job(rng)]]
    if workload == "sets":
        return [sets_jobs(rng)]
    if workload == "differential":
        return [[job] for job in differential_jobs(rng)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("choice", "chain", "sets", "differential")
