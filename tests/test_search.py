"""The fast search (branching with propagation plus least-model
minimality check) against the reference search (every subset of the
atoms between the facts and the support fixpoint's upper bound plus
subset search), branching against the mask enumeration from the root
bounds, the equilibrium engine's search restricted to what its upper
bound can reach against the search over the whole ground theory, GZ's
upper bound from propagation's root against the support fixpoint's, the
leaves that propagation closed against the engines' checks, set
equalities that propagate against the checks and the reference, the
search split into components against one joint search, the
binding-driven instantiation against the theory grounded in full, its
semi-naive fixpoint against one naive round, and the full grounding's
guarded enumeration against every substitution."""

import itertools
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import cache, partial
from pathlib import Path

import pytest

from setasp import DomainBounds, parse_program
from setasp import cli, domain, ground, gz, interp, rules, search, solver
from setasp.checks import random_zero_rank_program
from setasp.errors import DomainLimitError
from setasp.gz import GENERATOR_BOUNDS, gz_stable_models, random_gz_program
from setasp.ground import _TOP_MARK, _Viability, simplify
from setasp.interp import T, atom_key
from setasp.solver import (
    build_universe,
    find_stable_models,
    ground_theory,
    relevant_atoms,
    solve_ground,
)
from setasp.syntax import TOP, EApp, Num, Val, closure_prefix, substitute
from setasp.values import UNDEF, FinSet, HTerm, finset, value_key

from conftest import COUNT0, P1, P2, P3, P4, PROGRAMS, atom

ZERO_RANK_BOUNDS = DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0)
FIXED_BOUNDS = DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0)
CHAIN = "p(0). p(Y) :- p(X), Y = X + 1."

# Each program sends at least one engine's minimality check to the subset
# search: disjunctive heads, a nested implication in a body, double
# negation in a head, declared-function facts, and a set term whose head
# is itself a set term.
FALLBACK = [
    "p(1) ; p(2).",
    "p(1) ; p(2). q(1) :- p(1). p(1) :- q(1).",
    "p(1) ; not p(1).",
    "q(1) :- p(1) -> r(1). p(1) :- not s(1). s(1) :- not p(1). r(1) :- p(1).",
    "q(1) :- (p(1) -> r(1)), not s(1). p(1). r(1) :- q(1).",
    "s(1). q(1) :- s(1). p(1) :- q(1) -> r(1). r(1) :- p(1).",
    "not not p(1) :- q(1). q(1). p(1) :- not r(1).",
    "#function f/0 : {a; b}. f := a. p(1) :- f = a. q(1) :- not p(1).",
    "#function g/0 : {1; 2}. p(1) :- g = 1. q(1) :- not p(1).",
    "q(1). q(2) :- c(1). c(N) :- N = count{{Y : q(Y)} : q(1)}.",
]

# A count past int_max is undefined, so no comparison holds of it and its
# ``not`` does: propagation that read a count of 4 as ``>= 2`` would drop
# the model with charlie(kilo) at ints 0..3.
UNDEFINED_COUNT = (
    "charlie(kilo) :- not count{V : charlie(V)} >= 2. "
    "charlie(0) :- charlie(golf). charlie(3). charlie(golf)."
)

# Both engines compare an aggregate with the value of the other side in
# the static interpretation, through ``relation_eval``: arithmetic folds,
# a constant differs from every integer and is ordered against none.
NON_INTEGER_THRESHOLDS = [
    "p(1). q :- not count{X : p(X)} != a.",
    "p(1). q :- not count{X : p(X)} < 1+1.",
    "q(1). p :- count{X : q(X)} < 1+1.",
    "q(1). p :- count{X : q(X)} = 2-1.",
    "q(1). p :- count{X : q(X)} != a.",
]

# Rule shapes that stay on the fast path, set terms and double negation in
# bodies included.
FAST = [
    P1,
    P2,
    P4,
    COUNT0,
    "p(1) :- not not p(1).",
    "p(1) :- not not p(1). q(1) :- p(1), not r(1). r(1) :- not q(1).",
    "a(X) :- d(X), not b(X). b(X) :- d(X), not a(X). d(1). d(2). :- a(1), a(2).",
    "p(1). p(2) :- p(1) ; q(1). q(X) :- p(X), not r(2). c(N) :- count{X : q(X)} = N.",
    "p(f(a)). q(f(a)) :- p(f(a)), not r(f(a)). r(f(b)) :- not q(f(a)).",
    UNDEFINED_COUNT,
    *NON_INTEGER_THRESHOLDS,
]


def _eq(text, bounds, **options):
    """Model atoms with their witnesses; an ``Assignment`` compares with
    ``==`` whatever order its set terms were stored in."""
    report = find_stable_models(parse_program(text), bounds, **options)
    return [(m.atoms, m.sigma) for m in report.models]


def _gz(text, bounds, **options):
    return gz_stable_models(parse_program(text), bounds, **options)


def _eq_checked(text, bounds):
    """``_eq`` with the engine's checks at every leaf, closed ones too."""
    return _eq(text, bounds, full_checks=True)


def _gz_checked(text, bounds):
    return _gz(text, bounds, full_checks=True)


def lower_bound(ground, upper):
    """Atoms true in every stable model between the facts and ``upper``,
    or None when there is none: the root bounds of the search."""
    propagation = search._Propagation(ground, upper)
    root = propagation.root
    return None if root is None else propagation.atoms(root[0])


def there_candidates(propagation, root=lower_bound):
    """Reference for ``search.branch_leaves``: the lower bound that
    ``root`` gives plus each subset of the undecided atoms between it and
    the support fixpoint of ``ground._Viability`` over the search theory,
    which ``atom_cap`` bounds.  It marks no leaf closed."""
    theory = propagation.ground
    upper = relevant_atoms(theory)
    lower = root(theory, upper)
    if lower is None:
        return
    undecided = upper - lower
    if len(undecided) > theory.universe.bounds.atom_cap:
        raise DomainLimitError(
            f"{len(undecided)} undecided atoms is too many to enumerate", "atom_cap"
        )
    numbering = search._Numbering(upper | lower)
    for mask in search._subsets(numbering.mask(lower), numbering.mask(undecided)):
        yield numbering, mask, False


@contextmanager
def reference_search():
    """Both engines on every subset between the facts and the upper bound,
    and the subset search."""
    with pytest.MonkeyPatch.context() as patch:
        facts_only = lambda ground, upper: ground.facts  # noqa: E731
        patch.setattr(search, "branch_leaves", partial(there_candidates, root=facts_only))
        patch.setattr(solver, "find_countermodel", solver._countermodel_search)
        patch.setattr(gz, "_has_smaller_model", gz._smaller_model_search)
        yield


@contextmanager
def mask_search():
    """Both engines on every subset between the root bounds instead of
    branching."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "branch_leaves", there_candidates)
        yield


@contextmanager
def joint_search():
    """One depth-first search over every undecided atom, instead of one
    per component of the program."""
    with pytest.MonkeyPatch.context() as patch:
        whole = lambda propagation, undecided: [undecided]  # noqa: E731
        patch.setattr(search._Propagation, "components", whole)
        yield


@contextmanager
def unrestricted_search():
    """The equilibrium engine searches the whole ground theory; GZ
    searches its full grounding either way."""
    with pytest.MonkeyPatch.context() as patch:
        whole = lambda ground, possible: ground  # noqa: E731
        patch.setattr(solver, "search_theory", whole)
        yield


@cache
def _generated(generator, seed):
    rng = random.Random(seed)
    return tuple(generator(rng) for _ in range(1000))


@cache
def _fast(programs, engines, bounds):
    """The fast search's answers, shared by the comparisons that use the
    same programs."""
    return [[engine(text, bounds) for engine in engines] for text in programs]


def _compare(programs, engines, bounds, baseline=reference_search):
    fast = _fast(tuple(programs), engines, bounds)
    with baseline():
        reference = [[engine(text, bounds) for engine in engines] for text in programs]
    mismatches = [text for text, a, b in zip(programs, fast, reference) if a != b]
    assert mismatches == []


def test_fast_search_matches_reference_on_generated_gz_programs():
    _compare(_generated(random_gz_program, 20), (_eq, _gz), GENERATOR_BOUNDS)


def test_fast_search_matches_reference_on_generated_zero_rank_programs():
    _compare(_generated(random_zero_rank_program, 21), (_eq,), ZERO_RANK_BOUNDS)


def test_fast_search_matches_reference_on_fixed_programs():
    _compare(FALLBACK + FAST + [P3], (_eq,), FIXED_BOUNDS)
    gz_programs = [t for t in FALLBACK + FAST if gz.is_gz_theory(parse_program(t))[0]]
    _compare(gz_programs, (_gz,), FIXED_BOUNDS)


def test_branching_matches_masks_on_generated_gz_programs():
    _compare(_generated(random_gz_program, 20), (_eq, _gz), GENERATOR_BOUNDS, mask_search)


def test_branching_matches_masks_on_generated_zero_rank_programs():
    _compare(_generated(random_zero_rank_program, 21), (_eq,), ZERO_RANK_BOUNDS, mask_search)


def test_branching_matches_masks_on_fixed_programs():
    _compare(FALLBACK + FAST + [P3], (_eq,), FIXED_BOUNDS, mask_search)
    gz_programs = [t for t in FALLBACK + FAST if gz.is_gz_theory(parse_program(t))[0]]
    _compare(gz_programs, (_gz,), FIXED_BOUNDS, mask_search)


def aggregate_gz_program(rng, names=("count", "sum"), rules=4):
    """``random_gz_program`` widened for the aggregate tests: every
    relation, thresholds up to 4 (past ``GENERATOR_BOUNDS``' int_max, so
    undefined) and now and then a constant, set bodies with ``not``,
    negated aggregates in more rule bodies, and aggregate constraints
    ``:- count{V : p(V)} != k.``  The comparisons draw their aggregate
    from ``names``; there are at most ``rules`` rule lines."""
    consts = sorted(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
    preds = sorted(rng.sample(["p", "q", "r"], rng.randint(1, 3)))

    def const_or_int():
        return rng.choice(consts) if rng.random() < 0.6 else str(rng.randint(0, 3))

    def set_atom():
        pred = rng.choice(preds)
        roll = rng.random()
        if roll < 0.2:
            body = f"{pred}(V), V != {rng.choice(consts)}"
        elif roll < 0.4:
            body = f"{pred}(V), not {rng.choice(preds)}(V)"
        else:
            body = f"{pred}(V)"
        rel = rng.choice([">=", "=", "<=", "!=", "<", ">"])
        k = rng.choice(consts) if rng.random() < 0.1 else rng.randint(0, 4)
        return f"{rng.choice(names)}{{V : {body}}} {rel} {k}"

    def literal():
        roll = rng.random()
        if roll < 0.3:
            return f"{rng.choice(preds)}({const_or_int()})"
        if roll < 0.5:
            return f"not {rng.choice(preds)}({const_or_int()})"
        if roll < 0.75:
            return set_atom()
        return f"not {set_atom()}"

    lines = [f"{rng.choice(preds)}({const_or_int()})." for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, rules)):
        body = ", ".join(literal() for _ in range(rng.randint(1, 2)))
        if rng.random() < 0.15:
            lines.append(f":- {body}.")
        else:
            lines.append(f"{rng.choice(preds)}({const_or_int()}) :- {body}.")
    if rng.random() < 0.5:
        lines.append(f":- count{{V : {rng.choice(preds)}(V)}} != {rng.randint(0, 4)}.")
    return "\n".join(lines)


def test_fast_search_matches_reference_on_generated_aggregate_programs():
    _compare(_generated(aggregate_gz_program, 28), (_eq, _gz), GENERATOR_BOUNDS)


def test_branching_matches_masks_on_generated_aggregate_programs():
    _compare(_generated(aggregate_gz_program, 28), (_eq, _gz), GENERATOR_BOUNDS, mask_search)


def extreme_gz_program(rng):
    """``aggregate_gz_program`` whose comparisons draw ``max`` and ``min``
    too."""
    return aggregate_gz_program(rng, ("count", "sum", "max", "min"))


def test_fast_search_matches_reference_on_generated_extreme_programs():
    _compare(_generated(extreme_gz_program, 32), (_eq, _gz), GENERATOR_BOUNDS)


def test_branching_matches_masks_on_generated_extreme_programs():
    _compare(_generated(extreme_gz_program, 32), (_eq, _gz), GENERATOR_BOUNDS, mask_search)


# Sums with negative weights, aggregates on the right of a comparison and
# under ``not`` in a constraint, at ints -2..2.
SIGNED_SUMS = [
    "p(-2). p(1) :- not q(1). q(1) :- not p(1). r :- sum{X : p(X)} < 0.",
    "p(-2) :- not q. q :- not p(-2). p(2) :- not s. s :- not p(2). r :- sum{X : p(X)} = 0.",
    "p(-1) :- not q. q :- not p(-1). p(2) :- not s. s :- not p(2). :- not 1 <= sum{X : p(X)}.",
    "d(-1). d(1). d(2). a(X) :- d(X), not b(X). b(X) :- d(X), not a(X). "
    ":- sum{X : a(X)} != 1. c :- 2 = count{X : b(X)}.",
]


def _compare_signed(programs, gz_count):
    """``programs`` at ints -2..2 against the reference and mask searches,
    in both engines where ``gz_count`` of them are in the GZ fragment."""
    bounds = DomainBounds(int_min=-2, int_max=2, max_herbrand_depth=0)
    gz_programs = [t for t in programs if gz.is_gz_theory(parse_program(t))[0]]
    assert len(gz_programs) == gz_count
    for baseline in (reference_search, mask_search):
        _compare(programs, (_eq,), bounds, baseline)
        _compare(gz_programs, (_gz,), bounds, baseline)


def test_signed_sums_match_the_reference():
    _compare_signed(SIGNED_SUMS, 2)


# Sums over a member whose weight is not an integer, which undefines the
# sum where it is in, at ints -2..2: a constant among negative weights,
# under ``not``, on the right of the comparison, and a constant that only
# a rule derives.
MIXED_SUMS = [
    "p(-2). p(-1) :- not q. q :- not p(-1). p(a) :- not s. s :- not p(a). r :- sum{X : p(X)} < -1.",
    "p(1). p(a) :- not q. q :- not p(a). r :- not sum{X : p(X)} >= 1.",
    "p(-1). p(b) :- not q. q :- not p(b). r :- 0 > sum{X : p(X)}.",
    "p(2). p(-1) :- not t. t :- not p(-1). p(c) :- u, not s. s :- not p(c). "
    "u :- not v. v :- not u. w :- sum{X : p(X)} = 1.",
    "d(-1). d(2). a(X) :- d(X), not b(X). b(X) :- d(X), not a(X). "
    "a(z) :- c. c :- not e. e :- not c. :- not sum{X : a(X)} != 1.",
]


def test_mixed_sums_match_the_reference():
    _compare_signed(MIXED_SUMS, 4)


CHECKED = (_eq_checked, _gz_checked)


# ``;`` heads, which leave their rules outside the rule view, over bodies
# that nothing can make true and over one that can: with the models and
# the leaves of a search whose upper bound is the support fixpoint.  Seven
# bodies whose atoms stayed undecided would pass ``atom_cap``.  In the
# fifth, ``c`` supports ``a`` and ``b`` only while it can hold, so the
# branch with ``d`` drops them.  In the sixth, no antecedent chain of the
# three ``;`` rules can hold, so none keeps q(a) in support, which its own
# count cannot give it, and the root bounds conflict; in the last, ``b``
# has the empty chain, so it stays possible, and ``a`` is under ``c``,
# which nothing supports.
DISJUNCTIVE = [
    ("a ; b :- c.", [set()], 1),
    (" ".join(f"a{i} ; b{i} :- c{i}." for i in range(7)), [set()], 1),
    ("a ; b :- count{X : c(X)} >= 1.", [set()], 1),
    ("a ; b :- c. c ; d :- e. f.", [{atom("f")}], 1),
    (
        "a ; b :- c. c :- not d. d :- not c.",
        [{atom("a"), atom("c")}, {atom("b"), atom("c")}, {atom("d")}],
        5,
    ),
    (
        "p(b). r(a). p(a) ; r(1) :- p(1), p(a). "
        "p(3) ; p(a) :- q(a), sum{V : p(V), V != b} >= 3. "
        "q(a) :- count{V : q(V)} >= 0, not count{V : p(V), V != a} >= 3. "
        "s(a) ; s(b) :- p(a).",
        [],
        0,
    ),
    ("(c -> a) ; b.", [set()], 2),
]


def test_gz_upper_bound_lies_inside_the_support_fixpoint_and_closed_leaves_are_models():
    """GZ's upper bound, the root upper bound of its one propagation,
    never leaves the support fixpoint of ``ground._Viability`` over the
    same grounding, and its closed leaves are what its checks accept."""
    runs = [(random_gz_program, 20), (aggregate_gz_program, 28), (extreme_gz_program, 32)]
    batches = [_generated(generator, seed) for generator, seed in runs]
    batches.append(tuple(text for text, _, _ in DISJUNCTIVE))
    outside, mismatches = [], []
    for programs in batches:
        for text in programs:
            theory = parse_program(text)
            ground = ground_theory(theory, build_universe(theory, GENERATOR_BOUNDS))
            upper = gz._gz_relevant_atoms(search._Propagation(ground))
            if not upper <= relevant_atoms(ground):
                outside.append(text)
        fast = [answers[1] for answers in _fast(programs, (_eq, _gz), GENERATOR_BOUNDS)]
        checked = [answers[0] for answers in _fast(programs, (_gz_checked,), GENERATOR_BOUNDS)]
        mismatches += [text for text, a, b in zip(programs, fast, checked) if a != b]
    assert outside == mismatches == []


@pytest.mark.parametrize(
    "text, models, leaves",
    DISJUNCTIVE,
    ids=["one", "seven", "aggregate", "chained", "supported", "dead-chains", "nested"],
)
def test_gz_upper_bound_holds_no_atom_that_only_a_body_reads(text, models, leaves):
    with counted_leaves() as counted:
        assert _gz(text, GENERATOR_BOUNDS) == models
    assert counted.total() == leaves
    assert _gz_checked(text, GENERATOR_BOUNDS) == models


@pytest.mark.parametrize(
    "text, models, leaves",
    DISJUNCTIVE,
    ids=["one", "seven", "aggregate", "chained", "supported", "dead-chains", "nested"],
)
def test_equilibrium_search_of_a_disjunction_visits_the_same_leaves(text, models, leaves):
    with counted_leaves() as counted:
        assert [atoms for atoms, _ in _eq(text, GENERATOR_BOUNDS)] == models
    assert counted.total() == leaves


# Heads that compare a set term no aggregate reads: such a head holds at a
# here-world only where the set term's members are as at the there-world,
# so support keeps their atoms (``kept``), and ``{c, e, q(1)}`` is stable
# though the rule for ``q(1)`` cannot fire there.
SET_TERM_HEADS = [
    "c. {X : q(X)} = {1} :- c. q(1) :- d. d :- not e. e :- not d.",
    "c. count{X : q(X)} = count{Y : r(Y)} + 1 :- c. "
    "q(1) :- d. r(1) :- d. q(2) :- e. d :- not e. e :- not d.",
]


@pytest.mark.parametrize("text, models", zip(SET_TERM_HEADS, (2, 7)), ids=["equality", "sum"])
def test_support_keeps_the_atoms_of_a_set_term_in_a_head(text, models):
    fast = _eq(text, ZERO_RANK_BOUNDS)
    with reference_search():
        assert len(fast) == models and fast == _eq(text, ZERO_RANK_BOUNDS)


# Head aggregates whose comparison no extension of their members meets
# at the default bounds (ints 0..10): no member is a head, so both engines
# take one leaf for no model.  Where every member was a head, the sum over
# the 121 ``e`` pairs exited on ``atom_cap``, and the others took 2,048 to
# 4,096 leaves: a ``max`` or ``min`` of ints 0..10 lies inside them, and a
# count past ``int_max`` is undefined.
UNREACHABLE_HEADS = [
    "sum{(X, Y) : e(X, Y)} < 0 :- q. q.",
    "max{X : p(X)} < 0 :- q. q.",
    "min{X : p(X)} > 10 :- q. q.",
    "count{X : p(X)} > 11 :- q. q.",
]


@pytest.mark.parametrize("text", UNREACHABLE_HEADS, ids=["sum", "max", "min", "count"])
@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_a_head_aggregate_reads_no_member_that_cannot_meet_it(engine, text):
    with counted_leaves() as counted:
        assert _models(engine(parse_program(text), DomainBounds())) == []
    assert counted.total() == 1


# The sum of p(a) is undefined, so the rule's body holds at no value of
# X: propagation drops it at the root, and the search is exact.
SELF_SUM = "p(a). p(X) :- sum{V : p(V)} = X."


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_a_rule_whose_body_cannot_hold_leaves_the_search_exact(engine):
    theory = parse_program(SELF_SUM)
    with counted_leaves() as counted:
        models = _models(engine(theory, GENERATOR_BOUNDS))
    assert counted == Counter({True: 1})
    assert [getattr(m, "atoms", m) for m in models] == [{atom("p", "a")}]
    assert _models(engine(theory, GENERATOR_BOUNDS, full_checks=True)) == models


def test_gz_builds_no_viability_fixpoint(monkeypatch):
    def refuse(*args):
        raise AssertionError("the GZ engine ran the support fixpoint")

    programs = [t for t in FALLBACK + FAST if gz.is_gz_theory(parse_program(t))[0]]
    expected = [_gz(text, FIXED_BOUNDS) for text in programs]
    monkeypatch.setattr(ground._Viability, "__init__", refuse)
    monkeypatch.setattr(ground._Viability, "run", refuse)
    assert [_gz(text, FIXED_BOUNDS) for text in programs] == expected
    assert [_gz_checked(text, FIXED_BOUNDS) for text in programs] == expected


def normal_program(rng, values=3, rules=5):
    """A normal program over ints 0..3, on which most leaves close: facts,
    even negation loops, chains along ``e`` or ``+ 1``, joins and
    constraints, with no set term, no ``;`` and no declared function; at
    most ``values`` ``d`` facts and ``rules`` rule lines."""
    preds = ["a", "b", "c", "p", "q"]

    def n():
        return rng.randint(0, 3)

    lines = [f"d({i})." for i in sorted(rng.sample(range(4), rng.randint(1, values)))]
    lines += [f"e({n()}, {n()})." for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(1, rules)):
        x, y, z = rng.sample(preds, 3)
        roll = rng.random()
        if roll < 0.25:
            lines.append(f"{x}(X) :- d(X), not {y}(X). {y}(X) :- d(X), not {x}(X).")
        elif roll < 0.35:
            i, j = n(), n()
            lines.append(f"{x}({i}) :- not {y}({j}). {y}({j}) :- not {x}({i}).")
        elif roll < 0.5:
            lines.append(f"{x}({n()}) :- {y}({n()}).")
            lines.append(f"{x}(Y) :- {x}(X), {rng.choice(['e(X, Y)', 'Y = X + 1'])}.")
        elif roll < 0.65:
            lines.append(f"{x}(X) :- {y}(X), e(X, Y), not {z}(Y).")
        elif roll < 0.75:
            lines.append(f"{x}({n()}) :- {y}({n()}), not {z}({n()}).")
        elif roll < 0.9:
            x = rng.choice([x, "d"])
            lines.append(f":- {x}({n()}), not {rng.choice([y, 'd'])}({n()}).")
        else:
            lines.append(f":- {x}(X), {y}(X).")
    return "\n".join(lines)


# Exact searches: constraints that the facts alone break, so the root
# bounds conflict and leave no leaf, a chain, even loops under a
# constraint, a rule whose heads mix a fact and another atom, and a rule
# whose one head is a fact, which propagation leaves out whatever its body.
CLOSED = [
    "p(1). :- p(1).",
    "p(1). q(1). :- p(1), not r(1).",
    CHAIN,
    "a(X) :- d(X), not b(X). b(X) :- d(X), not a(X). d(1). d(2). :- a(1), a(2).",
    "p(1). p(1), r(1) :- not s(1). s(1) :- not r(1).",
    "q(1). q(2). q(1) :- count{X : q(X)} >= 1, not t. t :- not u. u :- not t.",
]


def _closed(numbering, mask, closed):
    return closed


@contextmanager
def counted_leaves(key=_closed):
    """How many leaves the searches yield, by ``key(numbering, mask,
    closed)``: by default, by whether they are closed."""
    closed = Counter()

    def counted(propagation, original=search.branch_leaves):
        for leaf in original(propagation):
            closed[key(*leaf)] += 1
            yield leaf

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "branch_leaves", counted)
        yield closed


def test_closed_leaves_match_the_checks_on_generated_normal_programs():
    programs = _generated(normal_program, 29)
    assert all(gz.is_gz_theory(parse_program(text))[0] for text in programs)
    with counted_leaves() as closed:
        fast = [[engine(text, GENERATOR_BOUNDS) for engine in (_eq, _gz)] for text in programs]
    checked = [[engine(text, GENERATOR_BOUNDS) for engine in CHECKED] for text in programs]
    assert [text for text, a, b in zip(programs, fast, checked) if a != b] == []
    # most leaves are closed and most are models, so the comparison is
    # not vacuous
    assert closed[True] > 2 * closed[False]
    assert 2 * sum(len(models) for answers in fast for models in answers) > closed.total()


def test_closed_leaves_match_the_checks_on_fixed_programs():
    for engines in ((_eq, _gz), CHECKED):
        assert [engine(CLOSED[0], FIXED_BOUNDS) for engine in engines] == [[], []]
    _compare(CLOSED, (_eq, _gz), FIXED_BOUNDS, reference_search)
    _compare(CLOSED, (_eq, _gz), FIXED_BOUNDS, mask_search)


def set_equality_program(rng):
    """Facts and even loops between ``q`` and ``r`` at ints 1..2, then
    p1's ``p(Y) :- Y = {X : q(X)}.`` and its ``q(2)`` rule or an even loop
    between ``t`` and ``u``, and rules whose bodies compare a set term
    with a set value in either order, beside ``t`` or ``not t``.  Some
    equalities stay opaque: one under ``not``, and one whose member
    bodies hold ``, t`` or ``, not t``."""
    lines = []
    for i in (1, 2):
        roll = rng.random()
        if roll < 0.4:
            lines.append(f"q({i}) :- not r({i}). r({i}) :- not q({i}).")
        elif roll < 0.8:
            lines.append(f"{rng.choice('qr')}({i}).")
    roll = rng.random()  # not both, which would cost the reference search most
    if roll < 0.25:
        lines.append("p(Y) :- Y = {X : q(X)}. q(2) :- Z = {X : r(X)}, p(Z).")
    elif roll < 0.55:
        lines.append("t :- not u. u :- not t.")

    def equality():
        member = rng.choice("qr") + "(X)" + rng.choices(["", ", t", ", not t"], [8, 1, 1])[0]
        sides = [rng.choice(["{}", "{1}", "{2}", "{1; 2}"]), f"{{X : {member}}}"]
        rng.shuffle(sides)
        return ("not " if rng.random() < 0.15 else "") + " = ".join(sides)

    for _ in range(rng.randint(1, 3)):
        body = [equality()] + rng.sample(["t", "not t", "q(1)", "not r(2)"], rng.randint(0, 1))
        head = rng.choice(["s", "q(1)", "q(2)", "r(1)", "r(2)", ""])
        lines.append(f"{head} :- {', '.join(body)}.")
    return "\n".join(lines)


# Set equalities that propagate: with the empty set, with a tuple that no
# member produces (past the 12 members up to which the upper bound reads
# a set term's extensions, so the rule reaches the search), with a member
# that ``simplify`` folds to verum; and ones that stay opaque: a value
# that is not a set, a repeated head, and a member body of two atoms.
SET_EQUALITIES = [
    "r(1) :- not s. s :- not r(1). p :- {} = {X : r(X)}.",
    " ".join(f"q({i})." for i in range(1, 14))
    + " p :- {" + "; ".join(map(str, range(1, 15))) + "} = {X : q(X)}.",
    "p :- {1} = {X : X = 1}. s :- {} = {X : X = 1}. t :- {X : X = 1} = {1; 2}.",
    "q(1). p :- {X : q(X)} = 3.",
    "q(1) :- not s. s :- not q(1). q(2). p :- {1} = {X : 1 : q(X)}.",
    "q(1). q(2) :- not s. s :- not q(2). t :- not u. u :- not t. p :- {1} = {X : q(X), t}.",
]


def test_set_equalities_match_the_checks_and_the_reference():
    programs = _generated(set_equality_program, 30)
    with counted_leaves() as closed:
        fast = [_eq(text, FIXED_BOUNDS) for text in programs]
    checked = [_eq_checked(text, FIXED_BOUNDS) for text in programs]
    with reference_search():
        reference = [_eq(text, FIXED_BOUNDS) for text in programs]
    answers = zip(programs, fast, checked, reference)
    assert [text for text, a, b, c in answers if not a == b == c] == []
    # most leaves close, so the comparison with the checks is not vacuous
    assert closed[True] > closed[False]


def test_set_equalities_match_the_checks_and_the_reference_on_fixed_programs():
    _compare(SET_EQUALITIES, (_eq,), FIXED_BOUNDS, reference_search)
    _compare(SET_EQUALITIES, (_eq_checked,), FIXED_BOUNDS, reference_search)
    exact = []

    def recorded(ground, upper, original=search._Propagation):
        propagation = original(ground, upper)
        exact.append(propagation.exact)
        return propagation

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_Propagation", recorded)
        answers = [[atoms for atoms, _ in _eq(text, FIXED_BOUNDS)] for text in SET_EQUALITIES]
    # the value 3 leaves p without support, so the search drops its rule and
    # is exact: its one leaf, the fact q(1), closes at the root
    assert exact == [True, True, True, True, False, False]
    assert answers == [
        [{atom("p"), atom("s")}, {atom("r", 1)}],
        [{atom("q", i) for i in range(1, 14)}],
        [{atom("p")}],
        [{atom("q", 1)}],
        [{atom("p"), atom("q", 1), atom("q", 2)}, {atom("p"), atom("q", 2), atom("s")}],
        [
            {atom("p"), atom("q", 1), atom("s"), atom("t")},
            {atom("q", 1), atom("q", 2), atom("t")},
            {atom("q", 1), atom("q", 2), atom("u")},
            {atom("q", 1), atom("s"), atom("u")},
        ],
    ]


# The one application of a declared function sits in the set term of a
# rule that the search drops, so no formula it keeps reads the function.
DEAD_SET_APPLICATION = (
    "#function f/1 : {a; b}. r(1). p :- q(1), count{X : r(X), f(X) = a} >= 1. "
    "s :- not t. t :- not s."
)


def test_a_declared_function_keeps_every_leaf_checked():
    # each of the two leaves is still tested against f(1)'s three values
    report = find_stable_models(parse_program(DEAD_SET_APPLICATION), FIXED_BOUNDS)
    assert report.stats.candidates == 2 * 3
    assert [(m.atoms, m.sigma.funcs) for m in report.models] == [
        ({atom("r", 1), atom("s")}, {}),
        ({atom("r", 1), atom("t")}, {}),
    ]


# Two declared-function choices: four models over the same atoms, told
# apart only by their function facts.
FUNCTION_CHOICE = (
    "#function f/1 : {0; 1}. d(1). d(2). "
    "f(X) := 0 :- d(X), not f(X) = 1. f(X) := 1 :- d(X), not f(X) = 0."
)


def _canonical(model):
    """The key models are ordered by: their atoms' keys, sorted, then
    their function facts'."""
    atoms, sigma = model if isinstance(model, tuple) else (model, None)
    funcs = sigma.funcs if sigma else {}
    facts = sorted((atom_key(app), value_key(value)) for app, value in funcs.items())
    return tuple(sorted(map(atom_key, atoms))), tuple(facts)


def test_models_come_in_canonical_order():
    runs = [
        (_generated(random_gz_program, 20), (_eq, _gz), GENERATOR_BOUNDS),
        (_generated(random_zero_rank_program, 21), (_eq,), ZERO_RANK_BOUNDS),
        (_generated(aggregate_gz_program, 28), (_eq, _gz), GENERATOR_BOUNDS),
        (tuple(FALLBACK + FAST + [FUNCTION_CHOICE]), (_eq,), FIXED_BOUNDS),
    ]
    several = 0
    for programs, engines, bounds in runs:
        for answers in _fast(programs, engines, bounds):
            for models in answers:
                keys = list(map(_canonical, models))
                assert keys == sorted(keys)
                several += len(keys) > 1
    assert several >= 30
    assert len(_eq(FUNCTION_CHOICE, FIXED_BOUNDS)) == 4


def test_restricted_search_matches_whole_on_generated_gz_programs():
    programs = _generated(random_gz_program, 22)
    _compare(programs, (_eq,), GENERATOR_BOUNDS, unrestricted_search)


def test_restricted_search_matches_whole_on_generated_zero_rank_programs():
    programs = _generated(random_zero_rank_program, 23)
    _compare(programs, (_eq,), ZERO_RANK_BOUNDS, unrestricted_search)


def test_restricted_search_matches_whole_on_fixed_programs():
    _compare(FALLBACK + FAST + [P3], (_eq,), FIXED_BOUNDS, unrestricted_search)


def test_p1_search_keeps_only_what_the_upper_bound_reaches():
    theory = parse_program(P1)
    bounds = DomainBounds(int_min=1, int_max=4)
    assert len(ground_theory(theory, build_universe(theory, bounds)).formulas) == 5075
    for max_int in (4, 5):
        searched = []
        with pytest.MonkeyPatch.context() as patch:

            def recorded(ground, possible, original=search.search_theory):
                searched.append((ground, original(ground, possible)))
                return searched[-1][1]

            patch.setattr(solver, "search_theory", recorded)
            report = find_stable_models(theory, bounds.with_(int_max=max_int))
        ((instances, restricted),) = searched
        assert len(instances.formulas) <= 11
        assert len(restricted.formulas) <= 11
        assert restricted.universe is instances.universe
        sizes = {str(s): len(c) for s, c in restricted.universe._intset_cache.items()}
        assert sizes == {"{X : r(X)}": 2, "{X : q(X)}": 2}
        # the set equalities propagate, so the root closes
        assert report.stats.candidates == 1
        assert report.atom_sets() == [
            {atom("p", finset([1])), atom("q", 1), atom("r", 1), atom("r", 2)}
        ]


def test_p1_solve_never_builds_the_set_layer(monkeypatch):
    def refuse(base, bounds):
        raise AssertionError("the solve enumerated the set layer")

    monkeypatch.setattr(domain, "_set_layer", refuse)
    theory = parse_program(P1)
    for bounds in (DomainBounds(int_min=1, int_max=5), DomainBounds(int_max=5), DomainBounds()):
        report = find_stable_models(theory, bounds)
        assert report.atom_sets() == [
            {atom("p", finset([1])), atom("q", 1), atom("r", 1), atom("r", 2)}
        ]


def _whole(text, bounds):
    """``_eq`` over the theory grounded in full by ``ground_theory``."""
    theory = parse_program(text)
    report = solve_ground(ground_theory(theory, build_universe(theory, bounds)))
    return [(m.atoms, m.sigma) for m in report.models]


def _compare_instantiations(programs, bounds):
    mismatches = [text for text in programs if _eq(text, bounds) != _whole(text, bounds)]
    assert mismatches == []


def test_binding_instantiation_matches_whole_on_generated_gz_programs():
    rng = random.Random(24)
    _compare_instantiations([random_gz_program(rng) for _ in range(1000)], GENERATOR_BOUNDS)


def test_binding_instantiation_matches_whole_on_generated_zero_rank_programs():
    rng = random.Random(25)
    programs = [random_zero_rank_program(rng) for _ in range(1000)]
    _compare_instantiations(programs, ZERO_RANK_BOUNDS)


# A variable only under ``not``, only in a head, bound by a chain of
# equalities, by an equality whose other side needs another binding, or
# by an atom holding a value outside the domain.
BINDING_SHAPES = [
    "p(1). q(X) :- not p(X).",
    "d(1). p(X) :- d(1).",
    "d(1). d(2). :- d(X), not p(X). p(X) ; r(X) :- d(X).",
    CHAIN,
    "p(1). q(Z) :- p(X), Y = X + 1, Z = Y + Y.",
    "p(1). q(Y) :- Y = X, p(X).",
    "p(a). p(f(X)) :- p(X). q(Y) :- p(Y).",
]

# Joins whose atom steps gain atoms in the same round, in a rule body and
# in a set term.
JOINS = [
    "e(1,2). e(2,3). e(3,4). t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), t(Y,Z).",
    "p(1). q(1). p(Y) :- p(X), Y = X + 1. q(Y) :- q(X), Y = X + 1. r(X, Y) :- p(X), q(Y). "
    "n(N) :- N = count{(X, Y) : p(X), q(Y)}.",
]
JOIN_BOUNDS = DomainBounds(int_min=1, int_max=4, max_herbrand_depth=0)

# A count over 13 candidates: ``N`` takes the count's exact values 0..13,
# read from its members without listing the extensions.
WIDE_COUNT = " ".join(f"q({i})." for i in range(13)) + " n(N) :- N = count{X : q(X)}, N > 12."

# The same count beside a set value: ``N`` still takes only the count's
# integer values, not the set layer that ``q({1})`` calls for.
WIDE_COUNT_WITH_SETS = (
    "q({1}). r(S) :- q(S). "
    + " ".join(f"c({i})." for i in range(13))
    + " n(N) :- N = count{X : c(X)}, N > 12."
)


def test_binding_instantiation_matches_whole_on_fixed_programs():
    _compare_instantiations(FALLBACK + FAST + [P3] + BINDING_SHAPES, FIXED_BOUNDS)
    _compare_instantiations([CHAIN], DomainBounds(int_min=0, int_max=6, max_herbrand_depth=0))
    _compare_instantiations(JOINS, JOIN_BOUNDS)
    wide = DomainBounds(int_min=0, int_max=13, max_herbrand_depth=0)
    _compare_instantiations([WIDE_COUNT], wide)
    ((atoms, _),) = _eq(WIDE_COUNT, wide)
    assert atom("n", 13) in atoms
    _compare_instantiations([WIDE_COUNT_WITH_SETS], DomainBounds(int_max=13, max_set_card=1))
    ((atoms, _),) = _eq(WIDE_COUNT_WITH_SETS, DomainBounds(int_max=13))
    assert atom("n", 13) in atoms
    ((atoms, _),) = _eq(WIDE_COUNT_WITH_SETS, DomainBounds())
    assert atom("r", finset([1])) in atoms
    assert not any(pred == "n" for pred, _ in atoms)  # 13 is past int_max


def _every_substitution(theory, universe):
    """Reference for ``ground_theory``: every substitution over the domain
    is folded, with nothing pruned."""
    formulas, provenance = [], {}
    for phi in theory.formulas:
        names, matrix = closure_prefix(phi)
        values = universe.domain.values if names else ()
        for combo in itertools.product(values, repeat=len(names)):
            sub = {n: Val(v) for n, v in zip(names, combo)}
            instance = simplify(substitute(matrix, sub), universe)
            if instance == TOP or instance in provenance:
                continue
            formulas.append(instance)
            provenance[instance] = (phi, dict(zip(names, combo)))
            universe.register_intsets(instance)
    return tuple(formulas), provenance


def _compare_groundings(programs, bounds):
    mismatches = []
    for text in programs:
        theory = parse_program(text)
        ground = ground_theory(theory, build_universe(theory, bounds))
        universe = build_universe(theory, bounds)
        formulas, provenance = _every_substitution(theory, universe)
        if (ground.formulas, ground.provenance, ground.universe.intsets) != (
            formulas, provenance, universe.intsets
        ):
            mismatches.append(text)
    assert mismatches == []


# Guards that define a variable, only prune, or are no guards at all: a
# value outside the domain, a variable named before the one its term
# reads, defined variables out of name order, two equalities that could
# each define the other variable, an equality with no variable side, an
# equality under ``not``, in a ``;`` and in a head, a Herbrand term, a set
# term, a comparison, a constraint and an undefined value.
GUARD_SHAPES = [
    "p(1). p(2). q(Y) :- p(X), Y = X + 1.",
    "p(1). p(2). q(X) :- p(Y), X = Y + 1.",
    "p(1). p(2). q(A, B, C) :- p(C), p(B), A = B + C.",
    "p(1). p(2). q(A, B) :- p(B), A = 3 - B.",
    "p(1). p(2). q(X, Y) :- p(X), p(Y), X = Y + 1, Y = X - 1.",
    "p(1). p(2). q(X, Y) :- p(X), p(Y), X + Y = 3.",
    "p(1). p(2). q(Y) :- p(X), not Y = X + 1.",
    "p(1). p(2). q(Y) :- p(X), (Y = X + 1 ; Y = X).",
    "p(1). p(2). q(2). Y = X + 1 :- p(X), q(Y).",
    "p(a). p(f(a)). q(Y) :- p(X), Y = f(X).",
    "r(1). q(S) :- S = {X : r(X)}, p(S).",
    "p(1). p(2). q(X, Y) :- p(X), p(Y), X < Y.",
    "p(1). p(2). q(1). :- p(X), q(Y), X = Y + 1.",
    "p(1). p(2). q(Y) :- p(X), Y = X / 0.",
]


def test_guarded_grounding_matches_every_substitution_on_generated_programs():
    _compare_groundings(_generated(random_gz_program, 26), GENERATOR_BOUNDS)
    _compare_groundings(_generated(random_zero_rank_program, 27), ZERO_RANK_BOUNDS)


def test_guarded_grounding_matches_every_substitution_on_fixed_programs():
    _compare_groundings(FALLBACK + FAST + BINDING_SHAPES + GUARD_SHAPES, FIXED_BOUNDS)
    _compare_groundings(JOINS, JOIN_BOUNDS)
    _compare_groundings(
        ["p(a). p(f(a)). q(Y) :- p(X), Y = f(X)."], FIXED_BOUNDS.with_(max_herbrand_depth=1)
    )
    _compare_groundings([p.read_text() for p in sorted(PROGRAMS.glob("*.lp"))], FIXED_BOUNDS)


def _chain_matrix_substitutions(text, bounds):
    """The models ``gz_stable_models`` gives ``text`` and how many times
    ``ground_theory`` substituted its rule's matrix."""
    _, matrix = closure_prefix(parse_program(text).formulas[1])
    calls = []

    def counted(node, sub, original=ground.substitute):
        if node == matrix:
            calls.append(sub)
        return original(node, sub)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ground, "substitute", counted)
        models = _gz(text, bounds)
    return models, len(calls)


# at 800, the 641,601 pairs of X and Y are past the default instance_cap;
# a defined variable named before the one its term reads binds all the same
@pytest.mark.parametrize(
    "text, n",
    [
        (CHAIN, 200),
        (CHAIN, 400),
        (CHAIN, 800),
        ("p(0). p(X) :- p(Y), X = Y + 1.", 200),
        ("p(0). p(A) :- p(B), A = B + 1.", 200),
    ],
)
def test_gz_grounds_the_chain_in_linear_substitutions(text, n):
    models, substituted = _chain_matrix_substitutions(text, ints(n + 1))
    assert models == [{atom("p", i) for i in range(n + 1)}]
    assert substituted <= 2 * (n + 1)


def test_instance_cap_counts_the_values_a_pruning_guard_tries():
    # one substitution survives the guard, but 21 + 21 * 21 values are tried
    theory = parse_program("p(0). q(X, Y) :- p(X), p(Y), X + Y = 40.")
    with pytest.raises(DomainLimitError, match="more than 300 instances of") as err:
        ground_theory(theory, build_universe(theory, ints(21).with_(instance_cap=300)))
    assert err.value.bound == "instance_cap"
    ground = ground_theory(theory, build_universe(theory, ints(21)))
    assert ground.formulas == _every_substitution(theory, build_universe(theory, ints(21)))[0]


def test_an_equality_step_meets_its_values_in_value_key_order():
    # the possible sums -2, -1, 0 and 1 of {-2, 1} do not iterate in order
    # as a set: hash(-1) == hash(-2)
    theory = parse_program("q(-2). q(1). p(N) :- N = sum{X : q(X)}.")
    bounds = DomainBounds(int_min=-4, int_max=4, max_herbrand_depth=0)
    instantiation = solver._Instantiation(theory, build_universe(theory, bounds))
    instantiation.run()
    (source,) = [source for source, *_ in instantiation._sources if source.names]
    assert [sub["N"].value for sub in instantiation._substitutions(source)] == [-2, -1, 0, 1]


def _assert_closed(text, bounds):
    """One naive round after the semi-naive fixpoint adds no atom and no
    instance, and each set term's candidates are those of a full
    enumeration."""
    theory = parse_program(text)
    instantiation = solver._Instantiation(theory, build_universe(theory, bounds))
    atoms = instantiation.run()
    instantiation._values.clear()
    instantiation._sat.clear()
    for phi in instantiation.ground.formulas:
        instantiation._collect_heads(phi)
    assert instantiation.atoms == atoms, text
    for source, *_ in instantiation._sources:
        for sub in instantiation._substitutions(source):
            assert tuple(sub[n] for n in source.names) in source.done, text
    for iset, (source, _) in instantiation._set_sources.items():
        subs = instantiation._substitutions(source)
        full = [source.done[tuple(sub[n] for n in iset.bound)] for sub in subs]
        assert Counter(full) == Counter(instantiation.set_candidates(iset)), text


def test_semi_naive_fixpoint_is_closed_on_generated_gz_programs():
    for text in _generated(random_gz_program, 20):
        _assert_closed(text, GENERATOR_BOUNDS)


def test_semi_naive_fixpoint_is_closed_on_generated_zero_rank_programs():
    for text in _generated(random_zero_rank_program, 21):
        _assert_closed(text, ZERO_RANK_BOUNDS)


def test_semi_naive_fixpoint_is_closed_on_fixed_programs():
    for text in FALLBACK + FAST + BINDING_SHAPES:
        _assert_closed(text, FIXED_BOUNDS)
    for text in JOINS:
        _assert_closed(text, JOIN_BOUNDS)


def test_chain_fixpoints_do_each_piece_of_work_once():
    """On a chain of 101 atoms: 100 substitutions of the rule, heads
    collected and least-model bodies tested about once per atom.  The
    chain's one leaf is closed, so the least model runs only with the full
    checks."""
    substitutions, collected, tested, depth = [], [], [], [0]
    rule = parse_program(CHAIN).formulas[1]

    def enumerated(self, source, *args, original=solver._Instantiation._substitutions):
        out = original(self, source, *args)
        if source.subject == rule:
            substitutions.extend(out)
        return out

    def collect(self, phi, original=solver._Viability._collect_heads):
        if not depth[0]:
            collected.append(phi)
        depth[0] += 1
        try:
            return original(self, phi)
        finally:
            depth[0] -= 1

    def least(facts, rules, here, universe, original=solver.least_model):
        def counting(atoms):
            holds = here(atoms)
            return lambda body: tested.append(body) or holds(body)

        return original(facts, rules, counting, universe)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver._Instantiation, "_substitutions", enumerated)
        patch.setattr(solver._Viability, "_collect_heads", collect)
        patch.setattr(solver, "least_model", least)
        report = find_stable_models(parse_program(CHAIN), ints(101), full_checks=True)
    assert report.atom_sets() == [frozenset(atom("p", i) for i in range(101))]
    assert len(substitutions) == 100
    assert len(collected) <= 2 * 101
    assert 0 < len(tested) <= 2 * 101


def test_instance_cap_counts_substitutions_across_rounds():
    # one substitution per round, 60 in all
    with pytest.raises(DomainLimitError) as err:
        find_stable_models(parse_program(CHAIN), ints(61).with_(instance_cap=20))
    assert err.value.bound == "instance_cap"
    assert "more than 20 instances of 'p(Y) :- p(X), Y = X + 1.'" in str(err.value)


def test_set_term_with_a_free_variable_keeps_the_reachable_witnesses():
    text = "r(1). q(2,1). p(Y, N) :- r(Y), N = count{X : q(X, Y)}."
    ((atoms, sigma),) = _eq(text, FIXED_BOUNDS)
    ((whole_atoms, whole_sigma),) = _whole(text, FIXED_BOUNDS)
    assert atoms == whole_atoms
    assert atom("p", 1, 1) in atoms
    assert sigma.funcs == whole_sigma.funcs
    assert {str(s) for s in sigma.sets} == {"{X : q(X, 1)}"}
    assert sigma.sets == {s: v for s, v in whole_sigma.sets.items() if s in sigma.sets}
    assert "{X : q(X, 2)}" in {str(s) for s in whole_sigma.sets}


def test_instance_cap_counts_the_substitutions_enumerated():
    bounds = DomainBounds(int_min=1, int_max=4, instance_cap=100)
    theory = parse_program(P1)
    with pytest.raises(DomainLimitError) as err:
        ground_theory(theory, build_universe(theory, bounds))
    assert err.value.bound == "instance_cap"
    assert len(find_stable_models(theory, bounds).models) == 1
    with pytest.raises(DomainLimitError) as err:
        find_stable_models(parse_program(P1 + "s(X) :- not p(X)."), bounds)
    assert err.value.bound == "instance_cap"
    assert "more than 100 instances of" in str(err.value)


def test_unbounded_head_instances_are_capped_by_instance_cap():
    # 13 members overflow the subset cap, so the head ranges over the domain
    theory = parse_program(
        " ".join(f"q({i})." for i in range(13)) + " r(S) :- S = {1}. p({X : q(X)})."
    )
    bounds = DomainBounds(
        int_min=0, int_max=12, max_tuple_arity=1, max_set_card=6, max_herbrand_depth=0
    )
    with pytest.raises(DomainLimitError) as err:
        find_stable_models(theory, bounds.with_(instance_cap=4000))
    assert err.value.bound == "instance_cap"
    assert "head 'p({X : q(X)})' ranges over 6489 value tuples" in str(err.value)
    with pytest.raises(DomainLimitError, match=r"6489 undecided atoms .*\(limit: atom_cap\)"):
        find_stable_models(theory, bounds)
    # the whole-domain candidates of a set term and applications of a
    # declared function to a value that varies, capped the same way; the
    # 14 x 14 values of two counts pass the value cap, so the application
    # covers the domain (15 values)
    pair_set = parse_program("q(1, 2). p :- count{(X, Y) : q(X, Y)} >= 1.")
    with pytest.raises(DomainLimitError) as err:
        gz_stable_models(pair_set, bounds.with_(instance_cap=100))
    assert str(err.value) == (
        "variable X, Y of {(X, Y) : q(X, Y)} ranges over 169 value tuples (limit: instance_cap)"
    )
    applied = parse_program(
        "#function f/1 : {a; b}. "
        + " ".join(f"q({i}). r({i})." for i in range(13))
        + " p :- f(count{X : q(X)} + count{Y : r(Y)}) = a."
    )
    with pytest.raises(DomainLimitError) as err:
        find_stable_models(applied, bounds.with_(instance_cap=14))
    assert str(err.value) == (
        "application 'f(count{X : q(X)} + count{Y : r(Y)})' ranges over 15 value tuples"
        " (limit: instance_cap)"
    )
    # one count of 13 members stays exact: an application per value it can
    # take inside the integers, 0 to 12
    applied = parse_program(
        "#function f/1 : {a; b}. "
        + " ".join(f"q({i})." for i in range(13))
        + " p :- f(count{X : q(X)}) = a."
    )
    with pytest.raises(DomainLimitError) as err:
        find_stable_models(applied, bounds.with_(instance_cap=14))
    assert str(err.value) == "27 assignment candidates over 13 applications (limit: instance_cap)"


# Declared-function applications that only dropped rules mention add no
# assignment candidates.
DEAD_APPLICATIONS = [
    "#function f/1 : {a; b}. p(X) :- q(X), f(X) = a. r(1).",
    "#function f/0 : {a; b}. p(1) :- q(1), f = a. r(1).",
]


@pytest.mark.parametrize("text", DEAD_APPLICATIONS)
def test_sigma_candidates_come_from_the_search_theory(text):
    theory = parse_program(text)
    bounds = DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0)
    whole = solve_ground(ground_theory(theory, build_universe(theory, bounds)))
    for report in (whole, find_stable_models(theory, bounds)):
        assert report.stats.candidates == 1
        assert [(m.atoms, m.sigma.funcs) for m in report.models] == [({atom("r", 1)}, {})]


APPLIED_COUNT = "#function f/1 : {a; b}. q(1). p :- f(count{X : q(X)}) = a."


def _models_and_candidates(theory, bounds):
    whole = solve_ground(ground_theory(theory, build_universe(theory, bounds)))
    return [
        ([(m.atoms, m.sigma.funcs, m.sigma.sets) for m in r.models], r.stats.candidates)
        for r in (whole, find_stable_models(theory, bounds))
    ]


def test_an_application_covers_the_values_its_argument_can_take():
    # count{X : q(X)} is 0 or 1, so f gets 2 applications, not one per
    # domain value (13 at the defaults: 3^13 assignments)
    theory = parse_program(APPLIED_COUNT)
    for models, candidates in _models_and_candidates(theory, DomainBounds(max_herbrand_depth=0)):
        assert [(atoms, funcs) for atoms, funcs, _ in models] == [({atom("q", 1)}, {})]
        assert candidates == 2 * 3**2


def test_the_application_cover_keeps_the_whole_domain_models():
    theory = parse_program(APPLIED_COUNT)
    bounds = DomainBounds(int_max=2, max_herbrand_depth=0)
    narrow = _models_and_candidates(theory, bounds)
    with pytest.MonkeyPatch.context() as patch:
        # every possible-value product widened: the whole-domain cover
        patch.setattr(_Viability, "_combos", lambda self, terms: _TOP_MARK)
        wide = _models_and_candidates(theory, bounds)
    assert [models for models, _ in narrow] == [models for models, _ in wide]
    assert [candidates for _, candidates in wide] == [2 * 3**5] * 2
    assert [candidates for _, candidates in narrow] == [2 * 3**2] * 2


APPLIED_IN_SET = "#function f/1 : {a; b}. q(1). p :- count{X : q(X), f(X) = a} >= 1."


def test_an_application_in_a_set_term_covers_only_its_instances():
    # f(X) under the set term's X is read through the instances, here the
    # one application f(1), not one per domain value (3^13 assignments)
    theory = parse_program(APPLIED_IN_SET)
    for models, candidates in _models_and_candidates(theory, DomainBounds(max_herbrand_depth=0)):
        assert [(atoms, funcs) for atoms, funcs, _ in models] == [({atom("q", 1)}, {})]
        assert candidates == 2 * 3


APPLIED_UNDER_QUANTIFIER = [
    "#function f/1 : {a; b}. q(1). p :- exists X (q(X), f(X) = a).",
    "#function f/1 : {a; b}. q(1). p :- forall X (q(X) -> f(X) = a).",
]
QUANTIFIER_BOUNDS = [
    DomainBounds(max_herbrand_depth=0),
    DomainBounds(int_max=2, max_herbrand_depth=0),
]


@pytest.mark.parametrize("text", APPLIED_UNDER_QUANTIFIER)
def test_an_application_under_a_quantifier_covers_only_its_possible_instances(text):
    # f(X) under the quantifier's X is read through the instances, and only
    # q(1) can hold, so f(1) is the one application (3^13 assignments at
    # the defaults, 3^5 at ints 0..2, if f(X) covered the domain)
    theory = parse_program(text)
    for bounds in QUANTIFIER_BOUNDS:
        for models, candidates in _models_and_candidates(theory, bounds):
            assert [(atoms, funcs) for atoms, funcs, _ in models] == [({atom("q", 1)}, {})]
            assert candidates == 2 * 3


def test_an_application_under_a_quantifier_keeps_the_function_choice_models():
    theory = parse_program(APPLIED_UNDER_QUANTIFIER[0] + " f(1) = a ; f(1) = b.")
    f1 = ("f", (1,))
    for bounds in QUANTIFIER_BOUNDS:
        for models, candidates in _models_and_candidates(theory, bounds):
            assert [(atoms, funcs) for atoms, funcs, _ in models] == [
                ({atom("p"), atom("q", 1)}, {f1: HTerm("a")}),
                ({atom("q", 1)}, {f1: HTerm("b")}),
            ]
            assert candidates == 2 * 3


def test_the_quantifier_instances_keep_the_whole_domain_models():
    theory = parse_program(APPLIED_UNDER_QUANTIFIER[0] + " f(1) = a ; f(1) = b.")
    bounds = DomainBounds(int_max=2, max_herbrand_depth=0)
    narrow = _models_and_candidates(theory, bounds)
    with pytest.MonkeyPatch.context() as patch:
        # the scan walks into quantifiers and implications, skips nothing
        # and covers f(X) over the whole domain
        for name in ("Forall", "Exists", "Implies"):
            patch.setattr(solver, name, type("NotRead", (), {}))
        wide = _models_and_candidates(theory, bounds)
    assert [models for models, _ in narrow] == [models for models, _ in wide]
    assert [candidates for _, candidates in wide] == [2 * 3**5] * 2
    assert [candidates for _, candidates in narrow] == [2 * 3] * 2


def test_the_set_term_instances_keep_the_whole_domain_models():
    theory = parse_program(APPLIED_IN_SET)
    bounds = DomainBounds(int_max=2, max_herbrand_depth=0)
    narrow = _models_and_candidates(theory, bounds)
    with pytest.MonkeyPatch.context() as patch:
        # the scan walks into set terms and covers f(X) over the whole domain
        patch.setattr(solver, "IntSet", type("NoSetTerm", (), {}))
        wide = _models_and_candidates(theory, bounds)
    assert [models for models, _ in narrow] == [models for models, _ in wide]
    assert [candidates for _, candidates in wide] == [2 * 3**5] * 2
    assert [candidates for _, candidates in narrow] == [2 * 3] * 2


def test_gz_evaluates_each_aggregate_once_per_candidate():
    asked, computed = set(), []
    with pytest.MonkeyPatch.context() as patch:

        def recorded(atoms, agg, universe, memo=None, original=gz._cl_aggregate):
            if memo is not None:
                asked.add((atoms, agg))
            return original(atoms, agg, universe, memo)

        def counted(*args, original=gz.aggregate_eval):
            computed.append(args)
            return original(*args)

        patch.setattr(gz, "_cl_aggregate", recorded)
        patch.setattr(gz, "aggregate_eval", counted)
        assert _gz(P4, FIXED_BOUNDS) == [{atom("p", "a"), atom("p", "b")}]
    assert asked
    assert len(computed) == len(asked)


def test_viability_cycle_guard_over_approximates():
    theory = parse_program("p(1).")
    viability = _Viability(ground_theory(theory, build_universe(theory, FIXED_BOUNDS)))
    seen = []
    compute = viability._possible_values

    def reentrant(term):
        seen.append(viability.possible_values(term))
        return compute(term)

    viability._possible_values = reentrant
    assert viability.possible_values(Num(1)) == {1}
    assert seen == [_TOP_MARK]


POOL_BOUNDS = DomainBounds(int_min=-4, int_max=4, max_herbrand_depth=0)

# A set term over the ``p``/1 or ``q``/2 facts; ``X + 1`` is undefined at a
# constant and past ``int_max``.
POOL_HEADS = ["{X : p(X)}", "{(X, Y) : q(X, Y)}", "{X + 1 : p(X)}"]


def _pool_program(values, head):
    """Facts over ``values`` (pairs of them for ``q``) and a rule that
    mentions ``head``, so the grounding registers it."""
    facts = " ".join(f"p({v})." for v in values)
    facts += " " + " ".join(f"q({v}, {w})." for v, w in zip(values, values[1:] + values[:1]))
    return f"{facts} t :- count{head} >= 0."


def _subset_values(iset, viability):
    """The reference: for each aggregate, ``aggregate_eval`` on every
    subset of the possible members, plus undefined when a member's head
    can be."""
    universe = viability.universe
    pool, undefined = set(), False
    for head, body in universe.intset_candidates(iset):
        if interp.static_atom(body, universe) in viability.atoms:
            values = tuple(interp.eval_term(universe.static, T, t) for t in head)
            if any(v is UNDEF for v in values):
                undefined = True
            else:
                pool.add(values)
    subsets = [
        FinSet(c) for k in range(len(pool) + 1) for c in itertools.combinations(pool, k)
    ]
    out = {}
    for name in ("count", "sum", "max", "min"):
        values = {interp.aggregate_eval(name, s, POOL_BOUNDS) for s in subsets}
        out[name] = frozenset(values | {UNDEF} if undefined else values)
    return out


def _pools():
    """Member values up to 16 of them, negative weights and constants mixed
    in, so a subset sum can fall below zero and a member can be no integer."""
    rng = random.Random(31)
    atoms = [*range(-6, 7), "a", "b", "c"]
    yield []  # no member at all
    for k in (7, 8, 12, 13):  # around the old caps: 2^7 extensions and 12 members
        yield list(range(1, k + 1))
        yield [*range(-k // 2, k - k // 2 - 1), "a"]
    yield atoms
    for _ in range(150):
        yield rng.sample(atoms, rng.randint(0, 9))


def _holding_values(name, certain, optional):
    """The reference with certain members: ``aggregate_eval`` on every
    extension that holds the member tuples ``certain`` and any of
    ``optional``."""
    return {
        interp.aggregate_eval(name, FinSet((*certain, *extra)), POOL_BOUNDS)
        for k in range(len(optional) + 1)
        for extra in itertools.combinations(optional, k)
    }


def _read_values(name, certain, optional):
    """``ground.aggregate_values`` on the same members, as values."""
    weights = [[ground.member_weight(name, head) for head in part] for part in (certain, optional)]
    bits, undefined = ground.aggregate_values(name, *weights, POOL_BOUNDS)
    low, high = POOL_BOUNDS.int_min, POOL_BOUNDS.int_max
    values = {v for v in range(low, high + 1) if bits >> (v - low) & 1}
    assert bits >> (high - low + 1) == 0
    return values | {UNDEF} if undefined else values


def test_aggregate_values_are_those_of_every_extension():
    checked = Counter()
    rng = random.Random(33)
    for values in _pools():
        for head in POOL_HEADS:
            theory = parse_program(_pool_program(values, head))
            viability = _Viability(ground_theory(theory, build_universe(theory, POOL_BOUNDS)))
            viability.run()
            (iset,) = viability.universe.intsets
            for name, expected in _subset_values(iset, viability).items():
                assert viability.possible_values(EApp(name, (iset,))) == expected, (values, head)
                checked[UNDEF in expected] += 1
        # certain members too, at most 8 of the others optional
        pairs = list(zip(values, values[1:] + values[:1]))
        for members in ([(v,) for v in values], pairs):
            certain = rng.sample(members, rng.randint(max(0, len(members) - 8), len(members)))
            optional = [m for m in members if m not in certain]
            for name in ("count", "sum", "max", "min"):
                expected = _holding_values(name, certain, optional)
                assert _read_values(name, certain, optional) == expected, (name, certain, optional)
                checked["certain", bool(certain), UNDEF in expected] += 1
    # exact with and without an undefined value, with and without certain members
    assert len(checked) == 6 and min(checked.values()) > 50


def _subset_searches(text, bounds):
    """Names of the subset searches that solving ``text`` ran."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((solver, "_countermodel_search"), (gz, "_smaller_model_search")):

            def counted(*args, original=getattr(module, name), name=name):
                calls.append(name)
                return original(*args)

            patch.setattr(module, name, counted)
        _eq(text, bounds)
        if gz.is_gz_theory(parse_program(text))[0]:
            _gz(text, bounds)
    return calls


@pytest.mark.parametrize("text", FALLBACK)
def test_fallback_shapes_take_the_subset_search(text):
    assert _subset_searches(text, FIXED_BOUNDS)


@pytest.mark.parametrize("text", FAST)
def test_rule_shapes_take_the_least_model(text):
    assert _subset_searches(text, FIXED_BOUNDS) == []


def test_chain_is_decided_by_the_lower_bound():
    report = find_stable_models(
        parse_program(CHAIN), DomainBounds(int_min=0, int_max=14, max_herbrand_depth=0)
    )
    assert report.stats.candidates == 1
    assert report.atom_sets() == [frozenset(atom("p", i) for i in range(15))]


def test_lower_bound_holds_what_every_candidate_forces():
    theory = parse_program(
        "d(1). a(1) :- d(1), not b(1). b(1) :- d(1), not a(1). c(1) :- d(1), not e(1)."
    )
    ground = ground_theory(theory, build_universe(theory, FIXED_BOUNDS))
    assert lower_bound(ground, relevant_atoms(ground)) == {atom("d", 1), atom("c", 1)}


def even_choice(n):
    """``n`` independent even negation loops: 2^n stable models."""
    return "a(X) :- d(X), not b(X). b(X) :- d(X), not a(X).\n" + " ".join(
        f"d({i})." for i in range(n)
    )


def ints(n):
    return DomainBounds(int_min=0, int_max=n - 1, max_herbrand_depth=0)


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_a_falsum_formula_ends_the_search_before_it_starts(engine):
    # the nineteen loops alone would exceed ``atom_cap`` (below), so only
    # the falsum shortcut answers
    answer = engine(parse_program(even_choice(19) + " :- #true."), ints(19))
    assert _models(answer) == []


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_atom_cap_counts_undecided_atoms(engine):
    # nineteen loops of two leaves each combine into 2^19 leaves; the
    # search exits once the root and each loop's two values are tightened
    with counted_bounds() as calls, pytest.raises(DomainLimitError) as err:
        engine(parse_program(even_choice(19)), ints(19))
    assert err.value.bound == "atom_cap"
    assert "19 parts of 38 undecided atoms have more than 2^18 leaves" in str(err.value)
    assert len(calls) <= 2 * 19 + 1


def _leaves(engine, text, bounds):
    """The answer of ``engine`` and the there-worlds its search tested or
    accepted as closed."""
    tested = []

    def counted(propagation, stable_in, accept=None, original=search.search_stable):
        def counting_in(theory):
            stable = stable_in(theory)

            def count(there):
                tested.append(there)
                return stable(there)

            return count

        def counting_accept(theory, there):
            tested.append(there)
            return accept(theory, there)

        return original(propagation, counting_in, accept and counting_accept)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "search_stable", counted)
        patch.setattr(gz, "search_stable", counted)
        answer = engine(parse_program(text), bounds)
    return answer, tested


def test_branching_tests_one_leaf_per_choice_model():
    report, tested = _leaves(find_stable_models, even_choice(9), ints(9))
    assert len(report.models) == 512
    assert report.stats.candidates == len(tested) == 512
    models, tested = _leaves(gz_stable_models, even_choice(9), ints(9))
    assert len(models) == len(tested) == 512


LEAF_CHECKS = [
    (gz, "cl_satisfies"),
    (gz, "reduct"),
    (gz, "_has_smaller_model"),
    (gz, "least_model"),
    (solver, "find_countermodel"),
    (solver, "least_model"),
]


@contextmanager
def counted_leaf_checks():
    """The calls of each engine's leaf checks, by name."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for module, name in LEAF_CHECKS:

            def counted(*args, original=getattr(module, name), name=name):
                calls[name] += 1
                return original(*args)

            patch.setattr(module, name, counted)
        yield calls


@pytest.mark.parametrize(
    "text, bounds, models",
    [
        (even_choice(9), ints(9), 512),
        (CHAIN, ints(101), 1),
        (P1, DomainBounds(int_min=1, int_max=4), 1),
    ],
    ids=["choice", "chain", "p1"],
)
def test_closed_leaves_take_no_leaf_check(text, bounds, models):
    theory = parse_program(text)
    with counted_leaf_checks() as calls:
        report = find_stable_models(theory, bounds)
        if gz.is_gz_theory(theory)[0]:  # p1's set equalities are outside the fragment
            assert gz_stable_models(theory, bounds) == report.atom_sets()
    assert calls == Counter()
    assert report.stats.candidates == len(report.models) == models


@pytest.mark.parametrize("text", [CLOSED[0], COUNT0], ids=["fact-constraint", "count0"])
def test_a_root_conflict_ends_the_gz_solve_without_a_leaf(text):
    # at ints 0..3 count0's root lower bound holds p(a), which no support
    # reaches; the empty set would be a leaf, and not a model
    theory = parse_program(text)
    universe = build_universe(theory, GENERATOR_BOUNDS)
    propagation = search._Propagation(ground_theory(theory, universe))
    assert propagation.root is None
    assert gz._gz_relevant_atoms(propagation) == frozenset()
    with counted_leaf_checks() as calls, counted_leaves() as leaves:
        assert _gz(text, GENERATOR_BOUNDS) == _gz_checked(text, GENERATOR_BOUNDS) == []
    assert calls == leaves == Counter()


def test_cross_check_takes_both_engines_checks_at_every_leaf(tmp_path, capsys):
    # the closed leaves of an exact search would otherwise answer through
    # one shared verdict, and the harness would compare it with itself
    program = tmp_path / "choice.lp"
    program.write_text(even_choice(4))
    with counted_leaf_checks() as calls:
        result = gz.cross_check(parse_program(even_choice(4)), ints(4))
        assert result.agree and len(result.gz_models) == 16
        assert calls["find_countermodel"] == calls["_has_smaller_model"] == 16
        calls.clear()
        assert cli.main(["solve", str(program), "--mode", "both", "--max-int", "3"]) == 0
    assert capsys.readouterr().out.endswith("AGREE\n")
    assert calls["find_countermodel"] == calls["_has_smaller_model"] == 16


def test_branching_solves_past_the_old_atom_cap():
    # twenty undecided atoms aborted the mask enumeration
    assert len(find_stable_models(parse_program(even_choice(10)), ints(10)).models) == 1024
    assert len(gz_stable_models(parse_program(even_choice(10)), ints(10))) == 1024
    with mask_search(), pytest.raises(DomainLimitError, match="20 undecided atoms"):
        find_stable_models(parse_program(even_choice(10)), ints(10))


def _models(answer):
    return getattr(answer, "models", answer)


def _search_work(engine, n):
    """How many times solving ``even_choice(n)`` with the full checks
    calls ``atom_key`` and classifies a formula for a rule view
    (``rules._place``)."""
    counts = Counter()

    def counted(name, original):
        def call(*args):
            counts[name] += 1
            return original(*args)

        return call

    with pytest.MonkeyPatch.context() as patch:
        key = counted("atom_key", interp.atom_key)
        for module in (interp, search, solver, gz):
            patch.setattr(module, "atom_key", key)
        patch.setattr(rules, "_place", counted("place", rules._place))
        answer = engine(parse_program(even_choice(n)), ints(n), full_checks=True)
        assert len(_models(answer)) == 2**n
    return counts


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_search_work_grows_with_atoms_and_formulas_not_leaves(engine):
    # even_choice(n) has 3n atoms, 3n ground formulas and 2^n leaves; the
    # numbering sorts the atoms once, and the equilibrium engine
    # classifies each formula once per search (GZ classifies each leaf's
    # reduct anew)
    for n in (6, 8, 10):
        counts = _search_work(engine, n)
        assert counts["atom_key"] <= 3 * n
        if engine is find_stable_models:
            assert counts["place"] <= 6 * n + 1


# perfbench's ``sets`` twin for the constants 1 and 2
COUNT_TWIN = "r(1). r(2). q(1). q(2) :- count{X : r(X)} = C, pc(C). pc(C) :- count{X : q(X)} = C."


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_a_count_twin_takes_one_leaf(engine):
    answer, tested = _leaves(engine, COUNT_TWIN, DomainBounds(int_min=1, int_max=4))
    model = {atom("r", 1), atom("r", 2), atom("q", 1), atom("pc", 1)}
    assert [getattr(m, "atoms", m) for m in _models(answer)] == [model]
    assert tested == [model]


def _loops(n):
    """Even negation loops ``a``/``b`` over ``d(1..n)``."""
    return "a(X) :- d(X), not b(X). b(X) :- d(X), not a(X). " + " ".join(
        f"d({i})." for i in range(1, n + 1)
    )


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_a_constant_member_undefines_a_sum_at_every_leaf(engine):
    # with a(z) in, the sum is undefined and the constraint holds vacuously
    # (16 models); with w in, a(1..4) must sum to 4: {4} or {1, 3}
    text = _loops(4) + " a(z) :- not w. w :- not a(z). :- w, sum{X : a(X)} != 4."
    answer, tested = _leaves(engine, text, ints(11))
    assert len(_models(answer)) == len(tested) == 18


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_a_certain_constant_member_closes_the_root(engine):
    # a(z) is a fact, so the sum is undefined and its ``not`` holds throughout
    text = _loops(3) + " a(z). :- not sum{X : a(X)} >= 0."
    answer, tested = _leaves(engine, text, ints(11))
    assert _models(answer) == tested == []


def exactly_two(n):
    """Even negation loops over ``d(1..n)`` of which exactly two ``a`` hold."""
    return _loops(n) + " :- count{X : a(X)} != 2."


@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_exactly_two_visits_at_most_twice_its_models(engine, n):
    answer, tested = _leaves(engine, exactly_two(n), DomainBounds(int_min=0, int_max=n))
    assert len(_models(answer)) == n * (n - 1) // 2
    assert len(tested) <= 2 * len(_models(answer))


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("name", ["max", "min"])
@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_an_extreme_of_two_visits_one_leaf_per_model(engine, name, n):
    # no a at all leaves the extreme undefined, so the constraint holds
    # vacuously; else a(2) is in and a(1) is optional for max, while for
    # min a(1) is out and each of a(3..n) is optional
    text = _loops(n) + f" :- {name}{{X : a(X)}} != 2."
    answer, tested = _leaves(engine, text, DomainBounds(int_min=0, int_max=n))
    assert len(_models(answer)) == len(tested) == (3 if name == "max" else 2 ** (n - 2) + 1)


@pytest.mark.parametrize("text", [P2, COUNT0], ids=["p2", "count0"])
@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_support_settles_a_circular_count_without_a_leaf(engine, text):
    # p(a) is forced at the there-world, but the count then needs p(a) as
    # a member at a here-world that holds only what has other support
    answer, tested = _leaves(engine, text, ZERO_RANK_BOUNDS)
    assert _models(answer) == [] and tested == []


def test_a_count_past_int_max_is_undefined():
    base = {atom("charlie", 0), atom("charlie", 3), atom("charlie", "golf")}
    expected = [base, base | {atom("charlie", "kilo")}]
    assert [atoms for atoms, _ in _eq(UNDEFINED_COUNT, ZERO_RANK_BOUNDS)] == expected
    assert _gz(UNDEFINED_COUNT, ZERO_RANK_BOUNDS) == expected


def test_lower_bound_holds_what_an_aggregate_forces():
    theory = parse_program("d(1). d(2). p :- count{X : d(X)} >= 2.")
    ground = ground_theory(theory, build_universe(theory, FIXED_BOUNDS))
    assert lower_bound(ground, relevant_atoms(ground)) == {atom("d", 1), atom("d", 2), atom("p")}


def split_program(rng):
    """Two to four small ``normal_program`` and ``aggregate_gz_program``
    parts, each with its predicates renamed apart, so that no two share an
    atom; now and then one constraint or aggregate rule joins two of
    them."""
    parts = []
    for i in range(rng.randint(2, 4)):
        text = normal_program(rng, 2, 2) if rng.random() < 0.5 else aggregate_gz_program(rng, rules=2)
        parts.append(re.sub(r"\b([a-z]\w*)\(", rf"\g<1>{i}(", text))
    roll = rng.random()
    if roll < 0.5:
        # unary predicates only: ``e`` takes two arguments
        x, y = (
            rng.choice(sorted(set(re.findall(r"\b([a-z]\w*)\([^,()]*\)", parts[i]))))
            for i in rng.sample(range(len(parts)), 2)
        )
        if roll < 0.25:
            parts.append(f":- {x}(X), {rng.choice(['', 'not '])}{y}(X).")
        else:
            parts.append(f"{x}(0) :- count{{V : {y}(V)}} {rng.choice(['>=', '<', '='])} 1.")
    return "\n".join(parts)


def _leaf_atoms(numbering, mask, closed):
    return numbering.atoms(mask), closed


@contextmanager
def recorded_components():
    """How many components each search that reached the split found."""
    counts = []

    def recorded(propagation, undecided, original=search._Propagation.components):
        parts = original(propagation, undecided)
        counts.append(len(parts))
        return parts

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search._Propagation, "components", recorded)
        yield counts


def test_split_search_matches_joint_checked_and_masks_on_generated_split_programs():
    split = []
    mismatches = []
    for text in _generated(split_program, 33):
        for engine, checked in ((_eq, _eq_checked), (_gz, _gz_checked)):
            with recorded_components() as counts, counted_leaves(_leaf_atoms) as leaves:
                answer = engine(text, GENERATOR_BOUNDS)
            split += counts
            with joint_search(), counted_leaves(_leaf_atoms) as joint_leaves:
                joint = engine(text, GENERATOR_BOUNDS)
            with mask_search():
                masks = engine(text, GENERATOR_BOUNDS)
            same = answer == joint == checked(text, GENERATOR_BOUNDS) == masks
            if not (same and leaves == joint_leaves):
                mismatches.append(text)
    assert mismatches == []
    # many searches split, so the comparison is not vacuous
    assert sum(parts > 1 for parts in split) > 300


def _components(engine, text, bounds):
    """The answer of ``engine`` and how many components each search that
    reached the split found."""
    with recorded_components() as counts:
        answer = engine(parse_program(text), bounds)
    return _models(answer), counts


@contextmanager
def counted_bounds():
    """The lower bounds of the ``bounds`` calls made inside, one per call."""
    calls = []

    def counted(propagation, lower, upper, original=search._Propagation.bounds):
        calls.append(lower)
        return original(propagation, lower, upper)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search._Propagation, "bounds", counted)
        yield calls


def _bounds_calls(engine, text, bounds):
    """The answer of ``engine`` and how many ``bounds`` calls it made."""
    with counted_bounds() as calls:
        answer = engine(parse_program(text), bounds)
    return _models(answer), len(calls)


@pytest.mark.parametrize("n", [5, 8, 12])
@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_each_choice_is_searched_alone(engine, n):
    # the root, then both values of each loop's one decision: 2n + 1 calls
    # where one joint search made 2^(n+1) - 1
    models, calls = _bounds_calls(engine, even_choice(n), ints(n).with_(atom_cap=n))
    assert len(models) == 2**n
    assert calls == 2 * n + 1


def core(n):
    """``n`` free even loops beside a two-atom core that has no model."""
    return even_choice(n) + " zx :- not zy. zy :- not zx. :- zx. :- zy."


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_free_choices_beside_a_core_take_linear_time(engine):
    start = time.perf_counter()
    models, calls = _bounds_calls(engine, core(16), ints(16))
    assert time.perf_counter() - start < 0.1
    assert models == [] and calls == 2 * 16 + 3


def pigeonhole(pigeons, holes):
    """Each pigeon in one hole, at most one pigeon per hole: no model when
    there are more pigeons than holes."""
    return (
        "at(P, H) :- p(P), h(H), not away(P, H). away(P, H) :- p(P), h(H), not at(P, H). "
        "placed(P) :- at(P, H). :- p(P), not placed(P). "
        ":- at(P, H), at(P, K), H < K. :- at(P, H), at(Q, H), P < Q. "
        + " ".join(f"p({i})." for i in range(1, pigeons + 1))
        + " "
        + " ".join(f"h({i})." for i in range(1, holes + 1))
    )


@pytest.mark.parametrize(
    "text, models, parts",
    [
        (pigeonhole(3, 2), 0, 1),
        (pigeonhole(2, 2), 2, 1),
        (even_choice(2) + " :- a(0), a(1).", 3, 1),
        (even_choice(2), 4, 2),
        (core(2), 0, 3),
    ],
    ids=["pigeonhole-3-2", "pigeonhole-2-2", "joined-loops", "loops", "core"],
)
@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_rules_and_constraints_join_components(engine, text, models, parts):
    answer, counts = _components(engine, text, ints(4))
    assert len(answer) == models
    assert counts == [parts]


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_one_component_yields_its_leaves_in_search_order(engine):
    # the joined loops: a(0) decided first, out before in, then a(1)
    answer, tested = _leaves(engine, even_choice(2) + " :- a(0), a(1).", ints(4))
    ds = {atom("d", 0), atom("d", 1)}
    assert tested == [
        ds | {atom("b", 0), atom("b", 1)},
        ds | {atom("a", 1), atom("b", 0)},
        ds | {atom("a", 0), atom("b", 1)},
    ]
    assert [getattr(m, "atoms", m) for m in _models(answer)] == sorted(
        tested, key=lambda m: sorted(map(atom_key, m))
    )


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_only_atoms_a_body_reads_are_branched_on(engine):
    # ``a`` is undecided at the root but no body reads it: the root, then
    # both values of ``p``, after each of which ``bounds`` decides ``a``
    models, calls = _bounds_calls(engine, "a :- p. p :- not q. q :- not p.", ints(1))
    assert len(models) == 2
    assert calls == 3
    # only ``w :- u, t.`` reads ``u``, and the root drops it (``t`` has no
    # support), so the root alone: each subset of ``u`` and ``v`` is a leaf
    models, calls = _bounds_calls(engine, "u ; v.  w :- u, t.", ints(1))
    assert len(models) == 2
    assert calls == 1


# Prints the leaves of the equilibrium engine's search on a program whose
# two undecided atoms, q(2) and r(1), no body reads, so each subset of
# them makes a leaf, in the order of their bits.
_LEAF_SEQUENCE = """
from setasp import DomainBounds, parse_program, search
from setasp.solver import atom_key, find_stable_models, format_atom
original = search.branch_leaves
def printed(propagation):
    for numbering, mask, closed in original(propagation):
        atoms = sorted(numbering.atoms(mask), key=atom_key)
        print("{" + ", ".join(map(format_atom, atoms)) + "}")
        yield numbering, mask, closed
search.branch_leaves = printed
text = "r(2). q(2) :- not {X : q(X)} = {1}, not t. r(1) :- not {X : r(X), not t} = {}."
find_stable_models(parse_program(text), DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0))
"""


def test_leaf_sequence_does_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    printed = {
        subprocess.run(
            [sys.executable, "-c", _LEAF_SEQUENCE],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert printed == {"{q(2), r(1), r(2)}\n{r(1), r(2)}\n{q(2), r(2)}\n{r(2)}\n"}


def twin_chains(n):
    """Two components of ``n`` even loops each, ``a``/``b`` and ``x``/``y``
    over ``d(0..n-1)``, each joined by a constraint that not all of its
    ``a`` (or ``x``) hold: ``n`` decisions and 2^n - 1 models apiece."""
    ds = " ".join(f"d({i})." for i in range(n))
    loops = "".join(
        f"{p}(X) :- d(X), not {q}(X). {q}(X) :- d(X), not {p}(X). "
        f":- {', '.join(f'{p}({i})' for i in range(n))}. "
        for p, q in ("ab", "xy")
    )
    return loops + ds


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_atom_cap_counts_the_decisions_of_every_component(engine):
    # each component takes 5 decisions, under the cap of 9, but their
    # 31 x 31 leaves pass 2^9, and one branch of one joint search takes 10
    theory, bounds = parse_program(twin_chains(5)), ints(5).with_(atom_cap=9)
    for search_kind, message in (
        (nullcontext, "2 parts of 20 undecided atoms have more than 2^9 leaves"),
        (joint_search, "20 undecided atoms need more than 9 decisions on one branch"),
    ):
        with search_kind(), pytest.raises(DomainLimitError) as err:
            engine(theory, bounds)
        assert err.value.bound == "atom_cap"
        assert message in str(err.value)
    answer, counts = _components(engine, twin_chains(5), ints(5).with_(atom_cap=10))
    assert len(answer) == 31 * 31 and counts == [2]


def forced_loops(n):
    """``n`` even loops ``a``/``b`` and ``n`` more ``x``/``y``, each held
    by a constraint on its ``b`` (or ``y``): ``2n`` components of one
    decision and one leaf each, and one model."""
    forced = " ".join(f":- b({i}). :- y({i})." for i in range(n))
    return even_choice(n) + " x(X) :- d(X), not y(X). y(X) :- d(X), not x(X). " + forced


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_atom_cap_bounds_each_component_not_their_sum(engine):
    # twenty components of one decision each; one joint search takes
    # twenty decisions on its one branch
    answer, counts = _components(engine, forced_loops(10), ints(10))
    assert len(answer) == 1 and counts == [20]
    with joint_search(), pytest.raises(DomainLimitError) as err:
        engine(parse_program(forced_loops(10)), ints(10))
    assert "40 undecided atoms need more than 18 decisions on one branch" in str(err.value)


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_a_part_without_leaves_ends_the_split_search(engine):
    # a core without a leaf that comes first in atom order (its atoms c
    # and z around the nineteen loops x/y) ends the split search before
    # any loop is searched; one joint search passes the cap when it must
    # decide z below the loops.  The core after the loops comes too late:
    # their leaves pass 2^18 first.  A core that ends at its first
    # decision, c, ends both searches.
    loops = even_choice(19).replace("a(", "x(").replace("b(", "y(")
    around = (
        loops + " c :- not cc. cc :- not c. z :- not zz. zz :- not z."
        " :- c, z. :- c, not z. :- not c, z. :- not c, not z."
    )
    ending = [
        loops + " c :- not e. e :- not c. :- c. :- e.",
        loops + " c :- not z. z :- not c. :- c. :- z.",
    ]
    with counted_bounds() as calls:
        assert _models(engine(parse_program(around), ints(19))) == []
    assert len(calls) < 19  # no loop is searched
    with pytest.raises(DomainLimitError, match="19 parts of 40 undecided atoms have more than 2"):
        engine(parse_program(core(19)), ints(19))
    for search_kind in (nullcontext, joint_search):
        with search_kind():
            for text in ending:
                assert _models(engine(parse_program(text), ints(19))) == []
    with joint_search():
        for text in (around, core(19)):
            with pytest.raises(DomainLimitError, match="undecided atoms need more than 18"):
                engine(parse_program(text), ints(19))
