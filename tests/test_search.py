"""The fast search (lower bound plus least-model minimality check) against
the reference search (facts-only forcing plus subset search)."""

import random
from contextlib import contextmanager

import pytest

from setasp import DomainBounds, parse_program
from setasp import gz, solver
from setasp.checks import random_zero_rank_program
from setasp.errors import DomainLimitError
from setasp.gz import GENERATOR_BOUNDS, gz_stable_models, random_gz_program
from setasp.solver import (
    build_universe,
    find_stable_models,
    ground_theory,
    lower_bound,
    relevant_atoms,
)

from conftest import COUNT0, P1, P2, P3, P4, atom

ZERO_RANK_BOUNDS = DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0)
FIXED_BOUNDS = DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0)

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
]


def _eq(text, bounds):
    return find_stable_models(parse_program(text), bounds).atom_sets()


def _gz(text, bounds):
    return gz_stable_models(parse_program(text), bounds)


@contextmanager
def reference_search():
    """Both engines on facts-only forcing and the subset search."""
    with pytest.MonkeyPatch.context() as patch:
        facts_only = lambda ground, upper: ground.facts  # noqa: E731
        patch.setattr(solver, "lower_bound", facts_only)
        patch.setattr(gz, "lower_bound", facts_only)
        patch.setattr(solver, "find_countermodel", solver._countermodel_search)
        patch.setattr(gz, "_has_smaller_model", gz._smaller_model_search)
        yield


def _compare(programs, engines, bounds):
    fast = [[engine(text, bounds) for engine in engines] for text in programs]
    with reference_search():
        reference = [[engine(text, bounds) for engine in engines] for text in programs]
    mismatches = [text for text, a, b in zip(programs, fast, reference) if a != b]
    assert mismatches == []


def test_fast_search_matches_reference_on_generated_gz_programs():
    rng = random.Random(20)
    programs = [random_gz_program(rng) for _ in range(1000)]
    _compare(programs, (_eq, _gz), GENERATOR_BOUNDS)


def test_fast_search_matches_reference_on_generated_zero_rank_programs():
    rng = random.Random(21)
    programs = [random_zero_rank_program(rng) for _ in range(1000)]
    _compare(programs, (_eq,), ZERO_RANK_BOUNDS)


def test_fast_search_matches_reference_on_fixed_programs():
    _compare(FALLBACK + FAST + [P3], (_eq,), FIXED_BOUNDS)
    gz_programs = [t for t in FALLBACK + FAST if gz.is_gz_theory(parse_program(t))[0]]
    _compare(gz_programs, (_gz,), FIXED_BOUNDS)


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


CHAIN = "p(0). p(Y) :- p(X), Y = X + 1."


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


EVEN_CHOICE = "a(X) :- d(X), not b(X). b(X) :- d(X), not a(X).\n" + " ".join(
    f"d({i})." for i in range(10)
)
TEN_INTS = DomainBounds(int_min=0, int_max=9, max_herbrand_depth=0)


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_atom_cap_counts_undecided_atoms(engine):
    with pytest.raises(DomainLimitError) as err:
        engine(parse_program(EVEN_CHOICE), TEN_INTS)
    assert err.value.bound == "atom_cap"
    assert "20 undecided atoms" in str(err.value)
