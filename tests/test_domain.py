import dataclasses
import itertools
import random

import pytest

from setasp.domain import (
    ActiveDomain,
    DomainBounds,
    build_active_domain,
    build_domain_level,
    needs_set_layer,
)
from setasp.checks import random_zero_rank_program
from setasp.errors import BoundsError, DomainLimitError, SetAspError
from setasp.gz import existential_intro_transform, gz_stable_models, is_gz_theory, random_gz_program
from setasp.parser import parse_program
from setasp.solver import find_stable_models
from setasp.values import EMPTY_SET, FinSet, HTerm, finset, value_key

from conftest import P1, P3, PROGRAMS


NO_INTS = dict(int_min=1, int_max=0)


def test_level_zero_of_singleton_signature():
    theory = parse_program("p(c).")
    bounds = DomainBounds(max_herbrand_depth=0, **NO_INTS)
    assert build_domain_level(theory.signature, bounds, 0) == {HTerm("c")}


def test_level_one_adds_sets_of_tuples():
    theory = parse_program("p(c).")
    bounds = DomainBounds(max_herbrand_depth=0, max_set_card=2, max_tuple_arity=3, **NO_INTS)
    level = build_domain_level(theory.signature, bounds, 1)
    c = HTerm("c")
    for expected in (c, EMPTY_SET, finset([c]), FinSet([(c, c)]), FinSet([(c, c, c)])):
        assert expected in level


def test_level_two_adds_nested_sets():
    theory = parse_program("p(c).")
    bounds = DomainBounds(
        max_herbrand_depth=0, max_set_rank=2, max_set_card=2, max_tuple_arity=2, **NO_INTS
    )
    level = build_domain_level(theory.signature, bounds, 2)
    c = HTerm("c")
    assert finset([finset([c])]) in level
    assert finset([finset([c]), FinSet([(c, c)])]) in level


def test_levels_are_increasing():
    theory = parse_program("p(c).")
    bounds = DomainBounds(
        max_herbrand_depth=0, max_set_rank=2, max_set_card=1, max_tuple_arity=1, **NO_INTS
    )
    previous = build_domain_level(theory.signature, bounds, 0)
    for i in (1, 2):
        level = build_domain_level(theory.signature, bounds, i)
        assert previous <= level
        previous = level


def test_herbrand_depth_bound():
    theory = parse_program("p(s(s(c))).")
    bounds = DomainBounds(max_herbrand_depth=2, **NO_INTS)
    level = build_domain_level(theory.signature, bounds, 0)
    c = HTerm("c")
    assert {c, HTerm("s", (c,)), HTerm("s", (HTerm("s", (c,)),))} == level


def test_explosion_guard_names_the_limit():
    theory = parse_program("p(c). q(d). r(e).")
    bounds = DomainBounds(
        max_herbrand_depth=0, int_min=0, int_max=20, max_set_card=6, max_tuple_arity=3
    )
    with pytest.raises(DomainLimitError) as err:
        build_domain_level(theory.signature, bounds, 1)
    assert err.value.bound == "domain_cap"


# ---------------------------------------------------------------------------
# active domain


@pytest.mark.parametrize(
    "field", ["max_herbrand_depth", "max_set_rank", "max_set_card", "max_tuple_arity"]
)
def test_negative_bound_names_its_field(field):
    with pytest.raises(BoundsError, match=f"{field} must be >= 0, got -1") as err:
        DomainBounds(**{field: -1})
    assert isinstance(err.value, SetAspError)
    assert isinstance(err.value, ValueError)


def test_active_domain_constants_only():
    theory = parse_program("p(a). q(b) :- p(a).")
    bounds = DomainBounds(max_herbrand_depth=0, max_set_rank=0, **NO_INTS)
    active = build_active_domain(theory, bounds)
    assert active.value_set == {HTerm("a"), HTerm("b")}


def test_active_domain_for_recursive_sum_program():
    # base integers plus the one written set; nothing set-layered
    theory = parse_program(P3)
    bounds = DomainBounds(int_min=0, int_max=5, max_herbrand_depth=0)
    active = build_active_domain(theory, bounds)
    expected = set(range(0, 6)) | {EMPTY_SET}
    assert active.value_set == expected
    assert not needs_set_layer(theory)


def test_active_domain_with_equality_against_a_set():
    # oracle: enumerate every finite set of tuples over {1, 2} within bounds
    theory = parse_program(P1)
    bounds = DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0)
    active = build_active_domain(theory, bounds)
    base = {1, 2}
    expected = set(base) | {EMPTY_SET}
    for arity in (1, 2):
        tuples = list(itertools.product(sorted(base), repeat=arity))
        for card in range(1, min(4, len(tuples)) + 1):
            for combo in itertools.combinations(tuples, card):
                expected.add(FinSet(combo))
    assert needs_set_layer(theory)
    assert active.value_set == expected


def test_set_layer_not_triggered_by_aggregate_equality(p2_theory):
    assert not needs_set_layer(p2_theory)


def test_set_layer_triggered_by_predicate_position_flow():
    theory = parse_program("p({1; 2}). q(X) :- p(X).")
    assert needs_set_layer(theory)


def test_full_domain_flag_forces_the_layer(p2_theory):
    bounds = DomainBounds(int_min=0, int_max=1, max_herbrand_depth=0, full_domain=True)
    active = build_active_domain(p2_theory, bounds)
    assert any(isinstance(v, FinSet) for v in active.values)


def test_active_domain_includes_components_of_written_values():
    theory = parse_program("p({7; 9}).")
    bounds = DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0)
    active = build_active_domain(theory, bounds)
    assert finset([7, 9]) in active.value_set
    assert 7 in active.value_set and 9 in active.value_set


# ---------------------------------------------------------------------------
# the program's part of the domain, read once per theory

# small enough that every program here enumerates its whole domain
FACTS_BOUNDS = DomainBounds(int_min=0, int_max=2, max_herbrand_depth=0, max_set_card=2, max_tuple_arity=1)


def _domain_reading(theory, bounds):
    domain = build_active_domain(theory, bounds)
    return domain.values, domain.has_set_layer, domain.rank


def test_a_domain_built_after_solving_equals_one_from_a_fresh_parse():
    rng = random.Random(31)
    texts = [path.read_text() for path in sorted(PROGRAMS.glob("*.lp"))]
    texts += [random_gz_program(rng) for _ in range(300)]
    texts += [random_zero_rank_program(rng) for _ in range(300)]
    layers = set()
    for text in texts:
        theory = parse_program(text)
        try:
            find_stable_models(theory, FACTS_BOUNDS)
            if is_gz_theory(theory)[0]:
                gz_stable_models(theory, FACTS_BOUNDS)
        except SetAspError:
            pass  # the domain was built before the solve gave up
        assert "domain_facts" in vars(theory)
        reading = _domain_reading(theory, FACTS_BOUNDS)
        assert reading == _domain_reading(parse_program(text), FACTS_BOUNDS)
        layers.add(reading[1])
    assert layers == {False, True}  # p1 has the set layer


def test_a_transformed_theory_reads_its_own_domain_facts():
    # q({1}) meets no variable, but its transform compares V0 with {1}
    theory = parse_program("q({1}).")
    assert not build_active_domain(theory, FACTS_BOUNDS).has_set_layer
    transformed = existential_intro_transform(theory, (0, 0, 0))
    assert transformed.formulas != theory.formulas
    assert needs_set_layer(transformed)
    assert build_active_domain(transformed, FACTS_BOUNDS).has_set_layer
    replaced = dataclasses.replace(theory, formulas=transformed.formulas)
    assert build_active_domain(replaced, FACTS_BOUNDS).has_set_layer
    assert not needs_set_layer(theory)


# ---------------------------------------------------------------------------
# the lazy set layer against its own enumeration

# Grid bases are prefixes of this list: a written set first, then its
# member and a constant, so {1} is written and, from two values on, also
# a layer member that ``len`` must count once.
GRID_BASE = [finset([1]), 1, HTerm("a")]
GRID_LIMIT = 5000


def test_lazy_domain_agrees_with_its_enumeration():
    checked = 0
    for rank, card, arity, n in itertools.product(range(3), range(3), range(3), range(4)):
        bounds = DomainBounds(max_set_rank=3, max_set_card=card, max_tuple_arity=arity)
        domain = ActiveDomain(GRID_BASE[:n], bounds, rank)
        if len(domain) > GRID_LIMIT:
            continue
        values = domain.values
        assert list(values) == sorted(values, key=value_key)
        assert len(domain) == len(domain.value_set) == len(values)
        # the next rank, and the same rank one card and one arity wider
        probes = set(values)
        for wider in (bounds, bounds.with_(max_set_card=card + 1, max_tuple_arity=arity + 1)):
            universe = ActiveDomain(GRID_BASE[:n], wider, rank + 1 - (wider is not bounds))
            if len(universe) <= GRID_LIMIT:
                probes.update(universe.values)
        assert [v for v in probes if (v in domain) != (v in domain.value_set)] == []
        checked += len(probes) > len(values)
    assert checked >= 90


def test_set_card_bound_past_the_tuples_enumerates_each_set_once():
    # three 1-tuples make at most 3-element sets, however high the bound
    wide = DomainBounds(max_set_card=10**9, max_tuple_arity=1)
    values = ActiveDomain(GRID_BASE, wide, 1).values
    assert values == ActiveDomain(GRID_BASE, wide.with_(max_set_card=3), 1).values
    assert len(values) == 2 + 2**3


def test_set_layer_is_counted_and_tested_without_enumerating():
    # p1 at the default bounds: millions of sets, none of them built
    domain = build_active_domain(parse_program(P1), DomainBounds())
    assert domain.has_set_layer
    assert len(domain) > DomainBounds().domain_cap
    assert finset([1, 2]) in domain and FinSet([(1, 2), (3, 4)]) in domain
    assert finset([1, 2, 3, 4, 5]) not in domain  # above max_set_card
    assert FinSet([(1, 2, 3)]) not in domain  # above max_tuple_arity
    assert finset([finset([1])]) not in domain  # above max_set_rank
    assert domain._values is None
    with pytest.raises(DomainLimitError, match=r"\(limit: domain_cap\)"):
        domain.values


def test_set_layer_that_adds_no_value_is_no_set_layer():
    # with no members allowed the layer is {}, which P3 already writes
    bounds = DomainBounds(int_min=0, int_max=2, max_herbrand_depth=0, full_domain=True)
    theory = parse_program(P3)
    empty_only = build_active_domain(theory, bounds.with_(max_set_card=0))
    assert not empty_only.has_set_layer
    assert len(empty_only) == 5  # 0..3 and {}
    assert build_active_domain(theory, bounds.with_(max_set_card=1)).has_set_layer
