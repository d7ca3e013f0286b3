import pytest

from setasp import DomainBounds, parse_program
from setasp.errors import DomainLimitError, RangeDeclarationError, SetAspError
from setasp.interp import H, T, Assignment, HTInterpretation, coherence_closure
from setasp.solver import (
    build_universe,
    check_equilibrium,
    find_stable_models,
    ground_theory,
    models,
    relevant_atoms,
    satisfies,
    solve_ground,
)
from setasp.syntax import (
    BOT,
    TOP,
    Eq,
    Implies,
    IntSet,
    PredAtom,
    Val,
    Var,
    formula_statement,
)
from setasp.values import UNDEF, FinSet, HTerm, finset

from conftest import COUNT0, P1, P2, P3, P4, atom


def solved(text, **bound_args):
    theory = parse_program(text)
    defaults = dict(int_min=0, int_max=3, max_herbrand_depth=0)
    defaults.update(bound_args)
    report = find_stable_models(theory, DomainBounds(**defaults))
    return [frozenset(m.atoms) for m in report.models]


def grounded(text, **bound_args):
    theory = parse_program(text)
    defaults = dict(int_min=0, int_max=3, max_herbrand_depth=0)
    defaults.update(bound_args)
    universe = build_universe(theory, DomainBounds(**defaults))
    return ground_theory(theory, universe)


# ---------------------------------------------------------------------------
# satisfaction


def test_truth_constants():
    ground = grounded("p(a).")
    interp = HTInterpretation.total(ground.universe, Assignment(), frozenset())
    for w in (H, T):
        assert satisfies(interp, w, TOP)
        assert not satisfies(interp, w, BOT)


def test_atom_with_set_argument_found_in_model():
    ground = grounded(P1, int_min=1, int_max=2)
    i1 = frozenset([atom("q", 1), atom("p", finset([1])), atom("r", 1), atom("r", 2)])
    interp = HTInterpretation.total(ground.universe, Assignment(), i1)
    q_set = IntSet(("X",), (Var("X"),), PredAtom("q", (Var("X"),)))
    assert satisfies(interp, T, PredAtom("p", (q_set,)))
    assert models(interp, ground)


def test_diverging_set_blocks_count_at_here_world():
    ground = grounded(P2)
    T_atoms = frozenset([atom("p", "a"), atom("p", "b")])
    H_atoms = frozenset([atom("p", "b")])
    interp = HTInterpretation(ground.universe, Assignment(), Assignment(), H_atoms, T_atoms)
    body = ground.formulas[0].left  # count{X : p(X)} >= 1
    assert satisfies(interp, T, body)
    assert not satisfies(interp, H, body)


def test_models_requires_coherence():
    ground = grounded("p(b).")
    p_set = IntSet(("X",), (Var("X"),), PredAtom("p", (Var("X"),)))
    ground.universe.register_intsets(p_set)
    wrong = HTInterpretation.total(
        ground.universe,
        Assignment(sets={p_set: finset([HTerm("a")])}),
        frozenset([atom("p", "b")]),
    )
    assert not models(wrong, ground)
    assert models(coherence_closure(wrong), ground)


def test_classical_model_that_is_not_stable():
    ground = grounded(P2)
    both = HTInterpretation.total(
        ground.universe, Assignment(), frozenset([atom("p", "a"), atom("p", "b")])
    )
    assert models(both, ground)


# ---------------------------------------------------------------------------
# grounding


def test_grounding_instantiates_set_equality_rule():
    ground = grounded(P1, int_min=1, int_max=2)
    q_set = IntSet(("X",), (Var("X"),), PredAtom("q", (Var("X"),)))
    wanted = Implies(
        Eq(Val(finset([1])), q_set), PredAtom("p", (Val(finset([1])),))
    )
    assert wanted in ground.formulas
    source, substitution = ground.provenance[wanted]
    assert substitution == {"Y": finset([1])}


def test_ground_fact_is_itself():
    ground = grounded("p(b).")
    assert len(ground.formulas) == 1
    (phi,) = ground.formulas
    assert isinstance(phi, PredAtom) and phi.pred == "p"
    assert ground.facts == frozenset([atom("p", "b")])


def test_instance_count_of_aggregate_equality_rule():
    # one instance per domain value for the single closed variable
    ground = grounded("q(Y) :- sum{X : p(X)} = Y.", int_min=0, int_max=5)
    assert len(ground.universe.domain) == 6
    assert len(ground.formulas) == 6


def test_simplification_folds_static_guards():
    # memberships over written sets decide instances at ground time
    ground = grounded("q(Y) :- Y in {1; 2}.", int_min=0, int_max=3)
    statements = sorted(formula_statement(phi) for phi in ground.formulas)
    assert statements == ["q(1).", "q(2)."]


# ---------------------------------------------------------------------------
# relevant atoms


def test_relevant_atoms_follow_support():
    ground = grounded(P2)
    atoms = relevant_atoms(ground)
    assert atoms == {atom("p", "a"), atom("p", "b")}


def test_relevant_atoms_track_aggregate_values():
    ground = grounded(P3, int_min=0, int_max=6)
    atoms = relevant_atoms(ground)
    # subset sums of {2, 3} are the only reachable q-arguments
    assert {a for a in atoms if a[0] == "q"} == {
        atom("q", 0),
        atom("q", 2),
        atom("q", 3),
        atom("q", 5),
    }


def test_relevant_atoms_cover_set_valued_heads():
    ground = grounded(P1, int_min=1, int_max=2)
    atoms = relevant_atoms(ground)
    p_args = {a[1][0] for a in atoms if a[0] == "p"}
    assert finset([1]) in p_args and finset([1, 2]) in p_args


# ---------------------------------------------------------------------------
# stable models


def test_program_one_has_the_unique_set_model():
    assert solved(P1, int_min=1, int_max=2) == [
        frozenset([atom("q", 1), atom("p", finset([1])), atom("r", 1), atom("r", 2)])
    ]


def test_self_referential_count_has_no_stable_model():
    assert solved(P2) == []


def test_recursive_sum_program():
    assert solved(P3, int_min=0, int_max=6) == [
        frozenset([atom("p", 2), atom("p", 3), atom("q", 5)])
    ]


def test_non_circular_count_is_stable():
    assert solved(P4) == [frozenset([atom("p", "a"), atom("p", "b")])]


def test_zero_threshold_still_unstable():
    assert solved(COUNT0) == []


def test_missing_range_declaration_is_reported():
    from setasp.parser import Signature, Theory

    theory = parse_program("p(a).")
    bare = Theory(
        Signature(
            theory.signature.constructors,
            {**theory.signature.evaluables, "f": 0},
            theory.signature.predicates,
        ),
        theory.formulas,
    )
    with pytest.raises(RangeDeclarationError):
        find_stable_models(bare, DomainBounds())


def test_directional_assignment_pins_the_function_value():
    text = """
    #function f/0 : {a; b}.
    f := b.
    p(X) :- f = X.
    """
    assert solved(text) == [frozenset([atom("p", "b")])]


def test_unforced_function_value_is_forgotten_at_the_here_world():
    # without a directional assignment the smaller interpretation that
    # leaves f undefined is always a model, so nothing depends on f
    text = """
    #function f/0 : {a; b}.
    p(X) :- f = X.
    """
    assert solved(text) == [frozenset()]


def _function_models(text):
    theory = parse_program(text)
    report = find_stable_models(theory, DomainBounds(int_min=0, int_max=2, max_herbrand_depth=0))
    return [(m.atoms, m.sigma.funcs) for m in report.models]


def test_every_function_choice_is_a_model():
    # two models on one atom set, told apart only by their function
    # values; ordered by atoms, then by the function facts
    d = {atom("d", 1), atom("d", 2)}
    assert _function_models(
        "#function f/1 : {0; 1}. d(1). d(2). "
        "f(X) := 0 :- d(X), not f(X) = 1. f(X) := 1 :- d(X), not f(X) = 0."
    ) == [
        (d, {("f", (1,)): a, ("f", (2,)): b}) for a in (0, 1) for b in (0, 1)
    ]
    assert _function_models("#function f/0 : {a; b}. f = a ; f = b.") == [
        (set(), {("f", ()): HTerm("a")}),
        (set(), {("f", ()): HTerm("b")}),
    ]


def test_full_domain_agrees_with_active_domain_here():
    shrunk = dict(max_set_card=2, max_tuple_arity=1)
    cases = (
        (P4, shrunk),
        (P2, shrunk),
        (P1, dict(int_min=1, int_max=2, **shrunk)),
    )
    for text, kwargs in cases:
        active = solved(text, **kwargs)
        full = solved(text, full_domain=True, **kwargs)
        assert active == full


# ---------------------------------------------------------------------------
# equilibrium checking


def p1_setup():
    theory = parse_program(P1)
    universe = build_universe(theory, DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0))
    return ground_theory(theory, universe)


def test_second_candidate_is_rejected_with_countermodel():
    ground = p1_setup()
    i2 = frozenset(
        [atom("q", 1), atom("q", 2), atom("p", finset([1, 2])), atom("r", 1), atom("r", 2)]
    )
    total = HTInterpretation.total(ground.universe, Assignment(), i2)
    ok, counter = check_equilibrium(total, ground)
    assert not ok
    assert counter.atoms_h == i2 - {atom("q", 2), atom("p", finset([1, 2]))}
    assert counter.atoms_t == i2


def test_equilibrium_of_p4_model():
    ground = grounded(P4)
    total = HTInterpretation.total(
        ground.universe, Assignment(), frozenset([atom("p", "a"), atom("p", "b")])
    )
    ok, counter = check_equilibrium(total, ground)
    assert ok and counter is None


def test_empty_theory_empty_interpretation_is_equilibrium():
    ground = grounded("")
    total = HTInterpretation.total(ground.universe, Assignment(), frozenset())
    ok, counter = check_equilibrium(total, ground)
    assert ok and counter is None


def test_non_model_is_not_equilibrium():
    ground = grounded(P4)
    total = HTInterpretation.total(ground.universe, Assignment(), frozenset())
    ok, counter = check_equilibrium(total, ground)
    assert not ok and counter is None


def test_search_stats_are_populated():
    # p4, since the search proves that p2 has no candidate to test
    theory = parse_program(P4)
    report = find_stable_models(theory, DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0))
    assert report.stats.candidates > 0
    assert report.stats.elapsed >= 0


# ---------------------------------------------------------------------------
# classic shapes (negation, disjunction, constraints)


NO_INTS = dict(int_min=1, int_max=0)


def test_disjunctive_fact_has_two_models():
    assert solved("p(a); p(b).", **NO_INTS) == [
        frozenset([atom("p", "a")]),
        frozenset([atom("p", "b")]),
    ]


def test_even_negation_loop_has_two_models():
    text = "p(a) :- not q(a). q(a) :- not p(a)."
    assert solved(text, **NO_INTS) == [
        frozenset([atom("p", "a")]),
        frozenset([atom("q", "a")]),
    ]


def test_odd_negation_loop_has_no_model():
    assert solved("p(a) :- not p(a).", **NO_INTS) == []


def test_constraint_eliminates_the_model():
    assert solved("p(a). :- p(a).", **NO_INTS) == []


def test_double_negation_behaves_like_a_choice():
    assert solved("p(a) :- not not p(a).", **NO_INTS) == [
        frozenset(),
        frozenset([atom("p", "a")]),
    ]


def test_bare_double_negation_is_unstable():
    assert solved("not not p(a).", **NO_INTS) == []


# ``c`` takes sets, but nothing makes the active domain build its set
# layer, so without it ``S`` would never range over a set.
SET_ARGUMENT_COUNT = (
    "#function c/1 : {0; 1}. q(1). c({}) := 0. "
    "c(S) := 1 + c(S \\ {Y}) :- Y in S. p(N) :- N = c({X : q(X)})."
)


def test_set_arguments_without_the_set_layer_raise():
    theory = parse_program(SET_ARGUMENT_COUNT)
    bounds = DomainBounds(
        int_min=0, int_max=1, max_set_card=1, max_tuple_arity=1, max_herbrand_depth=0
    )
    with pytest.raises(SetAspError, match=r"declared function c .*--full-domain"):
        find_stable_models(theory, bounds)
    report = find_stable_models(theory, bounds.with_(full_domain=True))
    assert report.atom_sets() == [{atom("p", 1), atom("q", 1)}]


# At the default bounds ``q({1})`` and ``r(S) :- q(S)`` bring in a set
# layer of millions of sets.  Whatever has to range over all of it fails
# on ``domain_cap``, naming itself, before enumerating a set.
SET_LAYER = "q({1}). r(S) :- q(S). " + " ".join(f"c({i})." for i in range(13)) + " "
WHOLE_DOMAIN = [
    ("p(S) :- not q(S).", "variable S of 'p(S) :- not q(S).'"),
    ("s(S) :- S = {X : c(X)}.", "variable S of 's(S) :- S = {X : c(X)}.'"),
    ("p({X : c(X)}).", "head 'p({X : c(X)})'"),
    ("p(1) :- exists Y (q(Y)).", "variable Y of 'exists Y (q(Y))'"),
    # 13 members widen the argument past the subset cap
    ("#function f/1 : {0; 1}. p(1) :- f({X : c(X)}) = 1.", "application 'f({X : c(X)})'"),
]


@pytest.mark.parametrize("text,named", WHOLE_DOMAIN)
def test_enumerating_too_large_a_set_layer_names_what_needed_it(text, named):
    with pytest.raises(DomainLimitError) as err:
        find_stable_models(parse_program(SET_LAYER + text), DomainBounds())
    assert err.value.bound == "domain_cap"
    assert str(err.value).startswith(f"{named} needs ")


def test_set_term_over_too_large_a_set_layer_names_its_variable():
    theory = parse_program(SET_LAYER)
    universe = build_universe(theory, DomainBounds())
    iset = IntSet(("X",), (Var("X"),), PredAtom("q", (Var("X"),)))
    with pytest.raises(DomainLimitError, match=r"^variable X of \{X : q\(X\)\} needs "):
        universe.intset_candidates(iset)
    theory = parse_program("q({1}). p(S, T) :- q(S), q(T).")
    with pytest.raises(DomainLimitError, match=r"^variable S, T of 'p\(S, T\) :- "):
        ground_theory(theory, build_universe(theory, DomainBounds()))


def test_a_set_term_under_a_quantifier_is_solved_alike_from_the_full_grounding():
    # the set term holds the quantifier's X until the quantifier is
    # instantiated, so it has no value of its own to report
    theory = parse_program("q(1). r(1). p :- exists X (q(X), count{Y : r(Y), Y = X} >= 1).")
    bounds = DomainBounds(int_max=2, max_herbrand_depth=0)
    found = find_stable_models(theory, bounds).models
    grounded = solve_ground(ground_theory(theory, build_universe(theory, bounds))).models
    assert [m.atoms for m in found] == [{atom("p"), atom("q", 1), atom("r", 1)}]
    assert [(m.atoms, m.sigma) for m in grounded] == [(m.atoms, m.sigma) for m in found]
