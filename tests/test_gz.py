import itertools
import random
import re

import pytest

from setasp import DomainBounds, gz, parse_program, parser, search
from setasp.errors import NotGZError
from setasp.ground import _Viability
from setasp.gz import (
    GENERATOR_BOUNDS,
    cl_satisfies,
    cross_check,
    differential_trials,
    gz_stable_models,
    is_gz_theory,
    random_gz_program,
    reduct,
)
from setasp.instantiate import _Instantiation
from setasp.interp import H, T, Assignment, HTInterpretation, Universe
from setasp.solver import (
    atom_key,
    build_universe,
    check_equilibrium,
    find_stable_models,
    ground_theory,
    relevant_atoms,
    satisfies,
)
from setasp.syntax import BOT, Implies, formula_statement, pretty
from setasp.parser import Theory
from setasp.values import HTerm

from conftest import COUNT0, P2, P4, PROGRAMS, atom

BOUNDS = DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0)


def gz_ground(text, bounds=BOUNDS):
    theory = parse_program(text)
    universe = build_universe(theory, bounds)
    return ground_theory(theory, universe)


# ---------------------------------------------------------------------------
# fragment recognition


def test_p2_is_in_the_fragment(p2_theory):
    ok, reason = is_gz_theory(p2_theory)
    assert ok and reason is None


def test_aggregate_equality_with_variable_is_in_the_fragment():
    ok, reason = is_gz_theory(parse_program("q(Y) :- sum{X : p(X)} = Y. p(2)."))
    assert ok and reason is None


def test_program_one_is_rejected_with_a_set_name_diagnostic(p1_theory):
    ok, reason = is_gz_theory(p1_theory)
    assert not ok
    assert "set name" in reason


def test_nested_aggregate_is_rejected():
    theory = parse_program("p(a) :- count{X : count{Y : q(Y)} >= 1, p(X)} >= 1.")
    ok, reason = is_gz_theory(theory)
    assert not ok


def test_declared_functions_are_outside_the_fragment():
    theory = parse_program("#function f/0 : {a}. p(a) :- f = a.")
    ok, reason = is_gz_theory(theory)
    assert not ok


def _program(name, ok, reason):
    return pytest.param((PROGRAMS / name).read_text(), ok, reason, id=name)


_NOT_SET_NAME = "aggregate argument '{}' is not a set name"

# each verdict as ``is_gz_theory`` gives it, message for message
FRAGMENT_VERDICTS = [
    _program("aggregates.lp", False, _NOT_SET_NAME),
    _program("count0.lp", True, None),
    _program("p1.lp", False, "equality with set name '{X : r(X)}' is not a GZ set atom"),
    _program("p2.lp", True, None),
    _program("p3.lp", False, _NOT_SET_NAME),
    _program("p4.lp", True, None),
    # ``in`` is a predicate outside a set body and a comparison inside one
    ("p :- 1 in {1}.", False, "predicate argument '{1}' is not a ground constructor term"),
    (
        "p :- count{X : q(X), X in {1}} >= 1.",
        False,
        "comparison over non-arithmetic term '{1}'",
    ),
    (
        "p :- count{X : q(X)} >= {1}.",
        False,
        "aggregate compared against non-arithmetic term '{1}'",
    ),
    ("p :- 2 <= count{X : q(X)}.", False, "aggregate must appear on the left of the comparison"),
    (
        "p(Z) :- Z = {X : q(X)}.",
        False,
        "equality with set name '{X : q(X)}' is not a GZ set atom",
    ),
    (
        "p :- count{X : q(X), count{Y : r(Y)} >= 1} >= 1.",
        False,
        "aggregate argument '{X : q(X), count{Y : r(Y)} >= 1}' is not a set name",
    ),
    ("p :- exists X (q(X)).", False, "quantifier inside a GZ formula: 'exists X (q(X))'"),
    ("p(f(X)) :- q(X).", False, "predicate argument 'f(X)' is not a ground constructor term"),
    ("q({1}).", False, "predicate argument '{1}' is not a ground constructor term"),
    (
        "p :- count{X : Y : q(X, Y)} >= 1.",
        False,
        "aggregate argument '{X : Y : q(X, Y)}' is not a set name",
    ),
    ("p :- q(X), X + 1 = {1}.", False, "term '{1}' not allowed in a GZ atom"),
    ("p :- max{X : q(X)} = a.", True, None),
    (":- not p, #true.", True, None),
]


@pytest.mark.parametrize("text, ok, reason", FRAGMENT_VERDICTS)
def test_fragment_diagnostics_are_pinned(text, ok, reason):
    assert is_gz_theory(parse_program(text)) == (ok, reason)


def test_classical_satisfaction_refuses_a_quantifier():
    body = parse_program("p :- exists X (q(X)).").formulas[0].left
    with pytest.raises(NotGZError):
        cl_satisfies(frozenset(), body, gz_ground("q(1).").universe)


# ---------------------------------------------------------------------------
# classical satisfaction


def test_count_comparison_against_one_satisfier():
    ground = gz_ground(P2)
    body = ground.formulas[0].left
    assert cl_satisfies(frozenset([atom("p", "b")]), body, ground.universe)
    assert not cl_satisfies(frozenset(), body, ground.universe)


def test_count_of_nothing_still_reaches_zero():
    ground = gz_ground(COUNT0)
    body = ground.formulas[0].left
    assert cl_satisfies(frozenset(), body, ground.universe)


def test_membership_is_plain_lookup():
    ground = gz_ground(P2)
    assert cl_satisfies(frozenset([atom("p", "b")]), ground.formulas[1], ground.universe)
    p_a = ground.formulas[0].right
    assert not cl_satisfies(frozenset([atom("p", "b")]), p_a, ground.universe)


# ---------------------------------------------------------------------------
# the reduct


def both_atoms():
    return frozenset([atom("p", "a"), atom("p", "b")])


def test_reduct_of_the_circular_count_program():
    ground = gz_ground(P2)
    lines = sorted(
        formula_statement(reduct(phi, both_atoms(), ground.universe))
        for phi in ground.formulas
    )
    assert lines == ["p(a) :- p(a), p(b).", "p(b)."]


def test_reduct_of_the_guarded_count_program():
    ground = gz_ground(P4)
    lines = sorted(
        formula_statement(reduct(phi, both_atoms(), ground.universe))
        for phi in ground.formulas
    )
    assert lines == ["p(a) :- p(b).", "p(b)."]


def test_unsatisfied_formula_reduces_to_falsum():
    ground = gz_ground(P2)
    fact = ground.formulas[1]
    assert reduct(fact, frozenset(), ground.universe) == BOT


def test_reduct_preserves_satisfaction_by_the_candidate():
    rng = random.Random(5)
    for _ in range(30):
        ground = gz_ground(random_gz_program(rng), GENERATOR_BOUNDS)
        atoms = sorted(relevant_atoms(ground), key=atom_key)
        for mask in range(min(1 << len(atoms), 64)):
            candidate = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
            whole = all(
                cl_satisfies(candidate, phi, ground.universe) for phi in ground.formulas
            )
            reduced = all(
                cl_satisfies(candidate, reduct(phi, candidate, ground.universe), ground.universe)
                for phi in ground.formulas
            )
            assert whole == reduced


# ---------------------------------------------------------------------------
# stable models via the reduct


def test_gz_stable_models_of_p2(p2_theory):
    assert gz_stable_models(p2_theory, BOUNDS) == []


def test_gz_stable_models_of_p4(p4_theory):
    assert gz_stable_models(p4_theory, BOUNDS) == [both_atoms()]


def test_gz_zero_threshold_has_no_stable_model():
    assert gz_stable_models(parse_program(COUNT0), BOUNDS) == []


HEAD_COUNT = "count{V : p(V)} >= 1 :- q. q."
HEAD_COUNT_MODELS = [
    frozenset([atom("q"), atom("p", 0)]),
    frozenset([atom("q"), atom("p", 0), atom("p", 1)]),
]


def test_both_checks_accept_models_of_a_count_in_a_head():
    ground = gz_ground(HEAD_COUNT)
    universe = ground.universe
    for model in HEAD_COUNT_MODELS:
        total = HTInterpretation.total(universe, Assignment(), model)
        assert check_equilibrium(total, ground) == (True, None)
        assert all(cl_satisfies(model, phi, universe) for phi in ground.formulas)
        reduced = [reduct(phi, model, universe) for phi in ground.formulas]
        assert not gz._smaller_model_search(model, reduced, universe)


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
def test_both_engines_find_models_of_a_count_in_a_head(engine):
    answer = engine(parse_program(HEAD_COUNT), BOUNDS)
    found = [getattr(m, "atoms", m) for m in getattr(answer, "models", answer)]
    assert all(model in found for model in HEAD_COUNT_MODELS)


def head_aggregate_program(rng):
    """A ``random_gz_program`` with one aggregate comparison head over one
    of its predicates appended, with a body or without."""
    program = random_gz_program(rng)
    preds = sorted(set(re.findall(r"\b([pqr])\(", program)))
    agg, pred = rng.choice(["count", "sum", "max", "min"]), rng.choice(preds)
    rel = rng.choice([">=", "=", ">", "<", "<=", "!="])
    head = f"{agg}{{V : {pred}(V)}} {rel} {rng.randint(0, 2)}"
    roll = rng.random()
    if roll < 0.3:
        return f"{program}\n{head}."
    literal = f"{rng.choice(preds)}({rng.randint(0, 3)})"
    return f"{program}\n{head} :- {literal if roll < 0.65 else 'not ' + literal}."


def herbrand_models(text, bounds, limit=15):
    """GZ's stable models by definition, or None past ``limit`` atoms: each
    set of atoms over the program's predicates and the active domain that
    holds the facts is tested with ``cl_satisfies``, ``reduct`` and
    ``_smaller_model_search`` over the full grounding.  A set without a
    fact fails ``cl_satisfies`` at once, so none is tested."""
    theory = parse_program(text)
    ground = ground_theory(theory, build_universe(theory, bounds))
    universe = ground.universe
    base = [
        (pred, combo)
        for pred, arity in sorted(theory.signature.predicates.items())
        for combo in itertools.product(universe.domain.values, repeat=arity)
    ]
    if len(base) > limit:
        return None
    free = [a for a in base if a not in ground.facts]
    models = []
    for size in range(len(free) + 1):
        for combo in itertools.combinations(free, size):
            there, memo = ground.facts | frozenset(combo), {}
            if all(cl_satisfies(there, phi, universe, memo) for phi in ground.formulas):
                reduced = [reduct(phi, there, universe, memo) for phi in ground.formulas]
                if not gz._smaller_model_search(there, reduced, universe):
                    models.append(there)
    return set(models)


def test_both_engines_find_every_model_of_a_head_aggregate():
    """Programs with an aggregate comparison in a head: both engines, with
    and without the full checks, give the models of the definition."""
    rng = random.Random(5)
    compared, wrong = 0, []
    for _ in range(50):
        text = head_aggregate_program(rng)
        reference = herbrand_models(text, GENERATOR_BOUNDS)
        if reference is None:
            continue
        compared += 1
        theory = parse_program(text)
        for checked in (False, True):
            eq = find_stable_models(theory, GENERATOR_BOUNDS, full_checks=checked).atom_sets()
            gz_models = gz_stable_models(theory, GENERATOR_BOUNDS, full_checks=checked)
            wrong += [(text, checked) for models in (eq, gz_models) if set(models) != reference]
    assert compared >= 25
    assert wrong == []


def test_an_assignment_makes_no_member_of_its_aggregate_true():
    # ``f := count{...}`` gives f a value; no p atom is a head of it
    theory = parse_program("#function f/0 : {0; 1; 2}. q. f := count{V : p(V)} :- q.")
    bounds = DomainBounds(int_min=0, int_max=2, max_herbrand_depth=0)
    assert _Instantiation(theory, build_universe(theory, bounds)).run() == {atom("q")}
    (model,) = find_stable_models(theory, bounds).models
    assert model.atoms == {atom("q")} and model.sigma.funcs == {("f", ()): 0}


def test_an_equality_with_a_function_makes_members_of_its_aggregate_true():
    # without the ``t = t`` guard of a ``:=``, the count need not be defined
    # at the here-world, so a member that only this head supports is stable
    theory = parse_program("#function f/0 : {0; 1; 2}. q. f = count{V : p(V)} :- q.")
    bounds = DomainBounds(int_min=0, int_max=2, max_herbrand_depth=0)
    there = frozenset([atom("q"), atom("p", 0)])
    candidate = HTInterpretation.total(
        build_universe(theory, bounds), Assignment({("f", ()): 1}), there
    )
    assert check_equilibrium(candidate, theory) == (True, None)
    found = {(m.atoms, tuple(m.sigma.funcs.values())) for m in find_stable_models(theory, bounds).models}
    assert (there, (1,)) in found
    assert (frozenset([atom("q")]), (0,)) in found


def test_every_model_of_an_aggregate_assigned_or_equated_to_a_function():
    """``f := agg{...}`` or ``f = agg{...}`` appended to a GZ program, with a
    body or without: the equilibrium engine, with and without the full
    checks, gives each set of atoms and value of ``f`` that
    ``check_equilibrium`` accepts, over programs of at most 12 atoms."""
    rng = random.Random(1)
    compared, wrong = 0, []
    for _ in range(25):
        program = random_gz_program(rng)
        preds = sorted(set(re.findall(r"\b([pqr])\(", program)))
        pred, op = rng.choice(preds), rng.choice([":=", "="])
        head = f"f {op} {rng.choice(['count', 'sum'])}{{V : {pred}(V)}}"
        roll, literal = rng.random(), f"{rng.choice(preds)}({rng.randint(0, 3)})"
        rule = head if roll < 0.3 else f"{head} :- {literal if roll < 0.65 else 'not ' + literal}"
        theory = parse_program(f"#function f/0 : {{0; 1; 2; 3}}.\n{program}\n{rule}.")
        ground = ground_theory(theory, build_universe(theory, GENERATOR_BOUNDS))
        base = [
            (name, combo)
            for name, arity in sorted(theory.signature.predicates.items())
            for combo in itertools.product(ground.universe.domain.values, repeat=arity)
        ]
        if len(base) > 12:
            continue
        compared += 1
        reference = set()
        for size, value in itertools.product(range(len(base) + 1), (None, 0, 1, 2, 3)):
            funcs = Assignment({} if value is None else {("f", ()): value})
            for combo in itertools.combinations(base, size):
                there = HTInterpretation.total(ground.universe, funcs, frozenset(combo))
                if check_equilibrium(there, ground)[0]:
                    reference.add((frozenset(combo), value))
        for checked in (False, True):
            models = find_stable_models(theory, GENERATOR_BOUNDS, full_checks=checked).models
            if {(m.atoms, m.sigma.funcs.get(("f", ()))) for m in models} != reference:
                wrong.append((theory, checked))
    assert compared >= 15
    assert wrong == []


@pytest.mark.parametrize("engine", [find_stable_models, gz_stable_models])
@pytest.mark.parametrize("head", ["count{(X, Y) : e(X, Y)} = 0", "count{(X, Y) : e(X, Y)} < 1"])
def test_a_head_that_holds_only_with_no_member_makes_none_true(engine, head):
    # 121 e atoms at the default bounds: read as heads, they pass atom_cap
    answer = engine(parse_program(f"{head} :- q. q."), DomainBounds())
    assert [getattr(m, "atoms", m) for m in getattr(answer, "models", answer)] == [{atom("q")}]


def test_a_quantifier_under_a_body_that_cannot_hold_is_not_instantiated():
    instantiated = []

    def recorded(universe, phi, original=Universe.quantifier_instances):
        instantiated.append(phi)
        return original(universe, phi)

    bounds = DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0)
    solve = lambda text: find_stable_models(parse_program(text), bounds).atom_sets()  # noqa: E731
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Universe, "quantifier_instances", recorded)
        assert solve("(exists X (q(X))) :- r.") == [frozenset()]
        assert instantiated == []
        # once r holds, the head's instances are read
        assert solve("(exists X (q(X))) :- r. r.") == [
            {atom("q", 1), atom("r")},
            {atom("q", 2), atom("r")},
        ]
    assert instantiated


def test_non_gz_theory_is_refused(p1_theory):
    with pytest.raises(NotGZError):
        gz_stable_models(p1_theory, BOUNDS)


def test_the_can_hold_test_admits_every_classically_satisfied_body():
    """Whatever body some subset of the support fixpoint's upper bound
    over a GZ program satisfies classically, ``possibly_sat`` lets
    through: rule bodies and set-term bodies alike, over programs whose
    upper bound has at most 10 atoms."""
    rng = random.Random(17)
    checks, violations = 0, []
    for _ in range(340):
        program = random_gz_program(rng)
        ground = gz_ground(program, GENERATOR_BOUNDS)
        viability = _Viability(ground)
        upper = sorted(viability.run(), key=atom_key)
        if len(upper) > 10:
            continue
        universe = ground.universe
        bodies = [phi.left for phi in ground.formulas if isinstance(phi, Implies)]
        for iset in list(universe.intsets):
            bodies.extend(body for _, body in universe.intset_candidates(iset))
        bodies = list(dict.fromkeys(bodies))
        for size in range(len(upper) + 1):
            for subset in itertools.combinations(upper, size):
                atoms = frozenset(subset)
                for body in bodies:
                    checks += 1
                    if cl_satisfies(atoms, body, universe) and not viability.possibly_sat(body):
                        violations.append((program, sorted(atoms), pretty(body)))
    assert checks > 60_000
    assert violations == []


@pytest.mark.parametrize("name", ["sum", "max"])
def test_the_gz_upper_bound_reads_exact_aggregate_values(name):
    """Neither the sum nor the max of a subset of {1, 3} is 2, although 2
    lies between the least and the greatest of their values."""
    theory = parse_program(f"p(1). p(3). q :- {name}{{X : p(X)}} = 2.")
    uppers = []

    def recorded(viability, original=gz._gz_relevant_atoms):
        uppers.append(original(viability))
        return uppers[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gz, "_gz_relevant_atoms", recorded)
        models = gz_stable_models(theory, DomainBounds(int_min=0, int_max=4, max_herbrand_depth=0))
    assert uppers == [{atom("p", 1), atom("p", 3)}]
    assert models == [{atom("p", 1), atom("p", 3)}]


def test_grounding_invariance():
    rng = random.Random(13)
    for _ in range(10):
        theory = parse_program(random_gz_program(rng))
        direct = gz_stable_models(theory, GENERATOR_BOUNDS)
        universe = build_universe(theory, GENERATOR_BOUNDS)
        ground = ground_theory(theory, universe)
        reground = Theory(theory.signature, ground.formulas, theory.source)
        assert gz_stable_models(reground, GENERATOR_BOUNDS) == direct


# ---------------------------------------------------------------------------
# bridges between the two semantics


def _candidate_space(ground, limit=64):
    atoms = sorted(relevant_atoms(ground), key=atom_key)
    for mask in range(min(1 << len(atoms), limit)):
        yield frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)


def test_total_models_coincide_with_classical_models():
    rng = random.Random(21)
    for _ in range(20):
        ground = gz_ground(random_gz_program(rng), GENERATOR_BOUNDS)
        for candidate in _candidate_space(ground):
            total = HTInterpretation.total(ground.universe, Assignment(), candidate)
            for phi in ground.formulas:
                assert satisfies(total, T, phi) == cl_satisfies(
                    candidate, phi, ground.universe
                )


def test_here_world_matches_the_reduct():
    rng = random.Random(22)
    for _ in range(20):
        ground = gz_ground(random_gz_program(rng), GENERATOR_BOUNDS)
        for candidate in _candidate_space(ground, limit=32):
            smaller = sorted(candidate, key=atom_key)
            for k in range(len(smaller) + 1):
                here = frozenset(smaller[:k])
                interp = HTInterpretation(
                    ground.universe, Assignment(), Assignment(), here, candidate
                )
                for phi in ground.formulas:
                    assert satisfies(interp, H, phi) == cl_satisfies(
                        here, reduct(phi, candidate, ground.universe), ground.universe
                    )


def test_cross_check_agrees_on_the_named_programs():
    for text in (P2, P4, COUNT0):
        result = cross_check(parse_program(text), BOUNDS)
        assert result.agree


def test_cross_check_reads_the_domain_facts_once(monkeypatch):
    """Both engines build their domain from one theory, so the pass over
    its formulas (``Theory.domain_facts``) runs for the first only."""
    read = []

    def recorded(theory, original=parser._domain_facts):
        read.append(theory)
        return original(theory)

    monkeypatch.setattr(parser, "_domain_facts", recorded)
    theory = parse_program(P2)
    assert cross_check(theory, BOUNDS).agree
    assert cross_check(theory, BOUNDS).agree
    assert read == [theory]


# A 3-colouring of the path 1-2-3-4-5: 383 ground formulas, of which the
# root drops all but the 9 facts, the 11 disjunctions (outside the rule
# view) and 12 of the 363 edge constraints.
PATH_COLOURING = """
r(X) ; g(X) ; b(X) :- node(X).
node(1). node(2). node(3). node(4). node(5).
edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
:- edge(X, Y), r(X), r(Y).
:- edge(X, Y), g(X), g(Y).
:- edge(X, Y), b(X), b(Y).
"""


def test_gz_leaf_checks_read_only_what_the_search_keeps(monkeypatch):
    read = []

    def recorded(propagation, original=search._Propagation.checked_formulas):
        formulas = original(propagation)
        read.append((len(propagation.ground.formulas), len(formulas)))
        return formulas

    monkeypatch.setattr(search._Propagation, "checked_formulas", recorded)
    theory = parse_program(PATH_COLOURING)
    bounds = DomainBounds(int_min=0, int_max=10, atom_cap=40)
    models = gz_stable_models(theory, bounds)
    assert read == [(383, 32)]
    assert len(models) == 3 * 2**4
    assert gz_stable_models(theory, bounds, full_checks=True) == models
    assert read == [(383, 32)]  # full checks read the whole grounding


@pytest.mark.parametrize(
    "text, model",
    [
        ("q(1). p :- count{X : q(X)} < 1+1.", {atom("q", 1), atom("p")}),
        ("q(1). p :- count{X : q(X)} = 2-1.", {atom("q", 1), atom("p")}),
        ("q(1). p :- count{X : q(X)} != a.", {atom("q", 1), atom("p")}),
        ("p(1). q :- not count{X : p(X)} != a.", {atom("p", 1)}),
        ("p(1). q :- not count{X : p(X)} < a.", {atom("p", 1), atom("q")}),
        ("q(1). p :- count{X : q(X), X < 1+1} = 1.", {atom("q", 1), atom("p")}),
    ],
)
def test_cross_check_agrees_on_a_threshold_that_is_not_an_integer(text, model):
    # both engines fold every side of a comparison but an aggregate, in a
    # set body too, and compare the values through relation_eval
    theory = parse_program(text)
    assert is_gz_theory(theory) == (True, None)
    result = cross_check(theory, BOUNDS)
    assert result.agree and result.gz_models == [model]


def test_differential_trials_report_shape():
    report = differential_trials(10, seed=3)
    assert report["trials"] == 10
    assert report["agreements"] == 10
    assert report["disagreements"] == []
