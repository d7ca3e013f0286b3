import random

import pytest

from setasp.checks import _random_formula, _semantics_universe
from setasp.parser import RawRule, _Parser, expand_sugar, parse_program, theory_text, tokenize
from setasp.syntax import (
    BOT,
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    IntSet,
    Num,
    Val,
    closure_prefix,
    free_vars,
    neg,
    rank,
    substitute,
    walk,
)
from setasp.values import HTerm

from conftest import PROGRAMS


def term(text):
    return _Parser(tokenize(text)).parse_term()


def formula(text):
    return _Parser(tokenize(text)).parse_formula()


# ---------------------------------------------------------------------------
# rank


def test_rank_of_flat_atom_is_zero():
    assert rank(formula("p(b)")) == 0


def test_rank_of_simple_set_is_one():
    assert rank(term("{X : p(X)}")) == 1


def test_rank_counts_body_nesting_not_head_nesting():
    # a set in head position does not lift the stratum; a set in the body does
    head_nested = term("max{B : count{I : word(B, I, Y)} : author(X, B)}")
    assert rank(head_nested) == 1
    body_nested = term("{X : q({Y : r(X, Y)})}")
    assert rank(body_nested) == 2


def test_rank_is_monotone_over_subexpressions():
    outer = term("{X : q({Y : r(X, Y)})}")
    top = rank(outer)
    for node in walk(outer):
        assert rank(node) <= top
    assert rank(outer.body) < rank(outer)


# ---------------------------------------------------------------------------
# free variables


def test_free_vars_of_count_set():
    assert free_vars(term("count{I : word(B, I, poirot)}")) == {"B"}


def test_free_vars_of_parameterised_set():
    t = term("{B : count{I : word(B, I, Y)} : author(X, B)}")
    assert free_vars(t) == {"X", "Y"}


def test_free_vars_of_atom():
    assert free_vars(formula("p(X)")) == {"X"}


# ---------------------------------------------------------------------------
# sugar


def test_assignment_sugar_without_body():
    rule = RawRule(head=None, body=None, assign=(term("count({})"), Num(0)))
    assert expand_sugar(rule) == Implies(Eq(Num(0), Num(0)), Eq(term("count({})"), Num(0)))


def test_assignment_sugar_with_body():
    value = term("sum(S \\ {Y}) + Y")
    body = formula("Y in S")
    rule = RawRule(head=None, body=body, assign=(term("sum(S)"), value))
    assert expand_sugar(rule) == Implies(
        And(body, Eq(value, value)), Eq(term("sum(S)"), value)
    )


def test_plain_fact_is_unchanged():
    fact = formula("p(b)")
    assert expand_sugar(RawRule(head=fact, body=None)) is fact


def test_rule_becomes_implication():
    head, body = formula("p(a)"), formula("q(b)")
    assert expand_sugar(RawRule(head=head, body=body)) == Implies(body, head)


def test_negation_is_implication_to_falsum():
    phi = formula("not p(a)")
    assert isinstance(phi, Implies) and phi.right == BOT
    assert phi == neg(formula("p(a)"))


# ---------------------------------------------------------------------------
# substitution


def test_substitute_respects_set_binders():
    t = term("{X : p(X, Y)}")
    out = substitute(t, {"X": Num(1), "Y": Num(2)})
    assert out == term("{X : p(X, 2)}")


def test_substitute_respects_quantifiers():
    phi = formula("exists X (p(X, Y))")
    out = substitute(phi, {"X": Num(1), "Y": Num(2)})
    assert out == formula("exists X (p(X, 2))")


def test_substitute_shares_unchanged_nodes():
    phi = formula("p(X), q(a)")
    out = substitute(phi, {"Z": Num(1)})
    assert out is phi


# ---------------------------------------------------------------------------
# printing round-trips


ROUND_TRIP_PROGRAMS = [
    "r(1). r(2). q(1). q(2) :- Z = {X : r(X)}, p(Z). p(Y) :- Y = {X : q(X)}.",
    "p(a) :- count{X : p(X)} >= 1. p(b).",
    "sum({}) := 0. sum(S) := sum(S \\ {Y}) + Y :- Y in S. q(Y) :- sum{X : p(X)} = Y.",
    "max(S) := X :- X in S, not exists Y (Y in S, Y > X).",
    "p(X, Y) :- q({(X, 1); (Y, 2)}), r({A, B : (A, B) : s(A, B)}).",
    "a :- b; c, not d. :- e. p(1 + 2 * 3). q((1 \\/ 2) /\\ 3) :- #true.",
    "p(a) :- exists Y (count{X : p(X)} = Y, Y >= 1).",
    "#function f/1 : {a; {1; 2}}. d(X) :- f(X) = a.",
    "p(A - (B - C)) :- q(A, B, C). (a -> b) -> c. d :- (a ; b), c.",
]


@pytest.mark.parametrize(
    "program",
    ROUND_TRIP_PROGRAMS
    + [pytest.param(path.read_text(), id=path.name) for path in sorted(PROGRAMS.glob("*.lp"))],
)
def test_pretty_parse_round_trip(program):
    first = parse_program(program)
    printed = theory_text(first)
    second = parse_program(printed)
    assert first.formulas == second.formulas
    assert first.signature == second.signature
    assert printed == theory_text(second)


def test_closed_theories_have_no_free_variables():
    theory = parse_program(ROUND_TRIP_PROGRAMS[0])
    for phi in theory.formulas:
        assert free_vars(phi) == frozenset()


def test_bound_variables_occur_in_every_parsed_set():
    theory = parse_program("p(Y) :- Y = {X : q(X)}. r(Z) :- Z = {A, B : (A, B) : s(A, B)}.")
    for phi in theory.formulas:
        for node in walk(phi):
            if isinstance(node, IntSet):
                occurring = free_vars(node.body)
                for t in node.head:
                    occurring |= free_vars(t)
                assert set(node.bound) <= occurring | set(node.bound)
                for name in node.bound:
                    covered = any(name in free_vars(t) for t in node.head)
                    assert covered or name in free_vars(node.body)


# ---------------------------------------------------------------------------
# node shapes: ``children``, ``rebuild`` and ``binds``

EVERY_NODE = (
    "#function f/1 : {a; b}. "
    "p(X, g(a)) :- q({(1, X); (2, a)}), r({A, B : (A, 1) : s(A, B), A < B}); "
    "count{Y : t(Y)} = X + 1, (forall Z (u(Z) -> #true); exists W (v(W), not #false)), f(X) = b."
)

EVERY_NODE_ORDER = (
    "Forall Implies Or And PredAtom ExtSet Num Var Num HApp PredAtom IntSet Var Num And PredAtom "
    "Var Var PredAtom Var Var And And Eq EApp IntSet Var PredAtom Var EApp Var Num Or Forall "
    "Implies PredAtom Var _Top Exists And PredAtom Var Implies _Bot _Bot Eq EApp Var HApp "
    "PredAtom Var HApp HApp"
)


def _every_node():
    (phi,) = parse_program(EVERY_NODE).formulas
    # instantiation is the only maker of ``Val``
    return And(phi, Eq(Val(1), Num(1)))


def test_every_node_rebuilds_over_its_own_children():
    for node in walk(_every_node()):
        copy = node.rebuild(node.children)
        assert copy == node and hash(copy) == hash(node)
        if hasattr(node, "args"):
            assert node.children is node.args


def test_walk_is_pre_order_over_children():
    phi = _every_node()
    assert " ".join(type(n).__name__ for n in walk(phi)) == f"And {EVERY_NODE_ORDER} Eq Val Num"


def test_binders_name_the_variables_they_bind():
    nodes = list(walk(_every_node()))
    assert [n.binds for n in nodes if n.binds] == [("X",), ("A", "B"), ("Y",), ("Z",), ("W",)]
    assert all(n.binds == () for n in nodes if not isinstance(n, (IntSet, Forall, Exists)))


def _binder_cases():
    rng = random.Random(5)
    universe = _semantics_universe()
    # set terms bind X, quantifiers Y
    yield from (_random_formula(rng, universe, 3) for _ in range(200))
    for path in sorted(PROGRAMS.glob("*.lp")):
        yield from (closure_prefix(phi)[1] for phi in parse_program(path.read_text()).formulas)


def test_substitute_removes_exactly_the_name_it_binds():
    replaced = kept = 0
    for phi in _binder_cases():
        for node in walk(phi):
            free = free_vars(node)
            assert substitute(node, {}) is node
            for name in free | {"X", "Y", "Q"}:
                out = substitute(node, {name: Val(1)})
                assert free_vars(out) == free - {name}
                if name in free:
                    replaced += 1
                else:
                    assert out is node
                    kept += 1
    assert min(replaced, kept) > 500
