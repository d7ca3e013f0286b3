from collections import Counter

import pytest

from setasp.errors import ParseError, SignatureError
from setasp.parser import _Parser, parse_program, tokenize
from setasp.syntax import (
    And,
    EApp,
    ExtSet,
    HApp,
    Eq,
    Exists,
    Forall,
    Implies,
    IntSet,
    Num,
    Or,
    PredAtom,
    Var,
    neg,
)
from setasp.values import EMPTY_SET, FinSet, HTerm


def test_single_fact():
    theory = parse_program("p(b).")
    assert theory.formulas == (PredAtom("p", (HApp("b"),)),)
    assert theory.signature.predicates == {"p": 1}
    assert theory.signature.constructors == {"b": 0}


def test_count_rule_ast_shape():
    theory = parse_program("p(a) :- count{X : p(X)} >= 1.")
    (phi,) = theory.formulas
    assert isinstance(phi, Implies)
    comparison = phi.left
    assert isinstance(comparison, PredAtom) and comparison.pred == ">="
    agg = comparison.args[0]
    assert isinstance(agg, EApp) and agg.name == "count"
    inner = agg.args[0]
    assert inner == IntSet(("X",), (Var("X"),), PredAtom("p", (Var("X"),)))


def test_implicit_closure_binds_outer_variable():
    theory = parse_program("q(Y) :- Y = {X : q(X)}.")
    (phi,) = theory.formulas
    assert isinstance(phi, Forall) and phi.var == "Y"
    matrix = phi.body
    assert isinstance(matrix, Implies)
    assert matrix.left == Eq(
        Var("Y"), IntSet(("X",), (Var("X"),), PredAtom("q", (Var("X"),)))
    )
    assert matrix.right == PredAtom("q", (Var("Y"),))


def test_explicit_bound_form_is_normalized():
    one_colon = parse_program("p(S) :- S = {X : q(X)}.")
    two_colon = parse_program("p(S) :- S = {X : X : q(X)}.")
    assert one_colon.formulas == two_colon.formulas


def test_function_directive():
    theory = parse_program("#function f/1 : {a; b; {1; 2}}.\nd(X) :- f(X) = a.")
    assert theory.signature.func_ranges["f"] == (
        HTerm("a"),
        HTerm("b"),
        FinSet([(1,), (2,)]),
    )
    assert theory.signature.evaluables["f"] == 1


def test_empty_extensional_set():
    theory = parse_program("p({}).")
    (phi,) = theory.formulas
    assert phi.args[0].members == ()


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(a)\nq(b).")
    assert err.value.line == 2


def test_positions_after_a_hash_aggregate_count_its_hash():
    # each ``#count``, ``#sum``, ``#max`` or ``#min`` spans one more
    # column than the name it is read as
    with pytest.raises(ParseError) as err:
        parse_program("p :- #count{X : q(X)} >= 1 @.")
    assert (err.value.line, err.value.column) == (1, 28)
    with pytest.raises(ParseError) as err:
        parse_program("p :- #sum{X : q(X)} >= 1, #max{X : q(X)} < 3, #min{X : q(X)} > 0 @.")
    assert (err.value.line, err.value.column) == (1, 66)


def test_arity_mismatch_rejected():
    with pytest.raises(SignatureError):
        parse_program("p(a). p(a, b).")


def test_symbol_cannot_be_predicate_and_constructor():
    with pytest.raises(SignatureError):
        parse_program("p(a). q(p).")


def test_duplicate_bound_variable_rejected():
    with pytest.raises(ParseError):
        parse_program("p(S) :- S = {X, X : (X, X) : q(X)}.")


def test_unused_bound_variable_rejected():
    with pytest.raises(ParseError):
        parse_program("p(S) :- S = {X, Y : X : q(X)}.")


def test_assignment_to_constructor_rejected():
    with pytest.raises(SignatureError):
        parse_program("g(a) := 1.")


def test_aggregate_arity_enforced():
    with pytest.raises(ParseError):
        parse_program("p(a) :- count(X, Y) >= 1.")


def test_aggregates_cannot_be_redeclared():
    with pytest.raises(ParseError):
        parse_program("#function count/1 : {1}.")


def test_comments_and_whitespace():
    theory = parse_program("% a comment\np(a).  % trailing\n\n% done\n")
    assert len(theory.formulas) == 1


def _q(name):
    return PredAtom("q", (Var(name),))


def _set_rule(iset):
    return Forall("S", Implies(Eq(Var("S"), iset), PredAtom("p", (Var("S"),))))


@pytest.mark.parametrize(
    "text, expected",
    [
        # '(' opens a formula when a connective or relation sits directly inside
        ("(p(1); q(1)).", Or(PredAtom("p", (Num(1),)), PredAtom("q", (Num(1),)))),
        ("r :- (1 + 2) = 3.", Implies(Eq(EApp("+", (Num(1), Num(2))), Num(3)), PredAtom("r", ()))),
        # '(' in a set opens a tuple when a comma sits directly inside
        ("p({(1, 2); (3, 4)}).", PredAtom("p", (ExtSet([(Num(1), Num(2)), (Num(3), Num(4))]),))),
        ("p({(1 + 2)}).", PredAtom("p", (ExtSet([(EApp("+", (Num(1), Num(2))),)]),))),
        # one ':' at the set's own level leaves the bound variables implicit,
        # two name them, and a nested set's ':' does not count
        ("p(S) :- S = {X : q(X)}.", _set_rule(IntSet(("X",), (Var("X"),), _q("X")))),
        ("p(S) :- S = {X : X : q(X)}.", _set_rule(IntSet(("X",), (Var("X"),), _q("X")))),
        (
            "p(S) :- S = {N : N = count{X : q(X)}}.",
            _set_rule(
                IntSet(
                    ("N",),
                    (Var("N"),),
                    Eq(Var("N"), EApp("count", (IntSet(("X",), (Var("X"),), _q("X")),))),
                )
            ),
        ),
        # ':=' before the statement's ':-' makes an assignment, set terms and all
        (
            "#function f/0 : {1; 2}. f := 1 :- count{X : q(X)} = 1.",
            Implies(
                And(
                    Eq(EApp("count", (IntSet(("X",), (Var("X"),), _q("X")),)), Num(1)),
                    Eq(Num(1), Num(1)),
                ),
                Eq(EApp("f", ()), Num(1)),
            ),
        ),
    ],
)
def test_lookahead_decides_brackets_colons_and_assignments(text, expected):
    assert parse_program(text).formulas == (expected,)


# ---------------------------------------------------------------------------
# grammar pins, stated here rather than read from the operator table


def _term(text):
    return _Parser(tokenize(text)).parse_term()


def _formula(text):
    return _Parser(tokenize(text)).parse_formula()


def _op(name, left, right):
    return EApp(name, (left, right))


A, B, C = (HApp(name) for name in "abc")

# term operators, loosest first; the operators of a level group to the left
TERM_LEVELS = [["\\/"], ["\\"], ["/\\"], ["+", "-"], ["*", "/"]]


@pytest.mark.parametrize(
    "loose, tight",
    [
        (lo, hi)
        for i, looser in enumerate(TERM_LEVELS)
        for tighter in TERM_LEVELS[i + 1 :]
        for lo in looser
        for hi in tighter
    ],
)
def test_the_tighter_term_operator_groups_first(loose, tight):
    assert _term(f"a {loose} b {tight} c") == _op(loose, A, _op(tight, B, C))
    assert _term(f"a {tight} b {loose} c") == _op(loose, _op(tight, A, B), C)


@pytest.mark.parametrize("name", ["-", "/", "\\"])
def test_term_operators_group_to_the_left(name):
    assert _term(f"a {name} b {name} c") == _op(name, _op(name, A, B), C)
    assert _term(f"a {name} (b {name} c)") == _op(name, A, _op(name, B, C))


def _atoms(names):
    return [PredAtom(name) for name in names.split()]


def test_connectives_group_by_precedence():
    a, b, c, d, e = _atoms("a b c d e")
    assert _formula("a, b ; c -> d ; e") == Implies(Or(And(a, b), c), Or(d, e))


def test_implication_groups_to_the_right():
    a, b, c = _atoms("a b c")
    assert _formula("a -> b -> c") == Implies(a, Implies(b, c))
    assert _formula("(a -> b) -> c") == Implies(Implies(a, b), c)


def test_negation_and_quantifiers_bind_tighter_than_conjunction():
    a, b = _atoms("a b")
    assert _formula("not a, b") == And(neg(a), b)
    q = PredAtom("q", (Var("X"),))
    assert _formula("exists X (q(X)), b") == And(Exists("X", q), b)
    assert _formula("not exists X (q(X)), b") == And(neg(Exists("X", q)), b)


def test_precedence_climbing_parses_each_term_once():
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("parse_term", "parse_primary"):
            original = getattr(_Parser, name)

            def counted(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            patch.setattr(_Parser, name, counted)
        parse_program("sum(S) := sum(S \\ {Y}) + Y :- Y in S. q(Y) :- Y = 1 + 2 * 3 - 4 / 2.")
    assert 0 < calls["parse_term"] <= calls["parse_primary"]
