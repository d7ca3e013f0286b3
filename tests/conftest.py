from pathlib import Path

import pytest

from setasp import DomainBounds, parse_program
from setasp.values import HTerm

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

P1 = """
r(1). r(2). q(1).
q(2) :- Z = {X : r(X)}, p(Z).
p(Y) :- Y = {X : q(X)}.
"""

P2 = """
p(a) :- count{X : p(X)} >= 1.
p(b).
"""

P3 = """
sum({}) := 0.
sum(S) := sum(S \\ {Y}) + Y :- Y in S.
q(Y) :- sum{X : p(X)} = Y.
p(2). p(3).
"""

P4 = """
p(a) :- count{X : p(X), X != a} >= 1.
p(b).
"""

COUNT0 = "p(a) :- count{X : p(X)} >= 0."


def atom(pred, *args):
    vals = tuple(HTerm(a) if isinstance(a, str) else a for a in args)
    return (pred, vals)


@pytest.fixture
def small_bounds():
    return DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0)


@pytest.fixture
def p1_theory():
    return parse_program(P1)


@pytest.fixture
def p2_theory():
    return parse_program(P2)


@pytest.fixture
def p3_theory():
    return parse_program(P3)


@pytest.fixture
def p4_theory():
    return parse_program(P4)
