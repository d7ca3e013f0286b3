"""Ground formulas read as rules, and their least model.

Both engines read their ground theories through ``rule_view``: the
equilibrium engine once per ground theory (``GroundTheory.rules``), the
reduct engine once per candidate's reduct.  ``least_model`` is the rule
fixpoint of both minimality checks, and ``search`` compiles the same view
for its propagation.  Ground atoms are read by ``interp.static_atom``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interp import static_atom
from .syntax import BOT, And, Implies, Or, _Bot, _Top


@dataclass(frozen=True)
class RuleView:
    """Ground formulas read as rules ``body -> heads`` over atom keys.

    ``facts`` are the atoms of the formulas that are conjunctions of
    atoms; ``rules`` holds ``(body, heads, phi)`` for every formula ``phi``
    that is ``body -> heads`` with a head that is such a conjunction;
    ``constraints`` holds every formula ``body -> bot``, and ``others``
    every formula of another shape.  ``exact`` holds when there are no
    others and every rule body and constraint passes the engine's
    monotonicity test, so that the least model of the rules decides
    minimality.
    """

    facts: frozenset
    rules: tuple
    constraints: tuple
    others: tuple
    exact: bool


def _heads(phi, universe):
    """Atom keys of a conjunction of atoms, or None."""
    if isinstance(phi, And):
        left = _heads(phi.left, universe)
        right = _heads(phi.right, universe)
        return None if left is None or right is None else left | right
    atom = static_atom(phi, universe)
    return None if atom is None else frozenset((atom,))


def rule_view(formulas, universe, monotone) -> RuleView:
    """Classify ground formulas in one pass, reading atoms by
    ``static_atom``; ``monotone`` tests whether a body's truth can only
    grow with the atoms of a smaller world below a fixed model.
    """
    parts, exact = ([], [], [], []), True
    for phi in formulas:
        slot, item, ok = _place(phi, universe, monotone)
        parts[slot].append(item)
        exact = exact and ok
    rules, constraints, others, facts = map(tuple, parts)
    return RuleView(frozenset().union(*facts), rules, constraints, others, exact and not others)


def _place(phi, universe, monotone):
    """Where ``phi`` goes in a rule view, as ``(slot, item, ok)``: slots 0
    to 3 are the rules, constraints, others and facts, where a fact's item
    is its atom keys and verum is a fact with none; ``ok`` is False when a
    rule body or constraint fails ``monotone``."""
    heads = frozenset() if isinstance(phi, _Top) else _heads(phi, universe)
    if heads is not None:
        return 3, heads, True
    if isinstance(phi, Implies) and phi.right == BOT:
        # a constraint is its body's negation, so it is tested whole
        return 1, phi, monotone(phi)
    if isinstance(phi, Implies) and (heads := _heads(phi.right, universe)) is not None:
        return 0, (phi.left, heads, phi), monotone(phi.left)
    return 2, phi, True


def least_model(facts, rules, here, universe):
    """Least atom set that holds ``facts`` and is closed under ``rules``.

    ``here(atoms)`` returns the body test at the world ``atoms``; bodies
    must be monotone in the atoms, so a rule that fired stays fired.  The
    first pass tests every rule.  A body built from static atoms with
    ``,``, ``;`` and ``->`` can only change its truth when one of its
    atoms is derived (``_body_atoms``), so each later pass tests only the
    rules waiting on an atom the pass before derived, plus the rules
    whose bodies have parts of another shape.
    """
    model = frozenset(facts)
    todo = [rule for rule in rules if not rule[1] <= model]
    index = None
    while todo:
        holds = here(model)
        waiting, derived = [], set()
        for rule in todo:
            if rule[1] <= model:
                continue  # fired already
            if holds(rule[0]):
                derived |= rule[1]
            else:
                waiting.append(rule)
        derived -= model
        if not derived:
            break
        model |= derived
        if index is None:
            # the rules still waiting, filed under the atoms they read, or
            # under None, which every pass tests, when that is not known
            pending, index = waiting, {}
            for i, rule in enumerate(pending):
                for atom in _body_atoms(rule[0], universe) or (None,):
                    index.setdefault(atom, []).append(i)
        todo = [pending[i] for i in sorted({i for a in (None, *derived) for i in index.get(a, ())})]
    return model


def _body_atoms(phi, universe):
    """The static atoms of a body built from them with ``,``, ``;`` and
    ``->``, or None when it has a part of another shape."""
    if isinstance(phi, (And, Or, Implies)):
        left = _body_atoms(phi.left, universe)
        right = _body_atoms(phi.right, universe)
        return None if left is None or right is None else left | right
    if isinstance(phi, (_Top, _Bot)):
        return frozenset()
    atom = static_atom(phi, universe)
    return None if atom is None else frozenset((atom,))
