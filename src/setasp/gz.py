"""The aggregate-comparison fragment: classical satisfaction, the reduct,
subset-minimal stable models, the differential harness against the
equilibrium engine, and the existential variable introduction that
``setasp transform`` applies.

The fragment allows predicate atoms over ground constructor terms plus
comparisons ``f{xs : body} <rel> n`` where ``f`` is an aggregate, the set
names a tuple of variables over a rank-0 body, and ``n`` is arithmetic.
Stable models are defined through a reduct: formulas not satisfied by the
candidate become falsum, satisfied set atoms become the conjunction of
their satisfied ground body instances, and the candidate must be the
unique subset-minimal classical model of what remains.

The engine supplies only its semantics: the fragment grammar
(``_gz_formula``), classical satisfaction (``cl_satisfies``) and the
reduct (``reduct``), which read a comparison as ``syntax.comparison``
does, but outside a set name's body ``in`` is none.  The rest is the
equilibrium engine's.  The upper bound is the root upper bound of
the search's one propagation over the full grounding
(``_gz_relevant_atoms``), whose support pass reads aggregate values
exactly; no support fixpoint of ``ground`` runs.  The shared candidate
loop (``search.search_stable``) decides which leaves take the checks
and which formulas they read, as for the equilibrium engine, and calls
back into ``cl_satisfies``, ``reduct`` and ``_has_smaller_model`` at
each such leaf.  Ground atoms are read by
``interp.static_atom``, the reduct's least model is
``rules.least_model`` and constants fold by ``syntax.fold``.  The
grounding stays the full ``ground.ground_theory``, never the
binding-driven one of ``instantiate``, so ``cross_check`` still compares
two instantiations, each with an upper bound of its own: the equilibrium
engine's from the fixpoint it instantiates in, GZ's from propagation.
It runs both engines with ``full_checks``, so that a closed leaf, too,
takes each engine's own checks and not one shared verdict, and each
engine's checks read its whole ground theory.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .domain import DomainBounds
from .errors import NotGZError
from .ground import ground_theory
from .interp import T, aggregate_eval, atom_key, eval_term, relation_eval, static_atom
from .parser import Theory, parse_program
from .rules import least_model, rule_view
from .search import _Propagation, search_stable
from .solver import build_universe, find_stable_models, format_atom
from .syntax import (
    AGGREGATE_NAMES,
    ARITH_OPS,
    BOT,
    RELATION_PREDS,
    TOP,
    And,
    EApp,
    Eq,
    Exists,
    HApp,
    Implies,
    IntSet,
    Num,
    Or,
    PredAtom,
    Val,
    Var,
    _Bot,
    _Quant,
    _Top,
    closure_prefix,
    comparison,
    conj,
    fold,
    free_vars,
    ground_constructor_value,
    pretty,
    rank,
    rebuilt,
    walk,
)
from .values import UNDEF, FinSet

_GZ_RELS = frozenset({"<=", ">=", "<", ">", "!="})


# ---------------------------------------------------------------------------
# Fragment check


def _is_arith(term):
    if isinstance(term, (Num, Var)):
        return True
    if isinstance(term, Val):
        return isinstance(term.value, int)
    if isinstance(term, EApp) and term.name in ARITH_OPS:
        return all(_is_arith(a) for a in term.args)
    return False


def _is_set_name(term):
    """A set name varies exactly its bound variables: ``{xs : xs : body}``."""
    return (
        isinstance(term, IntSet)
        and len(term.head) == len(term.bound)
        and all(isinstance(t, Var) and t.name == b for t, b in zip(term.head, term.bound))
        and rank(term.body) == 0
        and not any(isinstance(n, _Quant) for n in walk(term.body))
    )


def _gz_pred_arg(term):
    if isinstance(term, (Var, Num)):
        return True
    if isinstance(term, Val):
        return not isinstance(term.value, FinSet)
    if isinstance(term, HApp):
        return not free_vars(term) and ground_constructor_value(term) is not None
    return False


def _is_aggregate(term):
    return isinstance(term, EApp) and term.name in AGGREGATE_NAMES


def _gz_formula(phi, in_set=False):
    """None when ``phi`` fits the fragment's grammar, else a reason.

    Connectives recurse.  An atom is a predicate atom or a comparison, an
    aggregate one over a set name included.  A set name's body
    (``in_set``) compares only fixed values, where every relation, ``in``
    included, reads as a comparison."""
    if isinstance(phi, (_Bot, _Top)):
        return None
    if isinstance(phi, (And, Or, Implies)):
        return _gz_formula(phi.left, in_set) or _gz_formula(phi.right, in_set)
    if isinstance(phi, _Quant):  # a set name's body has none
        return f"quantifier inside a GZ formula: {pretty(phi)!r}"
    parts = comparison(phi)
    if parts is None or parts[0] == "in" and not in_set:
        for a in phi.args:
            if not _gz_pred_arg(a):
                return f"predicate argument {pretty(a)!r} is not a ground constructor term"
        return None
    rel, left, right = parts
    if in_set:
        for side in (left, right):
            if not (_is_arith(side) or _gz_pred_arg(side)):
                if rel == "=":
                    return f"equality over {pretty(side)!r} is not a GZ atom"
                return f"comparison over non-arithmetic term {pretty(side)!r}"
        return None
    if _is_aggregate(left):
        inner = left.args[0]
        if not _is_set_name(inner):
            return f"aggregate argument {pretty(inner)!r} is not a set name"
        reason = _gz_formula(inner.body, in_set=True)
        # a non-arithmetic ground value on the right is compared as the
        # equilibrium engine compares it, so instantiated comparisons
        # stay in the fragment
        if reason or _is_arith(right) or _gz_pred_arg(right):
            return reason
        return f"aggregate compared against non-arithmetic term {pretty(right)!r}"
    if _is_aggregate(right):
        return "aggregate must appear on the left of the comparison"
    for side in (left, right):
        if isinstance(side, IntSet):
            return f"equality with set name {pretty(side)!r} is not a GZ set atom"
        if not (_is_arith(side) or _gz_pred_arg(side)):
            return f"term {pretty(side)!r} not allowed in a GZ atom"
    return None


def is_gz_theory(theory: Theory):
    """Whether every formula fits the fragment; returns ``(ok, diagnostic)``."""
    if theory.signature.func_ranges:
        return False, "declared evaluable functions are outside the GZ fragment"
    for phi in theory.formulas:
        reason = _gz_formula(closure_prefix(phi)[1])
        if reason:
            return False, reason
    return True, None


# ---------------------------------------------------------------------------
# Classical satisfaction and the reduct


def cl_satisfies(atoms, phi, universe, memo=None) -> bool:
    """Classical single-world satisfaction of a ground GZ formula.
    ``memo`` keeps aggregate values across calls (see ``_cl_aggregate``)."""
    if isinstance(phi, _Bot):
        return False
    if isinstance(phi, _Top):
        return True
    if isinstance(phi, PredAtom):
        if phi.pred in _GZ_RELS:
            return _cl_comparison(atoms, phi.pred, phi.args[0], phi.args[1], universe, memo)
        return static_atom(phi, universe) in atoms
    if isinstance(phi, Eq):
        return _cl_comparison(atoms, "=", phi.left, phi.right, universe, memo)
    if isinstance(phi, And):
        return cl_satisfies(atoms, phi.left, universe, memo) and cl_satisfies(
            atoms, phi.right, universe, memo
        )
    if isinstance(phi, Or):
        return cl_satisfies(atoms, phi.left, universe, memo) or cl_satisfies(
            atoms, phi.right, universe, memo
        )
    if isinstance(phi, Implies):
        return (not cl_satisfies(atoms, phi.left, universe, memo)) or cl_satisfies(
            atoms, phi.right, universe, memo
        )
    raise NotGZError(f"not a ground GZ formula: {pretty(phi)!r}")


def _cl_comparison(atoms, rel, left, right, universe, memo=None):
    # each side but an aggregate reads as in the equilibrium engine, in
    # the static interpretation: arithmetic folds, and past the integer
    # bounds a value is undefined
    if isinstance(left, EApp) and left.name in AGGREGATE_NAMES:  # _is_aggregate, kept inline
        value = _cl_aggregate(atoms, left, universe, memo)
    else:
        value = eval_term(universe.static, T, left)
    return value is not UNDEF and relation_eval(rel, value, eval_term(universe.static, T, right))


def _cl_aggregate(atoms, agg, universe, memo=None):
    """Aggregate value over the candidate tuples whose body holds in T,
    read from and stored in ``memo`` under ``(atoms, agg)`` if given."""
    key = (atoms, agg)
    if memo is not None and key in memo:
        return memo[key]
    iset = agg.args[0]
    members = []
    for head, body in universe.intset_candidates(iset):
        if cl_satisfies(atoms, body, universe):
            members.append(tuple(ground_constructor_value(t) for t in head))
    value = aggregate_eval(agg.name, FinSet(members), universe.bounds)
    if memo is not None:
        memo[key] = value
    return value


def reduct(phi, atoms, universe, memo=None):
    """The reduct of a ground GZ formula with respect to a candidate.

    Unsatisfied formulas become falsum; predicate atoms pass through;
    satisfied comparisons over fixed values become verum; a satisfied set
    atom becomes the conjunction of the reducts of its satisfied ground
    body instances; connectives recurse.  ``memo`` is ``cl_satisfies``'s,
    which also refuses every formula outside the fragment.
    """
    if not cl_satisfies(atoms, phi, universe, memo):
        return BOT
    if isinstance(phi, (And, Or, Implies)):
        left = reduct(phi.left, atoms, universe, memo)
        right = reduct(phi.right, atoms, universe, memo)
        return fold(type(phi)(left, right))  # keeps printed reducts free of verum
    parts = comparison(phi)
    if parts is None:
        return phi  # verum or a predicate atom
    if not _is_aggregate(parts[1]):
        return TOP  # satisfied comparison over fixed values
    bodies = [body for _, body in universe.intset_candidates(parts[1].args[0])]
    return conj([reduct(b, atoms, universe) for b in bodies if cl_satisfies(atoms, b, universe)])


# ---------------------------------------------------------------------------
# Stable models via the reduct


def _gz_relevant_atoms(propagation):
    """GZ's upper bound: the root upper bound of ``propagation`` over the
    full grounding, as a set, tightened from every atom that a formula
    has as a head (``ground.heads``) by ``search._Propagation.bounds``;
    empty when the root bounds conflict, and then the search has no
    leaf."""
    root = propagation.root
    return frozenset() if root is None else propagation.atoms(root[1])


def gz_stable_models(theory: Theory, bounds: DomainBounds = None, *, full_checks=False):
    """All stable models under the reduct semantics, canonically ordered;
    ``full_checks`` is the shared search's (``search.search_stable``)."""
    ok, reason = is_gz_theory(theory)
    if not ok:
        raise NotGZError(reason)
    universe = build_universe(theory, bounds or DomainBounds())
    propagation = _Propagation(ground_theory(theory, universe))
    _gz_relevant_atoms(propagation)  # the search's upper bound, named so that it can be counted

    def stable_in(search):
        # a formula left out of ``search`` is classically true at the
        # leaf, and its reduct is verum (its body fails there) or holds
        # wherever the facts do, so it changes neither check
        def stable(there):
            memo = {}  # the aggregate values of this candidate
            if not all(cl_satisfies(there, phi, universe, memo) for phi in search.formulas):
                return
            reduced = [reduct(phi, there, universe, memo) for phi in search.formulas]
            if not _has_smaller_model(there, reduced, universe):
                yield {}

        return stable

    return [atoms for atoms, _ in search_stable(propagation, stable_in, full_checks)]


def _positive(phi):
    """Built from atoms with ``,`` and ``;`` only, so classically monotone."""
    if isinstance(phi, (And, Or)):
        return _positive(phi.left) and _positive(phi.right)
    return isinstance(phi, _Top) or isinstance(phi, PredAtom) and phi.pred not in RELATION_PREDS


def _has_smaller_model(candidate, reduced, universe):
    """Whether the reduct has a classical model strictly inside the candidate.

    When every reduced formula is a fact or a rule with a positive body,
    the reduct's least model decides: the candidate is stable iff it is
    that model.  Other reducts (disjunctive heads, nested implications)
    take the subset search.
    """
    view = rule_view(reduced, universe, _positive)
    if not view.exact:
        return _smaller_model_search(candidate, reduced, universe)

    def here(atoms):
        return lambda body: cl_satisfies(atoms, body, universe)

    return least_model(view.facts, view.rules, here, universe) != candidate


def _smaller_model_search(candidate, reduced, universe):
    """Reference minimality check: subset search below the candidate,
    smallest first, keeping the reduct's facts, which every model holds."""
    forced = rule_view(reduced, universe, _positive).facts & candidate
    free = sorted(candidate - forced, key=atom_key)
    for size in range(len(free)):
        for combo in itertools.combinations(free, size):
            smaller = forced | frozenset(combo)
            if all(cl_satisfies(smaller, phi, universe) for phi in reduced):
                return True
    return False


# ---------------------------------------------------------------------------
# Differential harness


@dataclass
class CrossCheckResult:
    gz_models: list
    eq_models: list
    agree: bool

    def to_json(self):
        return {
            "gzModels": [[format_atom(a) for a in sorted(m, key=atom_key)] for m in self.gz_models],
            "eqModels": [[format_atom(a) for a in sorted(m, key=atom_key)] for m in self.eq_models],
            "agree": self.agree,
        }


def cross_check(theory: Theory, bounds: DomainBounds = None) -> CrossCheckResult:
    """Run both engines on one theory and compare the stable-model sets;
    ``gz_stable_models`` refuses a theory outside the fragment."""
    bounds = bounds or DomainBounds()
    gz_models = gz_stable_models(theory, bounds, full_checks=True)
    eq_report = find_stable_models(theory, bounds, full_checks=True)
    eq_models = eq_report.atom_sets()
    agree = set(gz_models) == set(eq_models)
    return CrossCheckResult(gz_models, eq_models, agree)


GENERATOR_BOUNDS = DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0)


def random_gz_program(rng: random.Random) -> str:
    """One small random fragment program; shapes stay inside the grammar."""
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


def differential_trials(trials: int, seed: int, bounds: DomainBounds = None):
    """Generate programs and compare engines; returns a JSON-ready report."""
    bounds = bounds or GENERATOR_BOUNDS
    rng = random.Random(seed)
    agreements = 0
    disagreements = []
    for _ in range(trials):
        program = random_gz_program(rng)
        theory = parse_program(program)
        result = cross_check(theory, bounds)
        if result.agree:
            agreements += 1
        else:
            report = result.to_json()
            del report["agree"]
            disagreements.append({"program": program, **report})
    return {
        "trials": trials,
        "agreements": agreements,
        "disagreements": disagreements,
    }


# ---------------------------------------------------------------------------
# Existential variable introduction


def eligible_positions(theory: Theory):
    """Every argument position of every atom, set bodies included."""
    out = []
    for fi, phi in enumerate(theory.formulas):
        atoms = [node for node in walk(phi) if isinstance(node, (Eq, PredAtom))]
        for oi, atom in enumerate(atoms):
            out.extend((fi, oi, ai) for ai in range(len(atom.children)))
    return out


def existential_intro_transform(theory: Theory, selector) -> Theory:
    """Replace one atom argument by an existentially bound equal variable.

    ``p(..., tau, ...)`` turns into ``exists V (V = tau, p(..., V, ...))``;
    stable models are preserved.  ``selector`` is ``(formula, atom, arg)``,
    the atom counted in ``walk`` order.
    """
    fi, oi, ai = selector
    if fi >= len(theory.formulas):
        raise IndexError("formula index out of range")
    used = set()
    for phi in theory.formulas:
        for node in walk(phi):
            used.update((node.name,) if isinstance(node, Var) else node.binds)
    fresh = next(f"V{n}" for n in itertools.count() if f"V{n}" not in used)
    seen, done = -1, False

    def rewrite(node):
        nonlocal seen, done
        if done:
            return node
        if isinstance(node, (Eq, PredAtom)):
            seen += 1
            if seen == oi:
                done = True
                args = node.children
                if ai >= len(args):
                    raise IndexError("argument index out of range")
                inner = node.rebuild(
                    tuple(Var(fresh) if i == ai else a for i, a in enumerate(args))
                )
                return Exists(fresh, And(Eq(Var(fresh), args[ai]), inner))
        return rebuilt(node, tuple(rewrite(child) for child in node.children))

    new_formula = rewrite(theory.formulas[fi])
    if not done:
        raise IndexError("atom occurrence index out of range")
    formulas = list(theory.formulas)
    formulas[fi] = new_formula
    return theory.replace_formulas(formulas)
