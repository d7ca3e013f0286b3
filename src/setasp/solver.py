"""Grounding, model checking and equilibrium (stable-model) search.

The search tests total candidates ``(sigma, T)`` and keeps those with no
strictly smaller here-world model.  ``T`` ranges between two bounds.
The upper bound is the set of *possibly-true* atoms: a fixpoint of
ground-rule head instances whose bodies are optimistically satisfiable.
An atom outside it has no support in any rule chain, so dropping it
always yields a smaller model; enumerating every atom of every predicate
over the whole domain (the naive alternative) is hopeless even at desk
scale.  ``find_stable_models`` grounds the theory inside that fixpoint,
instantiating each variable from its binding occurrences in a rule body
(``_Instantiation``); ``ground_theory`` is the full grounding over the
active domain that ``solve_ground`` takes as a reference.  The lower
bound holds the atoms that rules with statically decidable bodies force
into every model.  The ``search`` module decides the atoms between the
bounds one at a time and tests only the leaves of that search.
Minimality is a least-model fixpoint where the rules allow it and a
subset search elsewhere.

The support fixpoint (``_Viability``), the rule view (``rule_view``) and
the rule fixpoint (``least_model``) serve the reduct engine in ``gz``
too, as do the ground-atom reading (``interp.static_atom``) and the
candidate loop (``search.search_stable``): each engine supplies only its
own "can hold" test, model test and minimality check.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property

from .domain import DomainBounds, build_active_domain, set_argument_functions
from .errors import DomainLimitError, RangeDeclarationError, SetAspError
from .interp import (
    H,
    T,
    Assignment,
    HTInterpretation,
    Universe,
    _independent,
    aggregate_eval,
    atom_key,
    builtin_func_eval,
    eval_term,
    is_coherent,
    relation_eval,
    s_satisfies,
    static_atom,
)
from .parser import Theory
from .search import search_stable
from .syntax import (
    AGGREGATE_NAMES,
    BOT,
    RELATION_PREDS,
    TOP,
    And,
    EApp,
    Eq,
    Exists,
    ExtSet,
    Forall,
    Formula,
    HApp,
    Implies,
    IntSet,
    Num,
    Or,
    PredAtom,
    Val,
    Var,
    _Bot,
    _Top,
    closure_prefix,
    formula_statement,
    free_vars,
    pretty,
    substitute,
    walk,
)
from .values import UNDEF, FinSet, HTerm, format_value, value_key


def format_atom(atom):
    pred, args = atom
    if not args:
        return pred
    return f"{pred}({', '.join(format_value(a) for a in args)})"


@dataclass
class GroundTheory:
    universe: Universe
    formulas: tuple
    provenance: dict
    facts: frozenset = frozenset()

    def __iter__(self):
        return iter(self.formulas)

    @cached_property
    def rules(self):
        """The formulas read as facts, rules and constraints; built once."""
        return rule_view(self.formulas, self.universe, _here_monotone)


def build_universe(theory: Theory, bounds: DomainBounds) -> Universe:
    return Universe(theory.signature, bounds, build_active_domain(theory, bounds))


# ---------------------------------------------------------------------------
# Grounding


def ground_theory(theory: Theory, universe: Universe) -> GroundTheory:
    """Instantiate the universal closures over the active domain.

    Set-term bound variables are left alone (they are bound, not free) and
    inner quantifiers survive; satisfaction sweeps the domain for them.
    Instances decided by interpretation-independent parts alone are folded
    away, so e.g. a rule guarded by a false membership test vanishes.
    """
    formulas = []
    provenance = {}
    seen = set()
    for phi in theory.formulas:
        names, matrix = closure_prefix(phi)
        values = universe.domain.values_for(lambda: _ranging(names, phi)) if names else ()
        count = len(values) ** len(names)
        if count > universe.bounds.instance_cap:
            raise DomainLimitError(
                f"{count} instances for {formula_statement(phi)!r}", "instance_cap"
            )
        for combo in itertools.product(values, repeat=len(names)):
            sub = {n: Val(v) for n, v in zip(names, combo)}
            instance = substitute(matrix, sub)
            instance = simplify(instance, universe)
            if instance is TOP or instance == TOP:
                continue
            if instance not in seen:
                seen.add(instance)
                formulas.append(instance)
                provenance[instance] = (phi, {n: v for n, v in zip(names, combo)})
                universe.register_intsets(instance)
    facts = {static_atom(g, universe) for g in formulas} - {None}
    return GroundTheory(universe, tuple(formulas), provenance, frozenset(facts))


def simplify(phi, universe: Universe):
    """Fold interpretation-independent atoms and propagate constants.

    ``top -> phi`` may collapse to ``phi`` because satisfaction is only
    ever queried on coherent interpretations, where here-truth persists
    to there.
    """
    if isinstance(phi, PredAtom):
        if phi.pred in RELATION_PREDS and all(_independent(a) for a in phi.args):
            left = eval_term(universe.static, T, phi.args[0])
            right = eval_term(universe.static, T, phi.args[1])
            return TOP if relation_eval(phi.pred, left, right) else BOT
        return phi
    if isinstance(phi, Eq):
        if _independent(phi.left) and _independent(phi.right):
            left = eval_term(universe.static, T, phi.left)
            right = eval_term(universe.static, T, phi.right)
            return TOP if (left is not UNDEF and left == right) else BOT
        return phi
    if isinstance(phi, And):
        left = simplify(phi.left, universe)
        right = simplify(phi.right, universe)
        if left == BOT or right == BOT:
            return BOT
        if left == TOP:
            return right
        if right == TOP:
            return left
        if left is phi.left and right is phi.right:
            return phi
        return And(left, right)
    if isinstance(phi, Or):
        left = simplify(phi.left, universe)
        right = simplify(phi.right, universe)
        if left == TOP or right == TOP:
            return TOP
        if left == BOT:
            return right
        if right == BOT:
            return left
        if left is phi.left and right is phi.right:
            return phi
        return Or(left, right)
    if isinstance(phi, Implies):
        left = simplify(phi.left, universe)
        right = simplify(phi.right, universe)
        if left == BOT or right == TOP:
            return TOP
        if left == TOP:
            return right
        if left is phi.left and right is phi.right:
            return phi
        return Implies(left, right)
    if isinstance(phi, (Forall, Exists)):
        body = simplify(phi.body, universe)
        if body == TOP or body == BOT:
            return body
        if body is phi.body:
            return phi
        return type(phi)(phi.var, body)
    return phi


# ---------------------------------------------------------------------------
# Possibly-true atoms

_TOP_MARK = object()

# Not user bounds: past either cap a possible-value set only widens to
# "any" (``_TOP_MARK``), which stays sound and aborts nothing.
_VALUE_CAP = 128
_SUBSET_CAP = 12


class _Viability:
    """Optimistic fixpoint of derivable atoms over a ground theory.

    ``possible_values`` over-approximates a term's values across all
    candidate interpretations whose atoms stay inside the current fixpoint;
    ``possibly_sat`` over-approximates there-world satisfiability.  Heads
    whose antecedents are possibly satisfiable enter the fixpoint.
    """

    def __init__(self, ground: GroundTheory):
        self.ground = ground
        self.universe = ground.universe
        self.atoms = set(ground.facts)
        self._values = {}
        self._sat = {}

    def run(self):
        """The fixpoint.  The caches stay filled in its last round, which
        added nothing, so later queries read the final atoms."""
        while True:
            self._values.clear()
            self._sat.clear()
            before = len(self.atoms)
            for phi in self._round():
                self._collect_heads(phi)
            if len(self.atoms) == before:
                return frozenset(self.atoms)

    def _round(self):
        """The formulas whose heads this round collects."""
        return self.ground.formulas

    def _derive(self, atom):
        self.atoms.add(atom)

    # -- possible values

    def possible_values(self, term):
        cached = self._values.get(term)
        if cached is not None:
            return cached
        self._values[term] = _TOP_MARK  # cut accidental cycles conservatively
        out = self._possible_values(term)
        self._values[term] = out
        return out

    def _combos(self, terms):
        """Cartesian product of the argument possibility sets, capped."""
        sets = []
        for t in terms:
            vals = self.possible_values(t)
            if vals is _TOP_MARK:
                return _TOP_MARK
            sets.append(vals)
        total = 1
        for s in sets:
            total *= len(s)
            if total > _VALUE_CAP:
                return _TOP_MARK
        return list(itertools.product(*sets))

    def _possible_values(self, term):
        bounds = self.universe.bounds
        if isinstance(term, Val):
            return frozenset((term.value,))
        if isinstance(term, Num):
            return frozenset((term.value,))
        if isinstance(term, HApp):
            combos = self._combos(term.args)
            if combos is _TOP_MARK:
                return _TOP_MARK
            out = set()
            for combo in combos:
                if UNDEF in combo:
                    out.add(UNDEF)
                else:
                    out.add(HTerm(term.name, combo))
            return frozenset(out)
        if isinstance(term, EApp):
            name = term.name
            if name in self.universe.signature.func_ranges:
                return frozenset(self.universe.signature.func_ranges[name]) | {UNDEF}
            combos = self._combos(term.args)
            if combos is _TOP_MARK:
                return _TOP_MARK
            out = set()
            for combo in combos:
                if UNDEF in combo:
                    out.add(UNDEF)
                elif name in AGGREGATE_NAMES:
                    out.add(aggregate_eval(name, combo[0], bounds))
                else:
                    out.add(builtin_func_eval(name, combo, bounds))
            return frozenset(out)
        if isinstance(term, ExtSet):
            flat = [t for m in term.members for t in m]
            combos = self._combos(flat)
            if combos is _TOP_MARK:
                return _TOP_MARK
            arity = len(term.members[0]) if term.members else 0
            out = set()
            for combo in combos:
                if UNDEF in combo:
                    out.add(UNDEF)
                    continue
                rows = [
                    tuple(combo[i * arity + j] for j in range(arity))
                    for i in range(len(term.members))
                ]
                out.add(FinSet(rows))
            return frozenset(out)
        if isinstance(term, IntSet):
            return self._possible_extensions(term)
        raise TypeError(f"unexpected term {term!r}")

    def set_candidates(self, iset):
        """The ``(head_terms, body)`` instances of a ground set term."""
        return self.universe.intset_candidates(iset)

    def _possible_extensions(self, iset):
        tuples = set()
        has_undef = False
        for head, body in self.set_candidates(iset):
            if not self.possibly_sat(body):
                continue
            combos = self._combos(head)
            if combos is _TOP_MARK:
                return _TOP_MARK
            for combo in combos:
                if UNDEF in combo:
                    has_undef = True
                else:
                    tuples.add(combo)
            if len(tuples) > _SUBSET_CAP:
                return _TOP_MARK
        out = set()
        pool = sorted(tuples, key=value_key)
        for size in range(len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                out.add(FinSet(combo))
        if has_undef:
            out.add(UNDEF)
        return frozenset(out)

    # -- optimistic satisfiability at the there-world

    def possibly_sat(self, phi):
        cached = self._sat.get(phi)
        if cached is not None:
            return cached
        self._sat[phi] = True
        out = self._possibly_sat(phi)
        self._sat[phi] = out
        return out

    def _possibly_sat(self, phi):
        if isinstance(phi, _Top):
            return True
        if isinstance(phi, _Bot):
            return False
        if isinstance(phi, PredAtom):
            combos = self._combos(phi.args)
            if combos is _TOP_MARK:
                return True
            if phi.pred in RELATION_PREDS:
                return any(
                    UNDEF not in combo and relation_eval(phi.pred, combo[0], combo[1])
                    for combo in combos
                )
            return any(
                UNDEF not in combo and (phi.pred, combo) in self.atoms for combo in combos
            )
        if isinstance(phi, Eq):
            left = self.possible_values(phi.left)
            right = self.possible_values(phi.right)
            if left is _TOP_MARK or right is _TOP_MARK:
                return True
            return any(v is not UNDEF for v in left & right)
        if isinstance(phi, And):
            return self.possibly_sat(phi.left) and self.possibly_sat(phi.right)
        if isinstance(phi, Or):
            return self.possibly_sat(phi.left) or self.possibly_sat(phi.right)
        if isinstance(phi, Implies):
            return True  # can always hold vacuously for some candidate
        if isinstance(phi, Forall):
            return all(self.possibly_sat(b) for b in self.universe.quantifier_instances(phi))
        if isinstance(phi, Exists):
            return any(self.possibly_sat(b) for b in self.universe.quantifier_instances(phi))
        raise TypeError(f"unexpected formula {phi!r}")

    # -- head collection

    def _collect_heads(self, phi):
        if isinstance(phi, PredAtom):
            if phi.pred in RELATION_PREDS:
                return
            combos = self._combos(phi.args)
            if combos is _TOP_MARK:
                arity = len(phi.args)
                values = self.universe.domain.values_for(lambda: f"head {pretty(phi)!r}")
                count = len(values) ** arity
                if count > self.universe.bounds.instance_cap:
                    raise DomainLimitError(
                        f"{count} head instances of {pretty(phi)!r}", "instance_cap"
                    )
                combos = itertools.product(values, repeat=arity)
            for combo in combos:
                if UNDEF not in combo:
                    self._derive((phi.pred, tuple(combo)))
        elif isinstance(phi, (And, Or)):
            self._collect_heads(phi.left)
            self._collect_heads(phi.right)
        elif isinstance(phi, Implies):
            if self.possibly_sat(phi.left):
                self._collect_heads(phi.right)
        elif isinstance(phi, (Forall, Exists)):
            for body in self.universe.quantifier_instances(phi):
                self._collect_heads(body)


class _Instantiation(_Viability):
    """The support fixpoint grounding its theory as it goes.

    Each closed formula ``forall xs (B -> X)`` is instantiated only with
    the values its binding occurrences allow (see ``_binding_plan``), and
    each ground set term gets candidates only for the values its body's
    binding occurrences allow.  An instance left out has a body conjunct
    that is false at the there-world of every candidate inside the upper
    bound, so it is vacuous, and so is a set-term candidate left out.
    Every value is also an active-domain value, so every instance is one
    that ``ground_theory`` makes as well.

    A round instantiates the substitutions not seen yet, then collects
    heads.  What a plan enumerates depends only on the atoms of the
    predicates it reads, so a formula is enumerated again, and a set
    term's candidates are rebuilt, only once a round starts with more
    atoms of those predicates than the round that last did so.  A round
    that adds no atom ends the fixpoint: its instantiation already saw the
    final atoms.  ``ground`` is then the theory of the instances made, and
    the universe holds the candidates of every set term they mention.
    """

    def __init__(self, theory: Theory, universe: Universe):
        super().__init__(GroundTheory(universe, (), {}))
        self._sources = [_Source(phi, *closure_prefix(phi)) for phi in theory.formulas]
        self._formulas = []
        self._provenance = {}
        self._by_pred = {}
        self._counts = {}  # atoms per predicate when the round started
        self._candidates = {}  # set term -> (stamp, candidates)
        self._set_plans = {}
        self._set_instances = {}

    def run(self):
        atoms = super().run()
        universe = self.universe
        fixed = set()
        while pending := universe.intsets - fixed:
            for iset in pending:
                universe.fix_candidates(iset, self.set_candidates(iset))
            fixed |= pending
        facts = {static_atom(g, universe) for g in self._formulas} - {None}
        self.ground = GroundTheory(
            universe, tuple(self._formulas), self._provenance, frozenset(facts)
        )
        return atoms

    def _stamp(self, reads):
        return tuple(self._counts.get(key, 0) for key in reads)

    def _round(self):
        self._counts = {key: len(values) for key, values in self._by_pred.items()}
        for source in self._sources:
            stamp = self._stamp(source.reads)
            if stamp == source.stamp:
                continue
            source.stamp = stamp
            names = source.names
            for sub in self._substitutions(source.plan, source.formula):
                combo = tuple(map(sub.__getitem__, names))
                if combo in source.done:
                    continue
                source.done.add(combo)
                instance = simplify(substitute(source.matrix, sub), self.universe)
                if instance == TOP or instance in self._provenance:
                    continue
                self._formulas.append(instance)
                self._provenance[instance] = (
                    source.formula, {n: v.value for n, v in zip(names, combo)}
                )
                self.universe.register_intsets(instance)
        return self._formulas

    def _derive(self, atom):
        if atom not in self.atoms:
            self.atoms.add(atom)
            pred, values = atom
            self._by_pred.setdefault((pred, len(values)), []).append(values)

    def set_candidates(self, iset):
        planned = self._set_plans.get(iset)
        if planned is None:
            plan = _binding_plan(iset.bound, iset.body)
            nested = any(isinstance(n, IntSet) for n in walk(iset) if n is not iset)
            planned = self._set_plans[iset] = (plan, _reads(plan), nested)
        plan, reads, nested = planned
        stamp = self._stamp(reads)
        cached = self._candidates.get(iset)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        made = self._set_instances.setdefault(iset, {})
        out = []
        for sub in self._substitutions(plan, iset):
            combo = tuple(map(sub.__getitem__, iset.bound))
            pair = made.get(combo)
            if pair is None:
                pair = made[combo] = (
                    tuple(substitute(t, sub) for t in iset.head),
                    substitute(iset.body, sub),
                )
                if nested:
                    self.universe.register_intsets(pair[1])
                    for t in pair[0]:
                        self.universe.register_intsets(t)
            out.append(pair)
        out = tuple(out)
        self._candidates[iset] = (stamp, out)
        return out

    def _substitutions(self, plan, source):
        """The substitutions ``plan`` allows under the current atoms, as
        name -> ``Val`` maps; more than ``instance_cap`` of them raise,
        naming ``source``, the formula or set term instantiated."""
        domain = self.universe.domain
        cap = self.universe.bounds.instance_cap
        out = []

        def extend(i, sub):
            if i == len(plan):
                out.append(sub)
                if len(out) > cap:
                    raise DomainLimitError(
                        f"more than {cap} instances of {_text(source)!r}", "instance_cap"
                    )
                return
            kind, arg = plan[i]
            if kind == "atom":
                for values in self._by_pred.get((arg.pred, len(arg.args)), ()):
                    bound = _match(arg.args, values, sub, domain)
                    if bound is not None:
                        extend(i + 1, bound)
                return
            if kind == "eq":
                name, term = arg
                values = self.possible_values(substitute(term, sub))
                if values is _TOP_MARK:
                    values = domain.values_for(lambda: _ranging((name,), source))
                else:
                    values = [v for v in values if v is not UNDEF and v in domain]
            else:
                name, values = arg, domain.values_for(lambda: _ranging((arg,), source))
            for v in values:
                extend(i + 1, {**sub, name: Val(v)})

        extend(0, {})
        return out


def _text(source):
    """A formula as its program statement; a set term as itself."""
    return formula_statement(source) if isinstance(source, Formula) else source


def _ranging(names, source):
    """The variables ``names`` of ``source``, a formula or set term, named
    as what ranges over the whole domain."""
    return f"variable {', '.join(names)} of {_text(source)!r}"


class _Source:
    """One closed formula of the theory and its instantiation so far:
    the plan, the ``(pred, arity)`` keys it reads, their atom counts when
    it was last enumerated, and the substitutions already made."""

    __slots__ = ("formula", "names", "matrix", "plan", "reads", "stamp", "done")

    def __init__(self, formula, names, matrix):
        self.formula = formula
        self.names = names
        self.matrix = matrix
        self.plan = _binding_plan(names, matrix.left if isinstance(matrix, Implies) else None)
        self.reads = _reads(self.plan)
        self.stamp = None
        self.done = set()


def _binding_plan(names, body):
    """Steps that give the variables ``names`` their values.

    The binding occurrences are the conjuncts of ``body`` (None when there
    is none): a positive predicate atom with a variable argument not bound
    yet matches the atoms of its predicate, binding those variables and
    checking its other arguments; then an equality ``X = t`` or ``t = X``
    whose ``t`` is bound by then gives ``X`` the possible values of ``t``.
    Each name reached by neither ranges over the domain, after which the
    equalities are tried again.  Steps are ``("atom", atom)``, ``("eq",
    (name, term))`` and ``("domain", name)``.
    """
    conjuncts, todo = [], [body] if body is not None else []
    while todo:
        phi = todo.pop()
        if isinstance(phi, And):
            todo += [phi.right, phi.left]
        else:
            conjuncts.append(phi)
    steps, bound = [], set()
    for phi in conjuncts:
        if isinstance(phi, PredAtom) and phi.pred not in RELATION_PREDS:
            new = {a.name for a in phi.args if isinstance(a, Var)} - bound
            if new:
                steps.append(("atom", phi))
                bound |= new
    equalities = [
        (side.name, other, free_vars(other))
        for phi in conjuncts
        if isinstance(phi, Eq)
        for side, other in ((phi.left, phi.right), (phi.right, phi.left))
        if isinstance(side, Var)
    ]
    for name in names:
        while True:
            step = next(
                ((n, t) for n, t, used in equalities if n not in bound and used <= bound), None
            )
            if step is None:
                break
            steps.append(("eq", step))
            bound.add(step[0])
        if name not in bound:
            steps.append(("domain", name))
            bound.add(name)
    return steps


def _reads(plan):
    """The ``(pred, arity)`` keys of the atoms whose values ``plan``
    depends on: those its atom steps match and those the terms of its
    equality steps mention, set bodies included."""
    keys = set()
    for kind, arg in plan:
        nodes = (arg,) if kind == "atom" else walk(arg[1]) if kind == "eq" else ()
        keys.update(
            (n.pred, len(n.args))
            for n in nodes
            if isinstance(n, PredAtom) and n.pred not in RELATION_PREDS
        )
    return tuple(sorted(keys))


def _match(args, values, sub, domain):
    """``sub`` extended so that the atom arguments ``args`` can denote
    ``values``, or None.  A new variable takes a domain value; an argument
    that is neither a variable nor a value is not checked."""
    out = sub
    for arg, value in zip(args, values):
        if isinstance(arg, Var):
            known = out.get(arg.name)
            if known is None:
                if value not in domain:
                    return None
                if out is sub:
                    out = dict(sub)
                out[arg.name] = Val(value)
            elif known.value != value:
                return None
        elif isinstance(arg, (Val, Num)) and arg.value != value:
            return None
    return out


def relevant_atoms(ground):
    """Atoms that can occur in some stable model: the support fixpoint of
    a ground theory, or of a ``_Viability`` the caller keeps to query it
    afterwards."""
    viability = ground if isinstance(ground, _Viability) else _Viability(ground)
    return viability.run()


# ---------------------------------------------------------------------------
# Rules, the lower bound and least models


@dataclass(frozen=True)
class RuleView:
    """Ground formulas read as rules ``body -> heads`` over atom keys.

    ``facts`` are the atoms of the formulas that are conjunctions of
    atoms; ``rules`` holds ``(body, heads)`` for every formula ``body ->
    heads`` whose head is such a conjunction; ``constraints`` holds the
    body of every formula ``body -> bot``, and ``others`` every formula of
    another shape.  ``exact`` holds when there are no others and every
    rule body and constraint passes the engine's monotonicity test, so
    that the least model of the rules decides minimality.
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
    facts, rules, constraints, others, exact = set(), [], [], [], True
    for phi in formulas:
        if isinstance(phi, _Top):
            continue
        heads = _heads(phi, universe)
        if heads is not None:
            facts |= heads
        elif isinstance(phi, Implies) and phi.right == BOT:
            # a constraint is its body's negation, so it is tested whole
            constraints.append(phi.left)
            exact = exact and monotone(phi)
        elif isinstance(phi, Implies) and (heads := _heads(phi.right, universe)) is not None:
            rules.append((phi.left, heads))
            exact = exact and monotone(phi.left)
        else:
            others.append(phi)
    return RuleView(
        frozenset(facts), tuple(rules), tuple(constraints), tuple(others), exact and not others
    )


def _here_monotone(phi) -> bool:
    """Here-truth only grows with the here-atoms below a fixed there-world.

    Negation reads only the there-world, so any other implication breaks
    the property.  A set term stays undefined at the here-world until its
    here-extension reaches its there-extension, which happens once and
    for good provided its body is monotone and its head terms hold no set
    term (whose undefinedness would make the extension undefined again).
    """
    if isinstance(phi, Implies):
        return phi.right == BOT
    if isinstance(phi, (And, Or)):
        return _here_monotone(phi.left) and _here_monotone(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return _here_monotone(phi.body)
    if isinstance(phi, PredAtom):
        return all(_monotone_term(a) for a in phi.args)
    if isinstance(phi, Eq):
        return _monotone_term(phi.left) and _monotone_term(phi.right)
    return True


def _monotone_term(term) -> bool:
    if isinstance(term, IntSet):
        return _here_monotone(term.body) and not any(
            isinstance(node, IntSet) for t in term.head for node in walk(t)
        )
    if isinstance(term, (HApp, EApp)):
        return all(_monotone_term(a) for a in term.args)
    if isinstance(term, ExtSet):
        return all(_monotone_term(t) for m in term.members for t in m)
    return True


def least_model(facts, rules, here):
    """Least atom set that holds ``facts`` and is closed under ``rules``.

    ``here(atoms)`` returns the body test at the world ``atoms``; bodies
    must be monotone in the atoms, so a rule that fired stays fired.
    """
    model = frozenset(facts)
    pending = [rule for rule in rules if not rule[1] <= model]
    while pending:
        holds = here(model)
        waiting, derived = [], set()
        for rule in pending:
            if holds(rule[0]):
                derived |= rule[1]
            else:
                waiting.append(rule)
        if not derived:
            break
        model |= derived
        pending = [rule for rule in waiting if not rule[1] <= model]
    return model


# ---------------------------------------------------------------------------
# Model checking


def satisfies(interp: HTInterpretation, w, phi) -> bool:
    """Two-world satisfaction; expects a coherence-closed interpretation."""
    return s_satisfies(interp, w, phi)


def models(interp: HTInterpretation, ground: GroundTheory) -> bool:
    """Coherence plus here-world satisfaction of every formula."""
    if not is_coherent(interp):
        return False
    return all(s_satisfies(interp, H, phi) for phi in ground.formulas)


# ---------------------------------------------------------------------------
# Stable-model search


@dataclass
class StableModel:
    atoms: frozenset
    sigma: Assignment

    def sorted_atoms(self):
        return sorted(self.atoms, key=atom_key)


@dataclass
class SearchStats:
    candidates: int = 0
    elapsed: float = 0.0


@dataclass
class StableModelReport:
    models: list
    stats: SearchStats = field(default_factory=SearchStats)

    def atom_sets(self):
        return [m.atoms for m in self.models]


def _declared_applications(ground: GroundTheory):
    """Declared-function applications whose values the theory can observe."""
    universe = ground.universe
    ranges = universe.signature.func_ranges
    if not ranges:
        return []
    apps = set()

    def scan(node):
        for sub in walk(node):
            if isinstance(sub, EApp) and sub.name in ranges:
                app = static_atom(sub, universe)
                if app is not None:
                    apps.add(app)
                else:
                    # argument value varies: cover the whole domain
                    arity = len(sub.args)
                    values = universe.domain.values_for(lambda: f"application {pretty(sub)!r}")
                    if len(values) ** arity > universe.bounds.instance_cap:
                        raise DomainLimitError(
                            f"cannot enumerate applications of {sub.name}", "instance_cap"
                        )
                    for combo in itertools.product(values, repeat=arity):
                        apps.add((sub.name, combo))

    for phi in ground.formulas:
        scan(phi)
    for iset in list(universe.intsets):
        for head, body in universe.intset_candidates(iset):
            for t in head:
                scan(t)
            scan(body)
    return sorted(apps, key=atom_key)


def _sigma_candidates(ground: GroundTheory):
    """Every total assignment of declared applications to range values."""
    apps = _declared_applications(ground)
    if not apps:
        return [Assignment()]
    ranges = ground.universe.signature.func_ranges
    choice_lists = []
    total = 1
    for name, args in apps:
        options = list(ranges[name]) + [UNDEF]
        choice_lists.append(options)
        total *= len(options)
        if total > ground.universe.bounds.instance_cap:
            raise DomainLimitError(
                f"{total} assignment candidates over {len(apps)} applications",
                "instance_cap",
            )
    out = []
    for combo in itertools.product(*choice_lists):
        funcs = {
            app: value for app, value in zip(apps, combo) if value is not UNDEF
        }
        out.append(Assignment(funcs))
    return out


def _sub_assignments(sigma: Assignment):
    """All assignments below ``sigma``: keep-or-drop each stored fact,
    largest first so the search tries the least change first."""
    items = sorted(sigma.funcs.items(), key=lambda kv: atom_key(kv[0]))
    n = len(items)
    for dropped in range(n + 1):
        for combo in itertools.combinations(range(n), dropped):
            keep = {
                key: value for i, (key, value) in enumerate(items) if i not in combo
            }
            yield Assignment(keep)


def find_countermodel(interp: HTInterpretation, ground: GroundTheory):
    """A strictly smaller here-world model below a total model, or None.

    With an exact rule view and a there-assignment that stores nothing (no
    function facts in particular), every rule body's here-truth only grows
    with the here-atoms, so the least here-model is the least model of the
    rules: the candidate is stable iff it is that model, which is otherwise
    the countermodel of least cardinality.  Every other case takes the
    subset search.
    """
    view = ground.rules
    if not view.exact or interp.sigma_t.funcs or interp.sigma_t.sets:
        return _countermodel_search(interp, ground)
    universe = ground.universe
    atoms_t = interp.atoms_t
    sigma = Assignment()
    # a body false at the there-world is false at every here-world below
    rules = [rule for rule in view.rules if s_satisfies(interp, T, rule[0])]

    def here(atoms):
        world = HTInterpretation(universe, sigma, sigma, atoms, atoms_t, check=False)
        return lambda body: s_satisfies(world, H, body)

    least = least_model(view.facts, rules, here)
    if least == atoms_t:
        return None
    return HTInterpretation(universe, sigma, sigma, least, atoms_t, check=False)


def _countermodel_search(interp: HTInterpretation, ground: GroundTheory):
    """Reference minimality check: enumerate ``H`` by increasing
    cardinality (facts always stay in) and, for declared functions, every
    sub-assignment of the there-assignment; return the first model.
    """
    universe = ground.universe
    total_atoms = interp.atoms_t
    sigma_t = interp.sigma_t
    base_sigma = Assignment(sigma_t.funcs)
    forced = frozenset(a for a in ground.facts if a in total_atoms)
    free = sorted(total_atoms - forced, key=atom_key)
    sub_sigmas = list(_sub_assignments(base_sigma))
    for card in range(len(free) + 1):
        for combo in itertools.combinations(free, card):
            atoms_h = forced | set(combo)
            for sigma_h in sub_sigmas:
                if len(atoms_h) == len(total_atoms) and sigma_h == base_sigma:
                    continue  # not strictly smaller
                candidate = HTInterpretation(
                    universe, sigma_h, base_sigma, atoms_h, total_atoms, check=False
                )
                if all(s_satisfies(candidate, H, phi) for phi in ground.formulas):
                    return candidate
    return None


def check_equilibrium(interp: HTInterpretation, theory_or_ground):
    """Decide whether a total coherent model is in equilibrium.

    Returns ``(True, None)`` or ``(False, countermodel)``; also ``False``
    (with no countermodel) when the candidate is not a model at all.
    """
    ground = _as_ground(theory_or_ground, interp.universe)
    if not all(s_satisfies(interp, T, phi) for phi in ground.formulas):
        return False, None
    counter = find_countermodel(interp, ground)
    if counter is None:
        return True, None
    return False, counter


def _as_ground(theory_or_ground, universe):
    if isinstance(theory_or_ground, GroundTheory):
        return theory_or_ground
    return ground_theory(theory_or_ground, universe)


def _missing_ranges(theory: Theory):
    declared = set(theory.signature.func_ranges)
    missing = set()
    for name, arity in theory.signature.evaluables.items():
        if name not in AGGREGATE_NAMES and name not in declared:
            missing.add(name)
    return missing


def find_stable_models(theory: Theory, bounds: DomainBounds = None) -> StableModelReport:
    """Enumerate the stable models of a theory within the given bounds."""
    bounds = bounds or DomainBounds()
    missing = _missing_ranges(theory)
    if missing:
        raise RangeDeclarationError(
            f"no #function range declared for: {', '.join(sorted(missing))}"
        )
    universe = build_universe(theory, bounds)
    if not bounds.full_domain and not universe.domain.has_set_layer:
        narrowed = set_argument_functions(theory)
        if narrowed:
            raise SetAspError(
                f"declared function {', '.join(narrowed)} takes set arguments but the "
                "active domain has no set layer; pass --full-domain"
            )
    return _solve(_Instantiation(theory, universe))


def solve_ground(ground: GroundTheory) -> StableModelReport:
    """Search a theory grounded in full, as by ``ground_theory``."""
    if any(phi == BOT for phi in ground.formulas):
        return StableModelReport([])
    return _solve(_Viability(ground))


def _solve(viability: _Viability) -> StableModelReport:
    started = time.perf_counter()
    upper = relevant_atoms(viability)
    stats = SearchStats()

    def stable_in(search):
        # a stored fact that only dropped rules read is in no stable model
        sigma_space = _sigma_candidates(search)

        def stable(t_atoms):
            for sigma_t in sigma_space:
                stats.candidates += 1
                candidate = HTInterpretation.total(search.universe, sigma_t, t_atoms)
                # total interpretations collapse both worlds, so the there-world
                # check decides modelhood
                if not all(s_satisfies(candidate, T, phi) for phi in search.formulas):
                    continue
                if find_countermodel(candidate, search) is None:
                    return StableModel(t_atoms, _witness(candidate))
            return None

        return stable

    found = search_stable(viability, upper, stable_in)
    stats.elapsed = time.perf_counter() - started
    return StableModelReport(found, stats)


def _witness(interp: HTInterpretation) -> Assignment:
    """Materialize the derived set values into the reported assignment."""
    sets = {}
    for iset in interp.universe.intsets:
        value = eval_term(interp, T, iset)
        if value is not UNDEF:
            sets[iset] = value
    return Assignment(interp.sigma_t.funcs, sets)
