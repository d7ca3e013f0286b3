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

The support fixpoint (``_Viability``) serves the reduct engine in ``gz``
too, as do the rule view and rule fixpoint (``rules``), the ground-atom
reading (``interp.static_atom``) and the candidate loop
(``search.search_stable``): each engine supplies only its own "can hold"
test, model test and minimality check.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property

from .domain import DomainBounds, _term_sort, build_active_domain, set_argument_functions
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
    reads_interpretation,
    relation_eval,
    s_satisfies,
    static_atom,
)
from .parser import Theory
from .rules import least_model, rule_view
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

    A formula whose body has a guard (``_guard_plan``) enumerates only the
    substitutions that no guard folds to false: a variable that an
    equality defines from others takes that one value once they are bound,
    and a partial substitution is cut once a guard fails.  Each instance
    cut has a false body, so it would fold to true and vanish; the
    instances, their order and their provenance are those of every
    substitution over the domain.  The plan prunes by evaluation alone,
    never by atoms, so this grounding stays independent of
    ``_Instantiation``, whose reference it is.  More than ``instance_cap``
    values tried for one formula, a value per variable per substitution
    or partial substitution, raise.
    """
    formulas = []
    provenance = {}
    seen = set()
    index = None  # a domain value -> its position in the domain, built on first use
    for phi in theory.formulas:
        names, matrix = closure_prefix(phi)
        values = universe.domain.values_for(lambda: _ranging(names, phi)) if names else ()
        spend = _budget(universe.bounds.instance_cap, phi)
        plan = _guard_plan(names, matrix)
        if plan is None:
            combos = itertools.product(values, repeat=len(names))
        else:
            index = index or {v: i for i, v in enumerate(values)}
            combos = _guarded(names, plan, values, index, universe, spend)
        for combo in combos:
            if plan is None:
                spend()
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


def _budget(cap, phi):
    """A counter of the values tried for ``phi`` that raises past ``cap``."""
    tried = itertools.count(1)

    def spend():
        if next(tried) > cap:
            raise DomainLimitError(f"more than {cap} instances of {formula_statement(phi)!r}", "instance_cap")

    return spend


def _guard_plan(names, matrix):
    """The steps that bind ``names`` one at a time, each ``(position,
    term, guards)``: the variable's position in ``names``, the term that
    alone defines it or None, and the guards to test once it is bound;
    None when the formula ``B -> X`` has no guard.

    A guard is a conjunct of ``B``'s top-level ``And`` chain that reads
    nothing of an interpretation but the variables: an equality or a
    comparison with no node that ``reads_interpretation``, which folds to
    true or false once its variables are bound.  An equality ``V = t`` or
    ``t = V`` whose ``t`` reads only bound variables defines ``V``, so
    ``V`` is bound as soon as ``t``'s variables are, whatever the names;
    the other variables are bound in name order, those that no equality
    could define first.  Any other guard is tested at its last variable.
    """
    if not names or not isinstance(matrix, Implies):
        return None
    guards, todo = [], [matrix.left]
    while todo:
        part = todo.pop()
        if isinstance(part, And):
            todo += (part.right, part.left)
        elif isinstance(part, Eq) or isinstance(part, PredAtom) and part.pred in RELATION_PREDS:
            if not any(map(reads_interpretation, walk(part))) and free_vars(part) <= set(names):
                guards.append((part, free_vars(part)))
    if not guards:
        return None
    defines = [  # (variable, term, the equality)
        (var.name, term, part)
        for part, _ in guards
        if isinstance(part, Eq)
        for var, term in ((part.left, part.right), (part.right, part.left))
        if isinstance(var, Var) and var.name not in free_vars(term)
    ]
    steps, bound = [], set()
    while len(bound) < len(names):
        step = next(((v, t, g) for v, t, g in defines if v not in bound and free_vars(t) <= bound), None)
        if step is None:
            free = [n for n in names if n not in bound]
            step = (next((n for n in free if all(v != n for v, _, _ in defines)), free[0]), None, None)
        bound.add(step[0])
        tests = [g for g, used in guards if g is not step[2] and step[0] in used and used <= bound]
        steps.append((names.index(step[0]), step[1], tests))
    return steps


def _guarded(names, plan, values, index, universe, spend):
    """The substitutions of ``names`` over ``values`` that ``plan`` keeps,
    as value tuples in ``itertools.product`` order.  A defined variable
    takes the value of its term if ``index`` places it in the domain, else
    none; each value tried is ``spend``-t."""
    sub, at, kept = {}, [0] * len(names), []

    def extend(k):
        if k == len(plan):
            kept.append(tuple(at))
            return
        i, term, tests = plan[k]
        if term is None:
            choices = range(len(values))
        else:
            j = index.get(eval_term(universe.static, T, substitute(term, sub)))
            choices = () if j is None else (j,)
        for j in choices:
            spend()
            sub[names[i]] = Val(values[j])
            if not any(simplify(substitute(g, sub), universe) == BOT for g in tests):
                at[i] = j
                extend(k + 1)

    extend(0)
    kept.sort()  # the binding order may differ from the names'
    return [tuple(values[j] for j in combo) for combo in kept]


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
        self._fresh = ground.formulas

    def run(self):
        """The fixpoint.  A round collects heads from the instances it
        makes (``_round``) and from those still pending.  An instance
        retires once ``_collect_heads`` has collected all it ever will:
        every body on the way to its heads has passed ``possibly_sat`` and
        every head is a static atom.  This is sound because
        ``possibly_sat`` and ``possible_values`` only grow as the atoms
        grow, so a body that passed once passes in every later round.

        The caches are emptied at the start of each round.  The last
        round adds no atom and judges only the pending bodies; later
        queries, such as ``search_theory`` asking about the rest, are
        answered on demand against the final atoms."""
        pending = ()
        while True:
            self._values.clear()
            self._sat.clear()
            before = len(self.atoms)
            pending = [phi for phi in (*pending, *self._round()) if not self._collect_heads(phi)]
            if len(self.atoms) == before:
                return frozenset(self.atoms)

    def _round(self):
        """The instances new this round: the whole ground theory, once."""
        fresh, self._fresh = self._fresh, ()
        return fresh

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
        """Derive the heads of ``phi`` whose bodies can hold; return
        whether no later round can derive more from it: every body on the
        way passed and every head is a static atom."""
        if isinstance(phi, PredAtom):
            if phi.pred in RELATION_PREDS:
                return True
            atom = static_atom(phi, self.universe)
            if atom is not None:
                self._derive(atom)
                return True
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
            return False
        if isinstance(phi, (And, Or)):
            left = self._collect_heads(phi.left)
            return self._collect_heads(phi.right) and left
        if isinstance(phi, Implies):
            return self.possibly_sat(phi.left) and self._collect_heads(phi.right)
        if isinstance(phi, (Forall, Exists)):
            bodies = self.universe.quantifier_instances(phi)
            return all([self._collect_heads(body) for body in bodies])
        return True


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

    The rounds are semi-naive.  A round enumerates, for each formula,
    only the substitutions that use an atom derived since the formula was
    last enumerated (``_new_substitutions``), and collects heads from the
    instances it makes and from those still pending.  A set term's
    candidates grow the same way when it is next asked for them.  A round
    that adds no atom ends the fixpoint: every substitution that the
    final atoms allow has been made.  ``ground`` is then the theory of the
    instances made, and the universe holds the candidates of every set
    term they mention.
    """

    def __init__(self, theory: Theory, universe: Universe):
        super().__init__(GroundTheory(universe, (), {}))
        self._sources = []
        for phi in theory.formulas:
            names, matrix = closure_prefix(phi)
            body = matrix.left if isinstance(matrix, Implies) else None
            sets = any(isinstance(node, IntSet) for node in walk(matrix))
            self._sources.append((_Source(phi, names, body), matrix, sets))
        self._formulas = []
        self._provenance = {}
        self._by_pred = {}
        self._set_sources = {}  # set term -> (source, whether it nests set terms)
        self._candidates = {}  # set term -> its candidates so far

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

    def _round(self):
        """Instantiate the new substitutions; the instances made."""
        start = len(self._formulas)
        for source, matrix, sets in self._sources:
            names = source.names
            for sub in self._new_substitutions(source)[0]:
                combo = tuple(map(sub.__getitem__, names))
                if combo in source.done:
                    continue
                source.done[combo] = None
                instance = simplify(substitute(matrix, sub), self.universe)
                if instance == TOP or instance in self._provenance:
                    continue
                self._formulas.append(instance)
                self._provenance[instance] = (
                    source.subject, {n: v.value for n, v in zip(names, combo)}
                )
                if sets:
                    self.universe.register_intsets(instance)
        return self._formulas[start:]

    def _derive(self, atom):
        if atom not in self.atoms:
            self.atoms.add(atom)
            pred, values = atom
            self._by_pred.setdefault((pred, len(values)), []).append(values)

    def set_candidates(self, iset):
        planned = self._set_sources.get(iset)
        if planned is None:
            nested = any(isinstance(n, IntSet) for n in walk(iset) if n is not iset)
            planned = self._set_sources[iset] = (_Source(iset, iset.bound, iset.body), nested)
        source, nested = planned
        subs, whole = self._new_substitutions(source)
        if not subs and not whole:
            return self._candidates[iset]
        made = source.done
        out = [] if whole else list(self._candidates[iset])
        for sub in subs:
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
        out = self._candidates[iset] = tuple(out)
        return out

    def _new_substitutions(self, source):
        """The substitutions of ``source`` that the atoms derived since its
        last enumeration allow, and whether they are all that the current
        atoms allow.

        ``_by_pred`` lists only grow at their ends, so the atoms a key had
        then are a prefix of its list.  While only keys that atom steps
        read have grown, a new substitution uses at least one atom past
        its prefix (``_substitutions`` with ``since``).  Once a key that
        an equality step's term reads grows, say through a set term or an
        aggregate, a term's possible values may have grown too, and every
        substitution is enumerated again; ``done`` keeps what was made.
        ``count`` holds the substitutions that ``instance_cap`` counts:
        those of every enumeration since the last full one."""
        counts = {key: len(self._by_pred.get(key, ())) for key in source.reads}
        if counts == source.stamp:
            return (), False
        since = source.stamp
        if since is not None and any(since[key] != counts[key] for key in source.eq_reads):
            since = None
        if since is None:
            source.count = 0
        source.stamp = counts
        subs = self._substitutions(source, since, source.count)
        source.count += len(subs)
        return subs, since is None

    def _substitutions(self, source, since=None, counted=0):
        """The substitutions ``source``'s plan allows under the current
        atoms, as name -> ``Val`` maps; with ``since``, the atom count of
        each key at an earlier enumeration, only those that use an atom
        past that count.  Those are, for each atom step with such atoms,
        the substitutions where the earlier atom steps match old atoms,
        the step itself a new one and the later steps any.  More than
        ``instance_cap`` substitutions, ``counted`` earlier ones included,
        raise, naming the formula or set term instantiated."""
        plan = source.plan
        domain = self.universe.domain
        cap = self.universe.bounds.instance_cap
        left = cap - counted
        lists = {
            i: self._by_pred.get(_key(arg), ()) for i, (kind, arg) in enumerate(plan)
            if kind == "atom"
        }
        everything = {i: (0, len(atoms)) for i, atoms in lists.items()}
        if since is None:
            windows = [everything]
        else:
            old = {i: since[_key(plan[i][1])] for i in lists}
            windows = [
                {i: (0, old[i]) if i < j else (old[j], end) if i == j else everything[i]
                 for i in lists}
                for j, (_, end) in everything.items()
                if old[j] < end
            ]
        out = []

        def extend(i, sub):
            if i == len(plan):
                out.append(sub)
                if len(out) > left:
                    raise DomainLimitError(
                        f"more than {cap} instances of {_text(source.subject)!r}",
                        "instance_cap",
                    )
                return
            kind, arg = plan[i]
            if kind == "atom":
                atoms = lists[i]
                for k in range(*window[i]):
                    bound = _match(arg.args, atoms[k], sub, domain)
                    if bound is not None:
                        extend(i + 1, bound)
                return
            if kind == "eq":
                name, term = arg
                values = self.possible_values(substitute(term, sub))
                if values is _TOP_MARK:
                    # an integer-sorted term takes no set or Herbrand value
                    values = (
                        domain.ints
                        if _term_sort(term, self.universe.signature) == "int"
                        else domain.values_for(lambda: _ranging((name,), source.subject))
                    )
                else:
                    values = [v for v in values if v is not UNDEF and v in domain]
            else:
                name = arg
                values = domain.values_for(lambda: _ranging((name,), source.subject))
            for v in values:
                extend(i + 1, {**sub, name: Val(v)})

        for window in windows:
            extend(0, {})
        return out


def _key(atom):
    return atom.pred, len(atom.args)


def _text(source):
    """A formula as its program statement; a set term as itself."""
    return formula_statement(source) if isinstance(source, Formula) else source


def _ranging(names, source):
    """The variables ``names`` of ``source``, a formula or set term, named
    as what ranges over the whole domain."""
    return f"variable {', '.join(names)} of {_text(source)!r}"


class _Source:
    """One closed formula or ground set term and its instantiation so far:
    the binding plan for its variables ``names``, the ``(pred, arity)``
    keys the plan reads and those its equality steps read, their atom
    counts at the last enumeration (``stamp``), the substitutions that
    ``instance_cap`` counts, and the variable values already made
    (``done``, for a set term mapped to its candidate)."""

    __slots__ = ("subject", "names", "plan", "reads", "eq_reads", "stamp", "count", "done")

    def __init__(self, subject, names, body):
        self.subject = subject
        self.names = names
        self.plan = _binding_plan(names, body)
        self.reads, self.eq_reads = _reads(self.plan)
        self.stamp = None
        self.count = 0
        self.done = {}


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
    depends on, and those of them that the terms of its equality steps
    mention, set bodies included."""
    keys, eq_keys = set(), set()
    for kind, arg in plan:
        if kind == "atom":
            keys.add(_key(arg))
        elif kind == "eq":
            eq_keys.update(
                _key(n) for n in walk(arg[1])
                if isinstance(n, PredAtom) and n.pred not in RELATION_PREDS
            )
    return tuple(sorted(keys | eq_keys)), tuple(sorted(eq_keys))


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
# Monotone rule bodies


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

    least = least_model(view.facts, rules, here, universe)
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
