"""The reference grounding and the equilibrium engine's support fixpoint.

``ground_theory`` instantiates every closed formula over the active
domain, folding what no interpretation can change (``simplify``); the GZ
engine, ``setasp ground`` and ``solve_ground`` read it, and it is the
reference of the binding-driven instantiation in ``instantiate``, which
this module never imports.  ``_Viability`` computes the equilibrium
engine's upper bound: the atoms that some rule chain can support,
over-approximated by the possible values of each term
(``relevant_atoms``).  The GZ engine grounds in full and takes its upper
bound from the root bounds of the search's propagation instead
(``search._Propagation``).  Both read what a formula can make true
through ``heads`` and aggregate values through ``aggregate_values``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainLimitError
from .interp import (
    T,
    Universe,
    _independent,
    aggregate_eval,
    builtin_func_eval,
    eval_term,
    reads_interpretation,
    relation_eval,
    static_atom,
)
from .parser import Theory
from .rules import rule_view
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
    _BinConn,
    _Bot,
    _Top,
    closure_prefix,
    comparison,
    conjuncts,
    fold,
    formula_statement,
    free_vars,
    ground_constructor_value,
    pretty,
    substitute,
    walk,
)
from .values import UNDEF, FinSet, HTerm


@dataclass
class GroundTheory:
    universe: Universe
    formulas: tuple
    provenance: dict

    @property
    def facts(self):
        """The atoms of the formulas that are conjunctions of atoms, as the
        rule view reads them (``rules``)."""
        return self.rules.facts

    @cached_property
    def rules(self):
        """The formulas read as facts, rules and constraints; built once."""
        return rule_view(self.formulas, self.universe, _here_monotone)


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
    ``instantiate._Instantiation``, whose reference it is.  More than
    ``instance_cap`` values tried for one formula, a value per variable
    per substitution or partial substitution, raise.
    """
    formulas = []
    provenance = {}
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
            if instance not in provenance:
                formulas.append(instance)
                provenance[instance] = (phi, {n: v for n, v in zip(names, combo)})
                universe.register_intsets(instance)
    return GroundTheory(universe, tuple(formulas), provenance)


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
    guards = []
    for part in conjuncts(matrix.left):
        if comparison(part) is not None:
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
            return TOP if relation_eval("=", left, right) else BOT
        return phi
    if isinstance(phi, _BinConn):
        left = simplify(phi.left, universe)
        right = simplify(phi.right, universe)
        if left is not phi.left or right is not phi.right:
            phi = type(phi)(left, right)
        return fold(phi)
    if isinstance(phi, (Forall, Exists)):
        body = simplify(phi.body, universe)
        if body == TOP or body == BOT:
            return body
        if body is phi.body:
            return phi
        return type(phi)(phi.var, body)
    return phi


def instances(phi, universe: Universe):
    """The instances of the quantifier ``phi`` folded by ``simplify``, less
    those it folds to false."""
    folded = (simplify(body, universe) for body in universe.quantifier_instances(phi))
    return [body for body in folded if body != BOT]


def _text(source):
    """A formula as its program statement; a set term as itself."""
    return formula_statement(source) if isinstance(source, Formula) else source


def _ranging(names, source):
    """The variables ``names`` of ``source``, a formula or set term, named
    as what ranges over the whole domain."""
    return f"variable {', '.join(names)} of {_text(source)!r}"


# ---------------------------------------------------------------------------
# Monotone rule bodies


def _here_monotone(node) -> bool:
    """Here-truth only grows with the here-atoms below a fixed there-world.

    Negation reads only the there-world, so any other implication breaks
    the property.  A set term stays undefined at the here-world until its
    here-extension reaches its there-extension, which happens once and
    for good provided its body is monotone and its head terms hold no set
    term (whose undefinedness would make the extension undefined again).
    """
    if isinstance(node, Implies):
        return node.right == BOT
    if isinstance(node, IntSet):
        return _here_monotone(node.body) and not any(
            isinstance(sub, IntSet) for t in node.head for sub in walk(t)
        )
    return all(map(_here_monotone, node.children))


# ---------------------------------------------------------------------------
# Possibly-true atoms


def heads(phi, universe: Universe, admit=None, antecedents=()):
    """What the ground formula ``phi`` can make true, as ``(antecedents,
    atom)``: each predicate atom outside every ``->`` left side, with the
    left sides it lies under, read through quantifier instances and the
    members of each set term that a comparison there holds
    (``_member_heads``): the comparison holds at a here-world that holds
    every member true at the there-world, as its set terms then take
    their there-world extensions.  A left side that ``admit`` rejects yields
    ``(antecedents, None)``, and nothing right of it is instantiated."""
    if isinstance(phi, Implies):
        if admit is None or admit(phi.left):
            yield from heads(phi.right, universe, admit, (*antecedents, phi.left))
        else:
            yield antecedents, None
    elif isinstance(phi, PredAtom) and phi.pred not in RELATION_PREDS:
        yield antecedents, phi
    elif isinstance(phi, (And, Or)):
        yield from heads(phi.left, universe, admit, antecedents)
        yield from heads(phi.right, universe, admit, antecedents)
    elif isinstance(phi, (Forall, Exists)):
        for body in instances(phi, universe):
            yield from heads(body, universe, admit, antecedents)
    elif comparison(phi) is not None:
        read = {}
        for rel, agg, other, flip in aggregate_sides(phi):
            # none under a ``:=``'s guard ``t = t``: the set is as at the there-world
            guarded = Eq(agg, agg) in (part for a in antecedents for part in conjuncts(a))
            read[agg.args[0]] = () if guarded else _read_members(rel, agg, other, flip, universe)
        yield from _member_heads(phi, read, universe, admit, antecedents)


def _member_heads(node, read, universe, admit, antecedents):
    """The heads of the member bodies of each outermost set term of
    ``node``, those ``read`` gives an aggregate side (``_read_members``),
    and of the set terms in the members' heads."""
    if isinstance(node, IntSet):
        for head, body in read[node] if node in read else universe.intset_candidates(node):
            yield from heads(body, universe, admit, antecedents)
            for term in head:
                yield from _member_heads(term, {}, universe, admit, antecedents)
    else:
        for child in node.children:
            yield from _member_heads(child, read, universe, admit, antecedents)


def aggregate_sides(phi):
    """Each side ``agg`` of the comparison ``phi`` that aggregates a set
    term, as ``(rel, agg, other, flip)``, ``flip`` when it is on the right."""
    if (parts := comparison(phi)) is None:
        return
    rel, left, right = parts
    for agg, other, flip in ((left, right, False), (right, left, True)):
        if isinstance(agg, EApp) and agg.name in AGGREGATE_NAMES and isinstance(agg.args[0], IntSet):
            yield rel, agg, other, flip


def accepted(reach, rel, value, flip, bounds, negated=False):
    """The bits of ``reach`` (``aggregate_values``) at which the side
    ``rel value`` (``aggregate_sides``) holds, or with ``negated`` fails."""
    return sum(
        1 << (v - bounds.int_min)
        for v in _bit_values(reach, bounds)
        if relation_eval(rel, *((value, v) if flip else (v, value))) != negated
    )


def _read_members(rel, agg, other, flip, universe):
    """The instances of ``agg``'s set term whose weight, with some choice
    of the others, reaches a value at which the comparison holds: any
    other is false wherever it holds.  All are read where the other side,
    or a head that ``agg`` weighs, is not fixed (``fixed_value``)."""
    members = universe.intset_candidates(agg.args[0])
    name, bounds, value = agg.name, universe.bounds, fixed_value(other, universe)
    values = [() if name == "count" else tuple(fixed_value(t, universe) for t in head) for head, _ in members]
    if value is None or any(None in v for v in values):
        return members
    weights = [member_weight(name, v) for v in values]
    accept = accepted(aggregate_values(name, (), weights, bounds)[0], rel, value, flip, bounds)
    rest = ((weights[i : i + 1], weights[:i] + weights[i + 1 :]) for i in range(len(members)))
    return [m for m, w in zip(members, rest) if aggregate_values(name, *w, bounds)[0] & accept]


def fixed_value(term, universe: Universe):
    """The value of ``term`` when the interpretation cannot change it,
    else None: arithmetic folds, as in both engines."""
    value = ground_constructor_value(term)
    if value is None and _independent(term):
        value = eval_term(universe.static, T, term)
    return value


_TOP_MARK = object()

# Not user bounds: past either cap a possible-value set only widens to
# "any" (``_TOP_MARK``), which stays sound and aborts nothing.  Only
# enumerated values widen: a product of argument values past
# ``_VALUE_CAP`` combinations, and the extensions of a set term past
# ``_SUBSET_CAP`` members.  An aggregate of a set term reads its values
# from the members, however many, so it widens only where a member's head
# does.
_VALUE_CAP = 128
_SUBSET_CAP = 12


class _Viability:
    """Optimistic fixpoint of derivable atoms over a ground theory.

    ``possible_values`` over-approximates a term's values across all
    candidate interpretations whose atoms stay inside the current fixpoint;
    ``possibly_sat`` over-approximates there-world satisfiability.  Heads
    whose antecedents are possibly satisfiable enter the fixpoint.
    ``possibly_sat`` asks ``_possibly_atom`` about atoms and equalities;
    on the GZ fragment it admits every body that some subset of the atoms
    satisfies classically.
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
        queries, such as the set-term instances and antecedents that
        ``solver._declared_applications`` scans, are answered on demand
        against the final atoms."""
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

    def argument_values(self, terms, what):
        """The value tuples ``terms`` can take: the product of their
        possible values, or of the whole domain where a term holds a
        variable or the product passes the cap, ``what()`` naming them."""
        if any(map(free_vars, terms)) or (combos := self._combos(terms)) is _TOP_MARK:
            return self.universe.domain.product(len(terms), what)
        return combos

    def _lift(self, terms, build):
        """What ``build`` makes of each combination of the possible values
        of ``terms``, undefined where one of them is; ``_TOP_MARK`` past
        the cap."""
        combos = self._combos(terms)
        if combos is _TOP_MARK:
            return _TOP_MARK
        return frozenset(UNDEF if UNDEF in combo else build(combo) for combo in combos)

    def _possible_values(self, term):
        bounds = self.universe.bounds
        if isinstance(term, (Val, Num)):
            return frozenset((term.value,))
        if isinstance(term, HApp):
            return self._lift(term.args, lambda combo: HTerm(term.name, combo))
        if isinstance(term, EApp):
            name = term.name
            if name in self.universe.signature.func_ranges:
                return frozenset(self.universe.signature.func_ranges[name]) | {UNDEF}
            if name in AGGREGATE_NAMES:
                if isinstance(term.args[0], IntSet):
                    return self._aggregate_values(name, term.args[0])
                return self._lift(term.args, lambda combo: aggregate_eval(name, combo[0], bounds))
            return self._lift(term.args, lambda combo: builtin_func_eval(name, combo, bounds))
        if isinstance(term, ExtSet):
            arity = len(term.members[0]) if term.members else 0
            rows = range(len(term.members))
            return self._lift(
                term.children,
                lambda combo: FinSet(combo[i * arity : (i + 1) * arity] for i in rows),
            )
        if isinstance(term, IntSet):
            return self._possible_extensions(term)
        raise TypeError(f"unexpected term {term!r}")

    def set_candidates(self, iset):
        """The ``(head_terms, body)`` instances of a ground set term."""
        return self.universe.intset_candidates(iset)

    def _possible_members(self, iset):
        """The member tuples a set term can have inside the fixpoint, and
        whether a member can be undefined; ``_TOP_MARK`` where a head's
        values widen.  Kept for the round, like the possible values, so the
        set term and its aggregates ask for its candidates once."""
        key = ("members", iset)
        cached = self._values.get(key)
        if cached is not None:
            return cached
        # cuts accidental cycles conservatively, and stays where a head widens
        self._values[key] = _TOP_MARK
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
        out = self._values[key] = (tuple(tuples), has_undef)
        return out

    def _possible_extensions(self, iset):
        members = self._possible_members(iset)
        if members is _TOP_MARK or len(members[0]) > _SUBSET_CAP:
            return _TOP_MARK
        pool, has_undef = members
        out = set()
        for size in range(len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                out.add(FinSet(combo))
        if has_undef:
            out.add(UNDEF)
        return frozenset(out)

    def _aggregate_values(self, name, iset):
        """What ``aggregate_eval`` gives on each possible extension of ``iset``,
        read from its members (``aggregate_values``)."""
        members = self._possible_members(iset)
        if members is _TOP_MARK:
            return _TOP_MARK
        pool, has_undef = members
        bounds = self.universe.bounds
        bits, undefined = aggregate_values(name, (), [member_weight(name, h) for h in pool], bounds)
        values = frozenset(_bit_values(bits, bounds))
        return values | {UNDEF} if undefined or has_undef else values

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
        if isinstance(phi, (PredAtom, Eq)):
            return self._possibly_atom(phi)
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

    def _possibly_atom(self, phi):
        """Whether an atom or an equality can hold inside the fixpoint; a
        ground atom exactly, as a static key gives each argument one value."""
        if isinstance(phi, Eq):
            left = self.possible_values(phi.left)
            right = self.possible_values(phi.right)
            if left is _TOP_MARK or right is _TOP_MARK:
                return True
            return any(v is not UNDEF for v in left & right)
        atom = static_atom(phi, self.universe)
        if atom is not None:
            return atom in self.atoms
        combos = self._combos(phi.args)
        if combos is _TOP_MARK:
            return True
        if phi.pred in RELATION_PREDS:
            return any(
                UNDEF not in combo and relation_eval(phi.pred, combo[0], combo[1])
                for combo in combos
            )
        return any(UNDEF not in combo and (phi.pred, combo) in self.atoms for combo in combos)

    # -- head collection

    def _collect_heads(self, phi):
        """Derive the heads of ``phi`` (``heads``) whose antecedents can
        hold; return whether no later round can derive more from it: every
        antecedent on the way passed and every head is a static atom."""
        universe, retired = self.universe, True
        for _, head in heads(phi, universe, self.possibly_sat):
            atom = head and static_atom(head, universe)
            retired = retired and atom is not None
            if atom is not None:
                self._derive(atom)
            elif head is not None:
                for combo in self.argument_values(head.args, lambda: f"head {pretty(head)!r}"):
                    if UNDEF not in combo:
                        self._derive((head.pred, tuple(combo)))
        return retired


def member_weight(name, head):
    """What a member whose head is the tuple ``head`` brings to the
    aggregate ``name``: 1 to a ``count``, its first value to a ``sum``, its
    one value to a ``max`` or ``min``; None where that value is not an
    integer, which undefines every extension holding the member."""
    if name == "count":
        return 1
    value = head[0] if name == "sum" or len(head) == 1 else None
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def aggregate_values(name, certain, optional, bounds):
    """The values of the aggregate ``name`` on the extensions holding every
    member weighed in ``certain`` and any of ``optional`` (``member_weight``),
    as ``(bits, undefined)``: bit ``v - bounds.int_min`` is set when some
    extension takes the integer ``v`` inside the bounds, and ``undefined``
    when one is undefined: past the bounds, by a weight of None, or empty
    for ``max`` and ``min``.  Subset sums come from one pass over a bitset
    whose bit ``i`` stands for the sum ``low + i``."""
    if None in certain:
        return 0, True
    undefined = None in optional
    weights = [w for w in optional if w is not None] if undefined else optional
    if name in ("count", "sum"):
        bits, low = 1, sum(certain)
        for w in weights:
            if w >= 0:
                bits |= bits << w
            else:
                bits, low = bits << -w | bits, low + w
    else:
        pick = max if name == "max" else min  # an extreme member settles it
        values = {pick([*certain, w]) for w in (*weights, *certain[:1])}
        undefined = undefined or not certain
        low = min(values, default=0)
        bits = sum(1 << (v - low) for v in values)
    shift = bounds.int_min - low  # where ``int_min``'s bit lies
    bits, below = (bits >> shift, bits % (1 << shift)) if shift > 0 else (bits << -shift, 0)
    width = max(0, bounds.int_max - bounds.int_min + 1)
    past = bits >> width
    return bits ^ past << width, undefined or below != 0 or past != 0


def _bit_values(bits, bounds):
    """The values whose bits ``bits`` sets (``aggregate_values``)."""
    while bits:
        least = bits & -bits
        bits ^= least
        yield bounds.int_min + least.bit_length() - 1


def relevant_atoms(ground):
    """Atoms that can occur in some stable model: the support fixpoint of
    a ground theory, or of a ``_Viability`` the caller keeps to query it
    afterwards."""
    viability = ground if isinstance(ground, _Viability) else _Viability(ground)
    return viability.run()
