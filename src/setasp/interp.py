"""Assignments, two-world interpretations and term/formula evaluation.

An interpretation carries two worlds, ``h`` ("here") and ``t`` ("there"),
with ``h`` holding at most as much information as ``t``: its atom set is a
subset and its assignment is pointwise compatible-but-possibly-undefined.

Evaluation is strict in the undefined mark: any undefined argument makes an
application undefined, and an atom mentioning an undefined value is false.
Intensional sets are not free: their value at ``t`` is their extension
there, and their value at ``h`` is the ``h`` extension when both worlds
agree and undefined otherwise.  Aggregate applications are derived from the
set value, never stored.
"""

from __future__ import annotations

from .domain import ActiveDomain, DomainBounds
from .parser import Signature
from .syntax import (
    AGGREGATE_NAMES,
    ARITH_OPS,
    BUILTIN_FUNCS,
    RELATION_PREDS,
    And,
    EApp,
    Eq,
    Exists,
    ExtSet,
    Forall,
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
    free_vars,
    nests_set,
    pretty,
    substitute,
    walk,
)
from .values import EMPTY_SET, UNDEF, FinSet, HTerm, value_key

H = "h"
T = "t"
WORLDS = (H, T)


class Universe:
    """Shared evaluation context: signature, bounds and the instantiation
    domain, plus per-universe caches of instantiated set bodies and
    quantifier bodies (so equal ground subformulas stay shared objects).
    ``static`` is the empty total interpretation, which evaluates the
    terms whose value cannot depend on any interpretation, and
    ``atom_keys`` holds what ``static_atom`` read from each atom."""

    __slots__ = (
        "signature", "bounds", "domain", "static", "atom_keys",
        "_intset_cache", "_quant_cache", "intsets",
    )

    def __init__(self, signature: Signature, bounds: DomainBounds, domain: ActiveDomain):
        self.signature = signature
        self.bounds = bounds
        self.domain = domain
        self.static = HTInterpretation.total(self, Assignment(), frozenset())
        self.atom_keys = {}
        self._intset_cache = {}
        self._quant_cache = {}
        self.intsets = set()

    def register_intsets(self, node):
        """Record the set terms of ``node``, a closed formula or term.  A
        set term under a quantifier or another set term is recorded only
        when it is closed: one that holds the variable bound there has no
        value, and its instances are recorded as they are made."""
        intsets, todo = self.intsets, [node]
        while todo:
            sub = todo.pop()
            if isinstance(sub, IntSet):
                if sub in intsets:
                    continue  # and so is each closed set term inside it
                intsets.add(sub)
            if sub.binds:
                intsets.update(
                    inner for inner in walk(sub)
                    if isinstance(inner, IntSet) and inner not in intsets and not free_vars(inner)
                )
            else:
                todo += sub.children

    def intset_candidates(self, iset: IntSet):
        """Instantiations of one ground set term over the domain: a list of
        ``(head_terms, body)`` pairs, one per candidate tuple."""
        cached = self._intset_cache.get(iset)
        if cached is not None:
            return cached
        combos = self.domain.product(
            len(iset.bound), lambda: f"variable {', '.join(iset.bound)} of {iset!r}"
        )
        out = []
        for combo in combos:
            sub = {name: Val(v) for name, v in zip(iset.bound, combo)}
            head = tuple(substitute(t, sub) for t in iset.head)
            body = substitute(iset.body, sub)
            out.append((head, body))
        out = tuple(out)
        self._intset_cache[iset] = out
        if nests_set(iset):  # else no instance holds a set term
            for head, body in out:
                for t in head:
                    self.register_intsets(t)
                self.register_intsets(body)
        return out

    def fix_candidates(self, iset: IntSet, candidates):
        """Use ``candidates`` as the instantiations of one set term from
        now on, such as the ones a binding-driven instantiation made."""
        self._intset_cache[iset] = tuple(candidates)

    def quantifier_instances(self, phi):
        """Instantiated bodies of one ground quantifier, domain order."""
        cached = self._quant_cache.get(phi)
        if cached is not None:
            return cached
        values = self.domain.values_for(lambda: f"variable {phi.var} of {pretty(phi)!r}")
        out = tuple(substitute(phi.body, {phi.var: Val(v)}) for v in values)
        self._quant_cache[phi] = out
        for body in out:
            self.register_intsets(body)
        return out


class Assignment:
    """Finite map realization of an assignment.

    ``funcs`` maps declared-function applications ``(name, argvalues)`` to
    values; ``sets`` maps ground intensional set terms to values.  Absence
    means undefined, so entries never hold the undefined mark.  Aggregate
    applications are derived, never stored.
    """

    __slots__ = ("funcs", "sets", "_hash")

    def __init__(self, funcs=None, sets=None):
        self.funcs = {}
        for (name, args), value in (funcs or {}).items():
            if name in AGGREGATE_NAMES:
                raise ValueError(f"aggregate {name} cannot be assigned directly")
            if value is UNDEF:
                continue
            self.funcs[(name, tuple(args))] = value
        self.sets = {}
        for iset, value in (sets or {}).items():
            if value is UNDEF:
                continue
            self.sets[iset] = value
        self._hash = None

    def leq(self, other):
        """Compatible and at most as defined: every stored fact persists."""
        for key, value in self.funcs.items():
            if other.funcs.get(key, UNDEF) != value:
                return False
        for key, value in self.sets.items():
            if other.sets.get(key, UNDEF) != value:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.funcs == other.funcs and self.sets == other.sets

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (frozenset(self.funcs.items()), frozenset(self.sets.items()))
            )
        return self._hash

    def __repr__(self):
        parts = [f"{name}({', '.join(map(repr, args))}) = {v!r}" for (name, args), v in self.funcs.items()]
        parts += [f"sigma({s!r}) = {v!r}" for s, v in self.sets.items()]
        return "{" + "; ".join(parts) + "}"


def assignment_leq(s1: Assignment, s2: Assignment) -> bool:
    return s1.leq(s2)


class HTInterpretation:
    """Quadruple of assignments and atom sets over two ordered worlds."""

    __slots__ = ("universe", "sigma_h", "sigma_t", "atoms_h", "atoms_t", "_ext", "_sat")

    def __init__(self, universe, sigma_h, sigma_t, atoms_h, atoms_t, check=True):
        self.universe = universe
        self.sigma_h = sigma_h
        self.sigma_t = sigma_t
        self.atoms_h = frozenset(atoms_h)
        self.atoms_t = frozenset(atoms_t)
        if check:
            if not self.atoms_h <= self.atoms_t:
                raise ValueError("here-atoms must be a subset of there-atoms")
            if not sigma_h.leq(sigma_t):
                raise ValueError("here-assignment must be below there-assignment")
        self._ext = {}
        self._sat = {}

    @classmethod
    def total(cls, universe, sigma, atoms):
        atoms = frozenset(atoms)
        return cls(universe, sigma, sigma, atoms, atoms, check=False)

    def sigma(self, w):
        return self.sigma_h if w == H else self.sigma_t

    def atoms(self, w):
        return self.atoms_h if w == H else self.atoms_t

    def __repr__(self):
        return (
            f"<interp h={sorted(map(str, self.atoms_h))} t={sorted(map(str, self.atoms_t))}>"
        )


# ---------------------------------------------------------------------------
# Builtin functions, aggregates, relations


def aggregate_eval(name, value, bounds: DomainBounds):
    """Predefined aggregate semantics; undefined off sets and out of range."""
    if not isinstance(value, FinSet):
        return UNDEF
    if name == "count":
        return bounds.clip_int(len(value))
    if name == "sum":
        total = 0
        for member in value.tuples:
            first = member[0]
            if isinstance(first, bool) or not isinstance(first, int):
                return UNDEF
            total += first
        return bounds.clip_int(total)
    if name in ("max", "min"):
        if not value.tuples or value.arity != 1:
            return UNDEF
        items = []
        for member in value.tuples:
            v = member[0]
            if isinstance(v, bool) or not isinstance(v, int):
                return UNDEF
            items.append(v)
        return bounds.clip_int(max(items) if name == "max" else min(items))
    raise ValueError(f"unknown aggregate {name}")


def builtin_func_eval(name, args, bounds: DomainBounds):
    """Arithmetic and set algebra; arguments are defined values."""
    if name in ARITH_OPS:
        a, b = args
        if not isinstance(a, int) or not isinstance(b, int):
            return UNDEF
        if name == "+":
            return bounds.clip_int(a + b)
        if name == "-":
            return bounds.clip_int(a - b)
        if name == "*":
            return bounds.clip_int(a * b)
        if b == 0 or a % b != 0:
            return UNDEF  # division is exact or undefined
        return bounds.clip_int(a // b)
    a, b = args
    if not isinstance(a, FinSet) or not isinstance(b, FinSet):
        return UNDEF
    if a.arity is not None and b.arity is not None and a.arity != b.arity:
        return UNDEF
    if name == "\\/":
        return FinSet(a.tuples | b.tuples)
    if name == "/\\":
        return FinSet(a.tuples & b.tuples)
    if name == "\\":
        return FinSet(a.tuples - b.tuples)
    raise ValueError(f"unknown builtin function {name}")


def relation_eval(name, left, right):
    """Builtin relation atoms and ``=``; false whenever a side is
    undefined."""
    if left is UNDEF or right is UNDEF:
        return False
    if name == "=":
        return left == right
    if name == "!=":
        return left != right
    if name == "in":
        if not isinstance(right, FinSet) or (right.arity not in (None, 1)):
            return False
        return (left,) in right.tuples
    if not isinstance(left, int) or not isinstance(right, int):
        return False
    if name == "<=":
        return left <= right
    if name == ">=":
        return left >= right
    if name == "<":
        return left < right
    if name == ">":
        return left > right
    raise ValueError(f"unknown relation {name}")


def builtin_eval(op, args, bounds: DomainBounds = None):
    """Uniform entry point for builtin functions and relation predicates."""
    if op in RELATION_PREDS:
        return relation_eval(op, args[0], args[1])
    return builtin_func_eval(op, args, bounds or DomainBounds())


# ---------------------------------------------------------------------------
# Term evaluation


def eval_term(interp: HTInterpretation, w, term):
    """Value of a ground term at one world (possibly the undefined mark)."""
    if isinstance(term, Val):
        return term.value
    if isinstance(term, Num):
        return term.value
    if isinstance(term, (HApp, EApp)):
        args = []
        for a in term.args:
            v = eval_term(interp, w, a)
            if v is UNDEF:
                return UNDEF
            args.append(v)
        if isinstance(term, HApp):
            return HTerm(term.name, args)
        name = term.name
        if name in BUILTIN_FUNCS:
            return builtin_func_eval(name, args, interp.universe.bounds)
        if name in AGGREGATE_NAMES:
            return aggregate_eval(name, args[0], interp.universe.bounds)
        return interp.sigma(w).funcs.get((name, tuple(args)), UNDEF)
    if isinstance(term, ExtSet):
        rows = []
        for member in term.members:
            vals = []
            for t in member:
                v = eval_term(interp, w, t)
                if v is UNDEF:
                    return UNDEF
                vals.append(v)
            rows.append(tuple(vals))
        return FinSet(rows)
    if isinstance(term, IntSet):
        sigma = interp.sigma(w)
        if term in sigma.sets:
            return sigma.sets[term]
        key = (w, term)
        cached = interp._ext.get(key)
        if cached is not None:
            return cached
        if w == T:
            value = ext(interp, T, term)
        else:
            at_h = ext(interp, H, term)
            value = at_h if at_h == ext(interp, T, term) else UNDEF
        interp._ext[key] = value
        return value
    if isinstance(term, Var):
        raise ValueError(f"cannot evaluate open term {term!r}")
    raise TypeError(f"not a term: {term!r}")


def ext(interp: HTInterpretation, w, iset: IntSet):
    """Extension of a set term at one world: the values of its head tuple at
    every satisfying candidate, undefined if any of them is undefined."""
    key = ("ext", w, iset)
    cached = interp._ext.get(key)
    if cached is not None:
        return cached
    members = []
    value = None
    for head, body in interp.universe.intset_candidates(iset):
        if not s_satisfies(interp, w, body):
            continue
        vals = []
        for t in head:
            v = eval_term(interp, w, t)
            if v is UNDEF:
                value = UNDEF
                break
            vals.append(v)
        if value is UNDEF:
            break
        members.append(tuple(vals))
    if value is None:
        value = FinSet(members) if members else EMPTY_SET
    interp._ext[key] = value
    return value


# ---------------------------------------------------------------------------
# Satisfaction


def s_satisfies(interp: HTInterpretation, w, phi):
    """Two-world satisfaction of a ground formula.

    Implications look at every world above the current one; quantifiers
    sweep the instantiation domain.  Atoms and equalities are strict:
    undefined values never satisfy anything.
    """
    key = (w, phi)
    cache = interp._sat
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = _satisfies(interp, w, phi)
    cache[key] = result
    return result


def _satisfies(interp, w, phi):
    if isinstance(phi, PredAtom):
        if phi.pred in RELATION_PREDS:
            left = eval_term(interp, w, phi.args[0])
            right = eval_term(interp, w, phi.args[1])
            return relation_eval(phi.pred, left, right)
        vals = []
        for a in phi.args:
            v = eval_term(interp, w, a)
            if v is UNDEF:
                return False
            vals.append(v)
        return (phi.pred, tuple(vals)) in interp.atoms(w)
    if isinstance(phi, Eq):
        left = eval_term(interp, w, phi.left)
        if left is UNDEF:
            return False
        right = eval_term(interp, w, phi.right)
        return left == right
    if isinstance(phi, And):
        return s_satisfies(interp, w, phi.left) and s_satisfies(interp, w, phi.right)
    if isinstance(phi, Or):
        return s_satisfies(interp, w, phi.left) or s_satisfies(interp, w, phi.right)
    if isinstance(phi, Implies):
        holds_t = (not s_satisfies(interp, T, phi.left)) or s_satisfies(interp, T, phi.right)
        if w == T or not holds_t:
            return holds_t
        return (not s_satisfies(interp, H, phi.left)) or s_satisfies(interp, H, phi.right)
    if isinstance(phi, _Top):
        return True
    if isinstance(phi, _Bot):
        return False
    if isinstance(phi, Forall):
        return all(
            s_satisfies(interp, w, body) for body in interp.universe.quantifier_instances(phi)
        )
    if isinstance(phi, Exists):
        return any(
            s_satisfies(interp, w, body) for body in interp.universe.quantifier_instances(phi)
        )
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Coherence


def coherence_closure(interp: HTInterpretation) -> HTInterpretation:
    """The coherent interpretation determined by the atom sets and the
    declared-function facts: set values recomputed bottom-up, aggregate
    values derived.  Idempotent; preset set values are discarded."""
    base = HTInterpretation(
        interp.universe,
        Assignment(interp.sigma_h.funcs),
        Assignment(interp.sigma_t.funcs),
        interp.atoms_h,
        interp.atoms_t,
        check=False,
    )
    wanted = set(interp.universe.intsets)
    wanted |= set(interp.sigma_h.sets) | set(interp.sigma_t.sets)
    sets_h, sets_t = {}, {}
    for iset in sorted(wanted, key=lambda s: (len(repr(s)), repr(s))):
        sets_t[iset] = eval_term(base, T, iset)
        sets_h[iset] = eval_term(base, H, iset)
    closed = HTInterpretation(
        interp.universe,
        Assignment(interp.sigma_h.funcs, sets_h),
        Assignment(interp.sigma_t.funcs, sets_t),
        interp.atoms_h,
        interp.atoms_t,
        check=False,
    )
    closed._ext = base._ext
    closed._sat = base._sat
    return closed


def is_coherent(interp: HTInterpretation) -> bool:
    """Fixed point of the closure: stored set values match derived ones."""
    closed = coherence_closure(interp)
    return interp_agrees(interp, closed)


def interp_agrees(i1: HTInterpretation, i2: HTInterpretation) -> bool:
    """Semantic equality: same atoms, same function facts, and the same
    value for every set term either side mentions or the universe knows."""
    if i1.atoms_h != i2.atoms_h or i1.atoms_t != i2.atoms_t:
        return False
    if i1.sigma_h.funcs != i2.sigma_h.funcs or i1.sigma_t.funcs != i2.sigma_t.funcs:
        return False
    wanted = set(i1.universe.intsets)
    wanted |= set(i1.sigma_h.sets) | set(i1.sigma_t.sets)
    wanted |= set(i2.sigma_h.sets) | set(i2.sigma_t.sets)
    for iset in wanted:
        for w in WORLDS:
            if eval_term(i1, w, iset) != eval_term(i2, w, iset):
                return False
    return True


def interp_leq(i1: HTInterpretation, i2: HTInterpretation) -> bool:
    """There-worlds identical, here-world of ``i1`` at most that of ``i2``."""
    return (
        i1.atoms_t == i2.atoms_t
        and i1.sigma_t == i2.sigma_t
        and i1.atoms_h <= i2.atoms_h
        and i1.sigma_h.leq(i2.sigma_h)
    )


# ---------------------------------------------------------------------------
# Ground atoms


def atom_key(atom):
    pred, args = atom
    return (pred, tuple(value_key(a) for a in args))


def static_atom(phi, universe: Universe):
    """The key ``(name, values)`` of a predicate atom, or of a function
    application, whose arguments cannot depend on the interpretation and
    are defined, else None.  Both engines read ground atoms through it,
    and each atom is read once per universe."""
    if isinstance(phi, PredAtom) and phi.pred not in RELATION_PREDS:
        name = phi.pred
    elif isinstance(phi, EApp):
        name = phi.name
    else:
        return None
    keys = universe.atom_keys
    key = keys.get(phi, keys)  # the dict itself marks an atom not read yet
    if key is not keys:
        return key
    values = []
    for a in phi.args:
        if isinstance(a, (Val, Num)):  # what grounding leaves almost everywhere
            values.append(a.value)
        elif _independent(a) and (value := eval_term(universe.static, T, a)) is not UNDEF:
            values.append(value)
        else:
            keys[phi] = None
            return None
    key = keys[phi] = (name, tuple(values))
    return key


def _independent(term):
    """True when the term's value cannot depend on the interpretation."""
    for node in walk(term):
        if isinstance(node, Var) or reads_interpretation(node):
            return False
    return True


def reads_interpretation(node):
    """True when ``node`` itself, whatever its variables are bound to, may
    take its value from the interpretation: a set term, or an application
    of a declared function."""
    return isinstance(node, IntSet) or (
        isinstance(node, EApp) and node.name not in BUILTIN_FUNCS and node.name not in AGGREGATE_NAMES
    )
