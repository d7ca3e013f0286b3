"""The stable-model search both engines share.

``search_stable`` takes an engine's propagation (``_Propagation``) and
tests the there-worlds that ``branch_leaves`` yields with the engine's
own stability test.  Each engine's propagation runs on its whole ground
theory, numbering the atoms of the equilibrium engine's support fixpoint
or the heads of GZ's full grounding, whose root bounds give GZ its upper
bound, and alone restricts what the search reads.  Propagation
tightens the bounds from the facts and its numbered atoms once, at the
root, and drops every rule, constraint and support (``_Propagation``)
whose body cannot hold under them; ``branch_leaves`` then decides one
undecided atom that some kept body reads at a time and tightens both
bounds after each decision.  Deciding an atom that no kept body reads
tightens nothing, so the search never branches on one: each subset of
those the bounds leave undecided makes a leaf.  Atoms that no rule,
constraint or support joins fall into parts that are searched one at a
time and whose leaves combine (``branch_leaves``).  Propagation only ever drops candidates that cannot
be stable.
A leaf takes the engine's model and minimality checks, which read only
the formulas propagation kept (``_Propagation.checked_formulas``),
unless the search is exact, which rules of plain atoms and their ``not``
make (``_Propagation``), and its bounds closed: such a leaf is a stable
model in both engines, with no function facts.  ``full_checks`` checks
every leaf against the whole ground theory.  A leaf is a bit mask
over the numbered atoms (``_Numbering``) from its last decision to the
end of its checks.  The atoms are numbered in ``atom_key`` order, the one
order in which the search decides them and sorts its models.

A rule body or constraint compiles to bit masks of its static atoms and
negated static atoms, plus one test per comparison of an aggregate of a
set term with a ground value: the aggregate takes the values of the
extensions that hold its members certain under the lower bound and any
of those possible under the upper one (``ground.aggregate_values``).  A
set term equal to a ground set value compiles to masks too: each member
whose head is in the value must hold, and every other member must fail.
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from itertools import compress, count, product
from operator import or_

from .errors import DomainLimitError
from .ground import (
    accepted,
    aggregate_sides,
    aggregate_values,
    fixed_value,
    heads,
    instances,
    member_weight,
    simplify,
)
from .interp import atom_key, static_atom
from .syntax import (
    BOT,
    And,
    EApp,
    Eq,
    Exists,
    Implies,
    IntSet,
    Or,
    PredAtom,
    _Bot,
    _Top,
    conj,
    nests_set,
    walk,
)
from .values import UNDEF, FinSet, value_key


def search_stable(propagation, stable_in, full_checks=False) -> list:
    """The stable models of ``propagation``'s ground theory as ``(atoms,
    funcs)``, ``funcs`` their declared-function facts, sorted by their
    atoms (``_Numbering.key``), then by those facts.

    ``stable_in(theory)``, called at the first leaf that takes a test,
    returns the engine's test on ``theory``: it yields the ``funcs`` of
    each assignment under which a there-world is stable.  ``theory``
    holds only what propagation kept (``_Propagation.checked_formulas``),
    and a leaf that ``branch_leaves`` marks closed is stable with no
    function facts and takes no test, unless ``full_checks``: then
    ``theory`` is the whole ground theory and every leaf takes the test.
    """
    search = propagation.ground
    if any(phi == BOT for phi in search.formulas):
        return []
    stable, found = None, {}
    for numbering, mask, closed in branch_leaves(propagation):
        atoms = numbering.atoms(mask)
        if closed and not full_checks:
            found[mask, ()] = atoms, {}
            continue
        if stable is None:  # at the first leaf that takes the test
            kept = search if full_checks else replace(search, formulas=propagation.checked_formulas())
            stable = stable_in(kept)
        for funcs in stable(atoms):
            facts = sorted((atom_key(app), value_key(value)) for app, value in funcs.items())
            found[mask, tuple(facts)] = atoms, funcs
    return [found[key] for key in sorted(found, key=lambda k: (numbering.key(k[0]), k[1]))]


def branch_leaves(propagation):
    """The there-worlds the search tests, each as ``(numbering, mask,
    closed)``: the leaves of a depth-first search below the root bounds
    of ``propagation`` that decides one undecided atom that some body
    reads at a time, the lowest numbered (``_Numbering``) first, and
    tightens both bounds after each decision (``_Propagation.bounds``),
    cutting a branch whose bounds conflict.  A leaf is ``closed`` when
    the search is exact (``_Propagation.exact``) and its last ``bounds``
    call left no atom undecided: it is then a stable model in both
    engines.

    Each component of the undecided atoms (``_Propagation.components``),
    or all of them as one when no body reads any, is searched alone and
    its leaves collected; a leaf is the root lower bound plus one leaf of
    each, closed when they all are.  A part without a leaf has no stable
    model, so neither has the program, and the search ends there.
    ``atom_cap`` bounds the decisions on one branch of each part
    (``_depth_first``) and, as a power of 2, the leaves of the parts
    searched so far multiplied together."""
    root = propagation.root
    if root is None:
        return
    lower, upper = root
    undecided = upper & ~lower
    parts = propagation.components(undecided) if undecided & propagation.read else [undecided]
    cap, combined, found = propagation.universe.bounds.atom_cap, 1, []
    for part in parts:
        leaves = [(mask & part, closed) for mask, closed in _depth_first(propagation, root, part)]
        if not leaves:
            return
        found.append(leaves)
        combined *= len(leaves)
        if combined > 1 << cap:
            raise DomainLimitError(
                f"{len(found)} parts of {undecided.bit_count()} undecided atoms"
                f" have more than 2^{cap} leaves together",
                "atom_cap",
            )
    for combination in product(*found):
        masks, closed = zip(*combination)
        yield propagation, sum(masks, lower), all(closed)


def _depth_first(propagation, root, within):
    """The leaves below the bounds ``root`` as ``(mask, closed)``, deciding
    the lowest undecided atom of the part ``within`` that some body reads;
    it raises when a branch needs more than ``atom_cap`` decisions."""
    read, cap, exact = propagation.read, propagation.universe.bounds.atom_cap, propagation.exact
    stack = [(*root, 0)]
    while stack:
        lower, upper, depth = stack.pop()
        undecided = upper & ~lower & within
        pick = undecided & read
        # deciding an atom that no body reads tightens nothing else, so
        # once only such atoms are left, each subset of them is a leaf
        if depth + (1 if pick else undecided.bit_count()) > cap:
            raise DomainLimitError(
                f"{within.bit_count()} undecided atoms need more than {cap} decisions on one branch",
                "atom_cap",
            )
        if not pick:
            closed = exact and not undecided
            yield from ((mask, closed) for mask in _subsets(lower, undecided))
            continue
        first = pick & -pick
        for child in (
            propagation.bounds(lower | first, upper),
            propagation.bounds(lower, upper & ~first),
        ):
            if child is not None:
                stack.append((*child, depth + 1))


def _subsets(lower, undecided):
    """The masks ``lower`` plus each subset of ``undecided``."""
    subset = undecided
    while True:
        yield lower | subset
        if not subset:
            return
        subset = (subset - 1) & undecided


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _digits(mask):
    """The binary digits of ``mask``, lowest first, as the bytes 0 and 1."""
    return bin(mask)[:1:-1].encode().translate(_DIGITS)


class _Numbering:
    """The atoms of a search as the bits of an ``int``, bit ``i`` the atom
    of rank ``i`` in ``atom_key`` order; one bit past them stands for every
    atom outside."""

    def __init__(self, atoms):
        self.order = tuple(sorted(atoms, key=atom_key))
        self.bits = {a: 1 << i for i, a in enumerate(self.order)}
        self.outside = 1 << len(self.order)

    def key(self, mask):
        """The bits of ``mask``, ascending: masks sort by them as their
        atoms' sorted ``atom_key`` tuples do."""
        return tuple(compress(count(), _digits(mask)))

    def mask(self, atoms):
        out = 0
        for a in atoms:
            out |= self.bits.get(a, self.outside)
        return out

    def atoms(self, mask):
        return frozenset(compress(self.order, _digits(mask)))


class _Propagation(_Numbering):
    """Three-valued bounds on the stable models of a ground theory.

    The atoms of an upper bound are numbered once (``_Numbering``): the
    support fixpoint's that ``upper`` gives, or else, over a full
    grounding, every atom that a formula has as a head: the facts, the
    heads of the rule view and the static heads of the formulas outside it
    (``ground.heads``).  Given ``upper``, an antecedent that needs an atom
    outside it is dead: no head under it is read, and a formula outside
    the view whose body is dead holds at both worlds of every world
    inside ``upper``; ``others`` holds the formulas outside the view but
    those.  Each rule body and constraint of the rule view, and each
    chain of antecedents of a formula outside it, a support of the static
    heads under it (``bounds``), is compiled once (``_compile``), so
    tightening a pair of bounds takes only bit operations, plus a pass
    over the members of each aggregate test.  ``kept`` holds the numbered
    atoms of each predicate in a head that is no static atom (a set-term
    or declared-function argument), which support never drops.  ``root``
    holds the bounds tightened from the facts and every numbered atom, or
    None.  Then
    every rule, constraint and support whose body cannot hold under the
    root bounds is dropped: the bounds below the root only tighten, so
    such a body never holds in a world the search reaches, and its formula
    is satisfied at both worlds of every leaf.  ``rules`` holds ``(body,
    heads, phi)``, ``constraints`` ``(body, phi)`` and ``supports``
    ``(body, heads)`` for each one kept, ``body`` compiled and ``phi`` its
    formula.  ``read`` holds the atoms that the kept bodies mention
    (``_mentioned``): deciding any other atom tightens nothing.

    The search is ``exact`` when ``others`` is empty, every rule
    body and constraint compiles to masks alone, set equalities included
    (no opaque conjunct, no ``;``, no aggregate test), and no function is
    declared; a rule whose heads are all facts holds in every model and
    is left out.  Then bounds that ``bounds`` closes (lower = upper) are a
    stable model in both engines: the lower bound is closed under the
    rules and makes no constraint body true, so it is a model, and the
    support fixpoint inside it is the least model of its reduct, and
    equals it.
    """

    def __init__(self, ground, upper=None):
        view, universe = ground.rules, ground.universe
        self.ground, self.universe = ground, universe
        self._members = {}  # a set term -> its members (``_set_members``)
        self.others, admit = view.others, None
        if upper is not None:  # an antecedent that needs an atom outside it is dead
            super().__init__(upper)
            admit = lambda left: not self._compile(left)[0] & self.outside  # noqa: E731
            self.others = tuple(p for p in view.others if not isinstance(p, Implies) or admit(p.left))
        chains, preds = {}, set()  # antecedents -> their static heads; what other heads read
        for antecedents, head in (pair for phi in self.others for pair in heads(phi, universe, admit)):
            if (atom := static_atom(head, universe)) is not None:
                chains.setdefault(antecedents, set()).add(atom)
            elif head is not None:
                preds.update((n.pred, len(n.args)) for n in walk(head) if isinstance(n, PredAtom))
        if upper is None:
            upper = view.facts.union(*chains.values(), *(rule[1] for rule in view.rules))
            super().__init__(upper)
        everything = self.outside - 1
        self.facts = self.mask(view.facts)
        rules = [(body, self.mask(made), phi) for body, made, phi in view.rules]
        # a rule whose heads are all facts adds nothing and supports nothing
        self.rules = tuple(
            (self._compile(body), made, phi) for body, made, phi in rules if made & ~self.facts
        )
        self.constraints = tuple((self._compile(phi.left), phi) for phi in view.constraints)
        self.supports = tuple(
            (self._compile(conj(chain)), made)
            for chain, atoms in chains.items()
            if (made := self.mask(atoms) & everything & ~self.facts)
        )
        self.kept = self.mask(a for a in upper if (a[0], len(a[1])) in preds) if preds else 0
        self._supporting = (*self.rules, *self.supports)
        self.root = self.bounds(self.facts, everything)
        if self.root is not None:
            lower, upper = self.root
            self.rules, self.constraints, self.supports = (
                tuple(r for r in placed if _entailed(r[0], upper, lower, False, upper))
                for placed in (self.rules, self.constraints, self.supports)
            )
            self._supporting = (*self.rules, *self.supports)
        bodies = [placed[0] for placed in (*self.rules, *self.constraints, *self.supports)]
        self.read = reduce(or_, map(_mentioned, bodies), 0)
        self.exact = not (self.others or universe.signature.func_ranges) and not any(
            opaque or parts for _, _, opaque, parts in bodies
        )

    def checked_formulas(self):
        """The formulas of the ground theory, in its order, less those left
        out of ``rules``, ``constraints`` and ``others``: those whose body
        cannot hold under the root bounds, or is dead, and rules whose heads
        are all facts.  Each of these is true at every leaf, and at every
        world below a leaf that holds the facts."""
        view = self.ground.rules
        kept = {placed[-1] for placed in (*self.rules, *self.constraints)}.union(self.others)
        dropped = {rule[2] for rule in view.rules}.union(view.constraints, view.others) - kept
        return tuple(phi for phi in self.ground.formulas if phi not in dropped)

    def _compile(self, phi):
        """A rule body as ``(pos, neg, opaque, parts)``: the masks of its
        static atoms and of the static atoms under its ``not``, whether it
        has a conjunct of any other shape, and its other conjuncts: a pair
        of compiled bodies per ``;`` and a test (``_aggregate``) per
        comparison of an aggregate with a ground value, under ``not`` or
        not.  An equality outside ``not`` adds its masks (``_equality``),
        an ``exists`` with one instance (``ground.instances``) reads as it,
        and one with none, or ``#false``, as an atom outside the upper
        bound.  A ``not`` of an atom outside it always holds, so it is left
        out."""
        pos, neg, parts, opaque = 0, 0, [], False
        todo = [phi]
        while todo:
            part = todo.pop()
            if isinstance(part, And):
                todo += (part.left, part.right)
            elif isinstance(part, Or):
                parts.append((self._compile(part.left), self._compile(part.right)))
            elif isinstance(part, Exists) and len(kept := instances(part, self.universe)) < 2:
                todo.append(kept[0] if kept else BOT)
            elif isinstance(part, _Bot):
                pos |= self.outside
            elif not isinstance(part, _Top):
                negated = isinstance(part, Implies) and part.right == BOT
                node = part.left if negated else part
                atom = static_atom(node, self.universe)
                if atom is not None:
                    if negated:
                        neg |= self.bits.get(atom, 0)
                    else:
                        pos |= self.bits.get(atom, self.outside)
                elif (test := self._aggregate(node, negated)) is not None:
                    parts.append(test)
                elif not negated and (masks := self._equality(node)) is not None:
                    pos, neg = pos | masks[0], neg | masks[1]
                else:
                    opaque = True
        return pos, neg, opaque, tuple(parts)

    def _aggregate(self, part, negated):
        """The test ``(name, negated, members, accept, bounds)`` of
        ``part``, a comparison between the aggregate ``name`` of a set term
        and a ground term that the interpretation cannot change, or None.

        ``members`` holds ``(pos, neg, weight)`` per member of the set term
        (``_set_members``), weighed by ``member_weight``.  ``accept`` sets
        the bit (``aggregate_values``) of each value the members can reach
        at which ``part``, its ``not`` applied, holds, as ``relation_eval``
        decides it against the other side's value in the static
        interpretation, which both engines read.  An undefined value fails
        every comparison, so only its ``not`` holds there."""
        for rel, agg, other, flip in aggregate_sides(part):  # the first side only
            value = fixed_value(other, self.universe)
            pool = None if value is None else self._set_members(agg.args[0])
            if pool is None:
                return None
            members = tuple((pos, neg, member_weight(agg.name, head)) for pos, neg, head in pool)
            bounds = self.universe.bounds
            reach, _ = aggregate_values(agg.name, (), [w for _, _, w in members], bounds)
            accept = accepted(reach, rel, value, flip, bounds, negated)
            return agg.name, negated, members, accept, bounds
        return None

    def _equality(self, part):
        """The masks ``(pos, neg)`` of ``part``, an equality between a term
        and a value ``v`` that the interpretation cannot change, either side
        first, or None when it stays opaque.

        It is false in every world inside the upper bound when the term
        applies a declared function to static arguments and ``v`` is
        outside its range, or when the term is a set term and ``v`` is no
        set, a tuple of ``v`` has no member (``_set_members``) or a member
        whose body is verum is outside ``v``.  Else a set term equals ``v``
        at the there-world when every member whose head is in ``v`` holds
        there and every other member fails.  At the here-world both engines
        read a set term as its extension only when the here- and
        there-extensions agree, so the equality holds there when every
        member in ``v`` holds at the here-world and every other member
        fails at the there-world: the member's body atom goes into ``pos``
        or into ``neg``, as if ``not`` were applied.  It stays opaque when a
        member's body is not one static atom or verum."""
        if not isinstance(part, Eq):
            return None
        universe, ranges = self.universe, self.universe.signature.func_ranges
        term, other = part.children
        if (value := fixed_value(other, universe)) is None:
            term, value = other, fixed_value(term, universe)
        if isinstance(term, EApp) and term.name in ranges and static_atom(term, universe):
            return None if value is None or value in ranges[term.name] else (self.outside, 0)
        if value is None or not isinstance(term, IntSet):
            return None
        if not isinstance(value, FinSet):
            return self.outside, 0
        if (members := self._set_members(term)) is None:
            return None
        pos = neg = found = opaque = 0  # opaque: a member's body is not one atom or verum
        for atom, negated, values in members:  # a member's body masks and head
            if values in value:
                pos, found = pos | atom, found + 1
            elif atom or negated:
                neg |= atom
            else:
                return self.outside, 0  # a member always in, but not in ``v``
            opaque = opaque or negated or atom & (atom - 1)
        if found < len(value):
            return self.outside, 0  # a tuple of ``v`` that no member produces
        return None if opaque else (pos, neg)

    def _set_members(self, iset):
        """The members of the set term ``iset`` as ``(pos, neg, values)``:
        the masks of its body, as ``_compile`` makes them, and the values
        of its head; None when the set term stays opaque.  Each set term
        is read once.

        The members are the set term's instances in the search universe
        that ``simplify`` does not fold to false and whose body's atoms
        the root upper bound holds.  The set term stays opaque when a
        member's body is not built from static atoms with ``,`` and
        ``not``, its head has a value that can vary or is undefined, two
        members share a head, or the set term nests another."""
        if iset in self._members:
            return self._members[iset]
        self._members[iset] = None  # until every member is read
        if nests_set(iset):
            return None
        universe = self.universe
        members, heads = [], set()
        for head, body in universe.intset_candidates(iset):
            body = simplify(body, universe)
            if body == BOT:
                continue
            pos, neg, opaque, parts = self._compile(body)
            if pos & self.outside:
                continue  # false in every world inside the root upper bound
            values = tuple(fixed_value(t, universe) for t in head)
            if opaque or parts or values in heads or any(v is None or v is UNDEF for v in values):
                return None
            heads.add(values)
            members.append((pos, neg, values))
        members = self._members[iset] = tuple(members)
        return members

    def components(self, undecided):
        """The ``undecided`` atoms split into the masks of their components,
        in the order of their lowest atoms: two atoms share one when a
        rule or support (heads included) or a constraint mentions both.
        Then ``bounds`` on a decision inside one component leaves every
        other as it was: no rule or constraint that reads or derives its
        atoms mentions an atom of another, and the atoms decided before
        stay decided unless the bounds conflict."""
        parent = {}  # a union-find over the atoms' bits, roots left out

        def find(atom):
            while atom in parent:
                parent[atom] = parent.get(parent[atom], parent[atom])
                atom = parent[atom]
            return atom

        rules = (placed[1] | _mentioned(placed[0]) for placed in self._supporting)
        for mask in (*rules, *(_mentioned(body) for body, _ in self.constraints)):
            mask &= undecided
            if mask:
                first = find(mask & -mask)
                mask &= mask - 1
                while mask:
                    atom = mask & -mask
                    if (other := find(atom)) != first:
                        parent[other] = first
                    mask ^= atom
        parts = {}
        while undecided:
            atom = undecided & -undecided
            root = find(atom)
            parts[root] = parts.get(root, 0) | atom
            undecided ^= atom
        return list(parts.values())

    def bounds(self, lower, upper):
        """The masks ``(lower, upper)`` tightened to a fixpoint, or None
        when no stable model lies between them.

        The lower bound gains the heads of every rule whose body holds in
        each world between the bounds, and the bounds conflict when the
        lower one leaves the upper one or a constraint body holds
        throughout.  This is sound in both engines because a stable model
        is a model at its there-world, and there both read a set term's
        extension classically, as the members whose body holds.

        The upper bound shrinks to the support fixpoint ``S`` inside it:
        the facts, the kept atoms and the heads of rules and supports
        (never read for the lower bound) whose body can hold at a
        here-world inside ``S`` whose there-world lies between the bounds.
        A stable model ``T`` between the bounds stays inside ``S``: every
        rule whose body holds at the here-world ``T & S`` has its heads in
        ``S``, and a formula outside the view that holds at ``T`` holds at
        ``T & S``, so ``T & S`` would be a smaller model of the equilibrium
        engine's here-world reading, and of the GZ reduct, were it not
        ``T``.  The formula holds there by induction over the head
        positions of ``ground.heads``, as each chain that holds at ``T &
        S`` has its heads in ``S``: atoms, ``,``, ``;``, an ``A -> B``
        whose ``A`` joins the chain, quantifier instances, and aggregate
        members, each true at ``T`` being read, so that the set term's
        extension is that at ``T``; any other head reads ``T`` or ``kept``.  A ``not``
        reads the there-world, so a
        negated atom fails only in the lower bound and a negated
        aggregate ranges over the there-worlds between the bounds.  A
        positive aggregate holds at ``T & S`` only when every member of
        its there-extension holds there too (the equilibrium engine
        leaves the set undefined otherwise, and the reduct keeps each
        such member's body), so that extension holds at least the
        members certain in every there-world, their negated atoms tested
        against the upper bound, and at most those possible inside ``S``.
        """
        while True:
            lower = _grow(lower, self.rules, upper, True, -1)
            if lower & ~upper or self.constraints and any(
                _entailed(body, lower, upper, True, -1) for body, _ in self.constraints
            ):
                return None
            support = _grow(self.facts | self.kept & upper, self._supporting, lower, False, upper)
            if support == upper:
                return lower, upper
            upper = support


def _mentioned(body):
    """The mask of the atoms a compiled body mentions, in its ``;`` parts
    and the members of its aggregate tests too."""
    pos, neg, _, parts = body
    mask = pos | neg
    for part in parts:
        if len(part) == 2:  # a ``;``
            mask |= _mentioned(part[0]) | _mentioned(part[1])
        else:
            for pos, neg, _ in part[2]:
                mask |= pos | neg
    return mask


def _grow(model, rules, other, strict, cap):
    """The least mask above ``model`` that holds the heads, within
    ``cap``, of every rule whose body ``_entailed(body, model, other,
    strict, cap)`` accepts."""
    pending = rules
    while pending:
        waiting, before = [], model
        for rule in pending:
            heads = rule[1] & cap
            if not heads & ~model:
                continue  # nothing left to add
            if _entailed(rule[0], model, other, strict, cap):
                model |= heads
            else:
                waiting.append(rule)
        if model == before:
            break
        pending = waiting
    return model


def _entailed(body, lo, hi, strict, cap) -> bool:
    """Whether a compiled body holds in every world between the masks
    ``lo`` and ``hi`` (``strict``).  Given the support so far as ``lo``,
    the lower bound as ``hi``, the upper bound as ``cap`` and ``strict``
    False, whether it can hold at a here-world inside the support whose
    there-world lies between the bounds, a conjunct of another shape
    counting as true rather than false (see ``_Propagation.bounds``)."""
    pos, neg, opaque, parts = body
    if strict and opaque or pos & ~lo or neg & hi:
        return False
    for part in parts:  # a loop, not a generator, keeps the arguments local
        if len(part) == 2:  # a ``;``
            if not (
                _entailed(part[0], lo, hi, strict, cap) or _entailed(part[1], lo, hi, strict, cap)
            ):
                return False
        elif not _admits(part, lo, hi, strict, cap):
            return False
    return True


def _admits(test, lo, hi, strict, cap):
    """``_entailed`` for one aggregate test: the aggregate takes the values
    of the extensions holding its members certain in every world between
    the bounds and any possible in some (``aggregate_values``), those of a
    positive one inside the support when ``strict`` is False."""
    lower, upper = (lo, hi) if strict else (hi, cap)
    name, negated, members, accept, bounds = test
    reach = upper if strict or negated else lo
    certain, optional = [], []
    for pos, neg, weight in members:
        possible = not (pos & ~reach or neg & lower)
        if not (pos & ~lower or neg & upper):
            if not possible:  # no value: vacuous in every world, or it cannot hold
                return strict
            certain.append(weight)
        elif possible:
            optional.append(weight)
    values, undefined = aggregate_values(name, certain, optional, bounds)
    if strict:
        return (negated or not undefined) and not values & ~accept
    return negated and undefined or bool(values & accept)
