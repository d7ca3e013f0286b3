"""The stable-model search both engines share.

``search_stable`` takes an engine's upper-bound fixpoint, restricts its
ground theory to what that bound can reach (``search_theory``) and tests
the there-worlds that ``branch_leaves`` yields with the engine's own
stability test.  ``branch_leaves`` decides one undecided atom at a time
and tightens both bounds after each decision (``_Propagation``); its
root is the lower bound (``lower_bound``).  ``there_candidates``, every
subset of the atoms between the root bounds, is the reference the tests
swap in for it.  Propagation only ever drops candidates that cannot be
stable: each leaf still takes the engine's model and minimality checks.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress

from .errors import DomainLimitError
from .interp import atom_key, static_atom
from .syntax import BOT, RELATION_PREDS, And, Implies, Or, PredAtom, walk


def search_stable(viability, upper, stable_in) -> list:
    """The candidate loop both engines share, in canonical order.

    ``viability`` has run its fixpoint, whose atoms are ``upper``; the
    search theory keeps what its last round judged possible.
    ``stable_in(search)`` returns the engine's test on that theory, which
    maps a there-world to its stable model or None.
    """
    ground = viability.ground
    if any(phi == BOT for phi in ground.formulas):
        return []
    search = search_theory(ground, viability.possibly_sat)
    stable = stable_in(search)
    found = {}
    for there in branch_leaves(search, upper):
        model = stable(there)
        if model is not None:
            found[tuple(sorted(map(atom_key, there)))] = model
    return [found[key] for key in sorted(found)]


def search_theory(ground, possible):
    """The copy of ``ground`` that the search runs on.

    ``possible(phi)`` must hold whenever ``phi`` is true at the there-world
    of some candidate inside the engine's upper bound.  A formula ``B ->
    X`` whose body fails that test is satisfied at both worlds of every
    candidate, since a body false at the there-world is false at every
    here-world below it, so it is dropped, constraints included.  The
    same argument drops a set-term candidate whose body cannot hold: it
    never contributes a member.  Atoms, bounds and registered set terms
    are shared, so models and witnesses stay those of ``ground``.
    """
    formulas = tuple(
        phi for phi in ground.formulas if not isinstance(phi, Implies) or possible(phi.left)
    )
    return replace(ground, universe=ground.universe.restricted(possible), formulas=formulas)


def branch_leaves(search, upper):
    """The there-worlds the search tests: the leaves of a depth-first
    search that decides one undecided atom at a time, in ``atom_key``
    order, and tightens both bounds after each decision
    (``_Propagation.bounds``), cutting a branch whose bounds conflict.
    ``atom_cap`` bounds the decisions on one branch."""
    if upper <= search.rules.facts:
        yield upper  # nothing to decide
        return
    propagation = _Propagation(search, upper)
    root = propagation.root()
    if root is None:
        return
    bits, read = propagation.bits, propagation.read
    order = [bits[a] for a in sorted(propagation.atoms(root[1] & ~root[0]), key=atom_key)]
    cap = search.universe.bounds.atom_cap
    stack = [(*root, 0)]
    while stack:
        lower, upper, depth = stack.pop()
        undecided = upper & ~lower
        # deciding an atom that no body reads tightens nothing else, so
        # once only such atoms are left, each subset of them is a leaf
        if depth + (1 if undecided & read else undecided.bit_count()) > cap:
            raise DomainLimitError(
                f"{len(order)} undecided atoms need more than {cap} decisions on one branch",
                "atom_cap",
            )
        if not undecided & read:
            subset = undecided
            while True:
                yield propagation.atoms(lower | subset)
                if not subset:
                    break
                subset = (subset - 1) & undecided
            continue
        first = next(bit for bit in order if bit & undecided)
        if first & read:
            children = (
                propagation.bounds(lower | first, upper),
                propagation.bounds(lower, upper & ~first),
            )
        else:
            children = ((lower | first, upper), (lower, upper & ~first))
        for child in children:
            if child is not None:
                stack.append((*child, depth + 1))


def there_candidates(search, upper):
    """Reference for ``branch_leaves``: the lower bound plus each subset
    of the undecided atoms between it and ``upper``, which ``atom_cap``
    bounds."""
    lower = lower_bound(search, upper)
    if lower is None:
        return
    undecided = sorted(upper - lower, key=atom_key)
    if len(undecided) > search.universe.bounds.atom_cap:
        raise DomainLimitError(
            f"{len(undecided)} undecided atoms is too many to enumerate", "atom_cap"
        )
    for mask in range(1 << len(undecided)):
        yield lower | frozenset(a for i, a in enumerate(undecided) if mask >> i & 1)


def lower_bound(ground, upper):
    """Atoms true in every stable model between the facts and ``upper``,
    or None when there is none: the root bounds of the search."""
    propagation = _Propagation(ground, upper)
    root = propagation.root()
    return None if root is None else propagation.atoms(root[0])


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class _Propagation:
    """Three-valued bounds on the stable models of a search theory.

    The atoms of the root upper bound are numbered once, and a set of
    them is an ``int`` bit mask; one bit past them stands for every atom
    outside.  Each rule body and constraint of the theory's rule view is
    compiled once (``_compile``), so tightening a pair of bounds takes
    only bit operations.  ``kept`` holds the atoms that a formula outside
    the view mentions (every atom of a predicate it reads through a
    non-static argument), which support never drops.
    """

    def __init__(self, ground, upper):
        view, universe = ground.rules, ground.universe
        self.order = tuple(upper)
        self.bits = {a: 1 << i for i, a in enumerate(self.order)}
        self.outside = 1 << len(self.order)
        self.facts = self.mask(view.facts)
        self.read = 0  # the atoms some body reads, filled in by _compile
        self.rules = tuple(
            (self._compile(body, universe), self.mask(heads)) for body, heads in view.rules
        )
        self.constraints = tuple(self._compile(body, universe) for body in view.constraints)
        atoms, preds = set(), set()
        for phi in view.others:
            for node in walk(phi):
                if isinstance(node, PredAtom) and node.pred not in RELATION_PREDS:
                    key = static_atom(node, universe)
                    if key is None:
                        preds.add((node.pred, len(node.args)))
                    else:
                        atoms.add(key)
        if preds:
            atoms.update(a for a in upper if (a[0], len(a[1])) in preds)
        self.kept = self.mask(atoms & upper)

    def mask(self, atoms):
        out = 0
        for a in atoms:
            out |= self.bits.get(a, self.outside)
        return out

    def atoms(self, mask):
        # the binary digits of ``mask``, lowest first, as the bytes 0 and 1
        digits = bin(mask)[:1:-1].encode().translate(_DIGITS)
        return frozenset(compress(self.order, digits))

    def _compile(self, phi, universe):
        """A rule body as ``(pos, neg, opaque, alts)``: the masks of its
        static atoms and of the static atoms under its ``not``, whether it
        has a conjunct of any other shape, and a pair of compiled bodies
        per ``;``.  A ``not`` of an atom outside the upper bound always
        holds, so it is left out."""
        pos, neg, alts, opaque = 0, 0, [], False
        todo = [phi]
        while todo:
            part = todo.pop()
            if isinstance(part, And):
                todo += (part.left, part.right)
            elif isinstance(part, Or):
                alts.append(
                    (self._compile(part.left, universe), self._compile(part.right, universe))
                )
            else:
                negated = isinstance(part, Implies) and part.right == BOT
                atom = static_atom(part.left if negated else part, universe)
                if atom is None:
                    opaque = True
                elif negated:
                    neg |= self.bits.get(atom, 0)
                else:
                    pos |= self.bits.get(atom, self.outside)
        self.read |= pos | neg
        return pos, neg, opaque, tuple(alts)

    def root(self):
        """The bounds from the facts and the root upper bound, tightened."""
        return self.bounds(self.facts, self.outside - 1)

    def bounds(self, lower, upper):
        """The masks ``(lower, upper)`` tightened to a fixpoint, or None
        when no stable model lies between them.

        The lower bound gains the heads of every rule whose body holds in
        each world between the bounds.  The upper bound shrinks to the
        support fixpoint inside it: the facts, the kept atoms and the
        heads of rules whose body holds in some world between the lower
        bound and the support so far.  Every stable model between the
        bounds stays between the tightened ones, since dropping its
        unsupported atoms would leave a smaller model.  The bounds
        conflict when the lower one leaves the upper one or a constraint
        body holds throughout.
        """
        while True:
            lower = _grow(lower, self.rules, upper, True, -1)
            if lower & ~upper or self.constraints and any(
                _entailed(body, lower, upper, True) for body in self.constraints
            ):
                return None
            support = _grow(self.facts | self.kept & upper, self.rules, lower, False, upper)
            if support == upper:
                return lower, upper
            upper = support


def _grow(model, rules, other, strict, cap):
    """The least mask above ``model`` that holds the heads, within
    ``cap``, of every rule whose body ``_entailed(body, model, other,
    strict)`` accepts."""
    pending = rules
    while pending:
        waiting, before = [], model
        for rule in pending:
            heads = rule[1] & cap
            if not heads & ~model:
                continue  # nothing left to add
            if _entailed(rule[0], model, other, strict):
                model |= heads
            else:
                waiting.append(rule)
        if model == before:
            break
        pending = waiting
    return model


def _entailed(body, lo, hi, strict) -> bool:
    """Whether a compiled body holds in every world between the masks
    ``lo`` and ``hi``.  Swapping the bounds and passing ``strict=False``,
    under which a conjunct of another shape counts as true rather than
    false, asks instead whether it holds in some world between them."""
    pos, neg, opaque, alts = body
    if strict and opaque or pos & ~lo or neg & hi:
        return False
    return not alts or all(
        _entailed(left, lo, hi, strict) or _entailed(right, lo, hi, strict)
        for left, right in alts
    )
