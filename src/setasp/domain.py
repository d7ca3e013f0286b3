"""Bounded ground universe and the active instantiation domain.

The mathematical universe is infinite (all Herbrand terms, all finite sets
of tuples over them, nested arbitrarily).  Solving works relative to
explicit :class:`DomainBounds`; results are exact only up to those bounds.

Quantifiers are instantiated over the *active domain*: base values that can
actually reach a variable (bounded integers and Herbrand terms, ground
values written in the program, declared function ranges), plus one or more
layers of finite sets over that base when some variable can be compared
against a set-valued term.  ``full_domain`` replaces this demand-driven
choice with the literal bounded universe at ``max_set_rank``.  The base is
built eagerly; the set layers are counted and tested by structure, and
enumerated only when something ranges over the whole domain.

What the program adds, its written values and whether it needs the set
layers, depends on no bound: ``Theory.domain_facts`` reads it once per
parsed theory, so both engines solving one theory share that pass, and
``build_active_domain`` adds only the bounded universe and the caps.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, replace

from .errors import BoundsError, DomainLimitError
from .parser import Signature, Theory
from .syntax import EApp, term_sort, walk
from .values import EMPTY_SET, UNDEF, FinSet, HTerm, value_key


@dataclass(frozen=True)
class DomainBounds:
    """Size limits that finitize the universe.

    ``domain_cap``, ``atom_cap`` and ``instance_cap`` are hard guards: they
    abort construction instead of letting an enumeration explode.
    ``domain_cap`` bounds the base values when the domain is built, and the
    whole domain, set layers included, only when something enumerates it.
    ``atom_cap`` bounds the atoms the stable-model search decides on one
    branch of each part of a program that shares no atom with the rest,
    and, as a power of 2, the leaves the parts combine into; not the
    number of undecided atoms.  ``instance_cap`` bounds the
    substitutions that one formula or set term enumerates, counting only
    those a grounding actually makes, not the domain size to the power of
    the variables; the full grounding counts each value it tries for a
    variable, also where a guard then cuts the substitution.
    """

    max_herbrand_depth: int = 2
    int_min: int = 0
    int_max: int = 10
    max_set_rank: int = 1
    max_set_card: int = 4
    max_tuple_arity: int = 2
    full_domain: bool = False
    domain_cap: int = 50_000
    atom_cap: int = 18
    instance_cap: int = 200_000

    def __post_init__(self):
        # int_min > int_max is allowed and means "no integer values"
        for name in ("max_herbrand_depth", "max_set_rank", "max_set_card", "max_tuple_arity"):
            if getattr(self, name) < 0:
                raise BoundsError(f"{name} must be >= 0, got {getattr(self, name)}")

    def with_(self, **kwargs):
        return replace(self, **kwargs)

    def clip_int(self, n):
        """Integers outside the configured range are not domain values."""
        if self.int_min <= n <= self.int_max:
            return n
        return UNDEF


def _herbrand_terms(sig: Signature, bounds: DomainBounds):
    """All constructor terms up to the depth bound, plus the integer range."""
    values = set(range(bounds.int_min, bounds.int_max + 1))
    constants = {HTerm(name) for name, arity in sig.constructors.items() if arity == 0}
    values |= constants
    builders = [(n, a) for n, a in sig.constructors.items() if a > 0]
    pool = set(constants)
    for depth in range(1, bounds.max_herbrand_depth + 1):
        fresh = set()
        for name, arity in builders:
            for args in itertools.product(sorted(pool, key=value_key), repeat=arity):
                if max((_herbrand_depth(a) for a in args), default=0) == depth - 1:
                    fresh.add(HTerm(name, args))
                    if len(values) + len(fresh) > bounds.domain_cap:
                        raise DomainLimitError(
                            "Herbrand universe exceeds the domain cap; lower "
                            "max_herbrand_depth or the constructor signature",
                            "domain_cap",
                        )
        pool |= fresh
        values |= fresh
        if not fresh:
            break
    return values


def _herbrand_depth(v):
    if isinstance(v, HTerm) and v.args:
        return 1 + max(_herbrand_depth(a) for a in v.args)
    return 0


def _set_layer(base, bounds: DomainBounds):
    """All finite sets of tuples over ``base`` within the card/arity
    bounds.  Over a ``base`` in ``value_key`` order they come in that order
    too: by cardinality, then by tuple arity, then by member tuples."""
    yield EMPTY_SET
    rows = [list(itertools.product(base, repeat=a)) for a in range(1, bounds.max_tuple_arity + 1)]
    for card in range(1, min(bounds.max_set_card, max(map(len, rows), default=0)) + 1):
        for row in rows:
            yield from map(FinSet, itertools.combinations(row, card))


def _merged(base, layer):
    """The values of ``base`` and ``layer``, both in ``value_key`` order,
    in that order, each once."""
    out, start = [], 0
    for v in base:
        i = bisect.bisect_left(layer, value_key(v), start, key=value_key)
        out += layer[start:i]
        start = i
        if i == len(layer) or layer[i] != v:
            out.append(v)
    out += layer[start:]
    return out


def _layer_size(m, bounds: DomainBounds):
    """How many sets ``_set_layer`` makes over ``m`` values: the empty set
    plus, per tuple arity ``a``, every nonempty set of at most
    ``max_set_card`` of the ``m**a`` tuples.  The sum stops once it
    passes ``sys.maxsize``, the most ``len`` can report."""
    size = 1
    for a in range(1, bounds.max_tuple_arity + 1):
        tuples = m**a
        for k in range(1, min(bounds.max_set_card, tuples) + 1):
            size += math.comb(tuples, k)
            if size > sys.maxsize:
                return size
    return size


def build_domain_level(sig: Signature, bounds: DomainBounds, i: int):
    """The bounded universe at stratum ``i``: sets of tuples added ``i`` times."""
    if i > bounds.max_set_rank:
        raise ValueError(f"level {i} exceeds max_set_rank={bounds.max_set_rank}")
    return ActiveDomain(_herbrand_terms(sig, bounds), bounds, i).value_set


# ---------------------------------------------------------------------------
# Active domain


def needs_set_layer(theory: Theory):
    """True when some quantified variable can meet a set-valued term, as
    ``Theory.domain_facts`` reads it once per theory."""
    return theory.domain_facts[1]


def set_argument_functions(theory: Theory):
    """The declared functions applied to a set-sorted argument, sorted.

    ``needs_set_layer`` does not look at these arguments, so without the
    set layer a variable in such a position never meets a set.
    """
    sig = theory.signature
    if not sig.func_ranges:
        return []
    return sorted(
        {
            node.name
            for phi in theory.formulas
            for node in walk(phi)
            if isinstance(node, EApp)
            and node.name in sig.func_ranges
            and any(term_sort(a, sig.func_ranges) == "set" for a in node.args)
        }
    )


class ActiveDomain:
    """The finite instantiation domain: eager base values plus ``rank``
    set layers over them, tested by structure and enumerated on demand.

    The domain at rank ``k > 0`` is the base plus every set, within
    ``max_set_card`` and ``max_tuple_arity``, of same-arity tuples over the
    domain at rank ``k - 1``, which it therefore contains.  ``v in
    domain`` checks that structure and ``len`` counts it (up to
    ``sys.maxsize``), neither enumerating a set; ``values`` (in ``value_key`` order) and
    ``value_set`` build it on first use.  ``has_set_layer`` says whether
    the layers add a value the base lacks.
    """

    __slots__ = (
        "bounds", "rank", "has_set_layer", "_base", "_size", "_values", "_value_set", "_ints"
    )

    def __init__(self, base, bounds: DomainBounds, rank):
        self.bounds = bounds
        self.rank = rank
        self._base = frozenset(base)
        size = len(self._base)
        for k in range(1, rank + 1):
            if size > sys.maxsize:
                break  # a higher rank only adds values
            size = _layer_size(size, bounds) + sum(not self._in_layer(v, k) for v in self._base)
        self._size = size
        self.has_set_layer = size > len(self._base)
        self._values = self._value_set = self._ints = None

    def _in_layer(self, v, k):
        """``v`` is a set over the domain at rank ``k - 1`` within the bounds."""
        return (
            isinstance(v, FinSet)
            and len(v) <= self.bounds.max_set_card
            and (v.arity or 0) <= self.bounds.max_tuple_arity
            and all(
                e in self._base or (k > 1 and self._in_layer(e, k - 1))
                for t in v.tuples
                for e in t
            )
        )

    def __contains__(self, v):
        return v in self._base or (self.rank > 0 and self._in_layer(v, self.rank))

    def values_for(self, what):
        """``values``; when the set layers make them more than ``domain_cap``,
        raise before enumerating, naming ``what()``, the variable or term
        that ranges over them."""
        if self._values is None:
            if self._size > self.bounds.domain_cap:
                size = self._size if self._size <= sys.maxsize else f"more than {sys.maxsize}"
                raise DomainLimitError(
                    f"{what()} needs {size} domain values, set layers included; "
                    "lower max_set_card, max_tuple_arity or the base domain",
                    "domain_cap",
                )
            # each layer holds the one below, so only the base is merged in
            base = values = sorted(self._base, key=value_key)
            for _ in range(self.rank):
                values = _merged(base, list(_set_layer(values, self.bounds)))
            self._values = tuple(values)
        return self._values

    def product(self, arity, what):
        """Every ``arity``-tuple of ``values_for(what)``, as
        ``itertools.product`` makes them; when there are more than
        ``instance_cap``, raise before enumerating, naming the count and
        ``what()``."""
        values = self.values_for(what)
        count = len(values) ** arity
        if count > self.bounds.instance_cap:
            raise DomainLimitError(f"{what()} ranges over {count} value tuples", "instance_cap")
        return itertools.product(values, repeat=arity)

    @property
    def values(self):
        return self.values_for(lambda: "enumerating the domain")

    @property
    def ints(self):
        """The integers of the domain, in order: every value that a term
        ``syntax.term_sort`` calls "int" can take, other than undefined."""
        if self._ints is None:
            self._ints = tuple(sorted(v for v in self._base if isinstance(v, int)))
        return self._ints

    @property
    def value_set(self):
        if self._value_set is None:
            self._value_set = frozenset(self.values)
        return self._value_set

    def __len__(self):
        return min(self._size, sys.maxsize)

    def __iter__(self):
        return iter(self.values)


def build_active_domain(theory: Theory, bounds: DomainBounds) -> ActiveDomain:
    """Base values plus, when needed, set layers over them.

    The base is the bounded integer/Herbrand universe, every ground
    constructor value written in the program, and the declared function
    ranges (with their component values).  Only the bounded universe and
    the caps are read here; the program's values and whether it needs the
    set layers come from ``Theory.domain_facts``, read once per theory.
    """
    values, set_layer = theory.domain_facts
    base = _herbrand_terms(theory.signature, bounds) | values
    if len(base) > bounds.domain_cap:
        raise DomainLimitError("active domain exceeds the domain cap", "domain_cap")
    layered = bounds.full_domain or set_layer
    return ActiveDomain(base, bounds, bounds.max_set_rank if layered else 0)
