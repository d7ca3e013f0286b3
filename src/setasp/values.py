"""Ground values: Herbrand terms, integers, tuples, finite sets and the
undefined mark.

A ground value is one of:

* a Python ``int``
* an :class:`HTerm` (application of a Herbrand constructor to values)
* a Python ``tuple`` of values with length >= 1 (only ever inside a set;
  tuples are flat, they never nest directly)
* a :class:`FinSet` (finite set of same-arity tuples)
* :data:`UNDEF`, the undefined mark, which never occurs inside another value

Structural equality on :class:`FinSet` is set equality; ordering for
deterministic output comes from :func:`value_key`.
"""

from __future__ import annotations


class Undef:
    """The undefined mark.  A singleton; use :data:`UNDEF`."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "u"

    def __hash__(self):
        # constant, so sets holding UNDEF iterate alike in every process;
        # equality stays identity
        return 0x0DEF

    def __reduce__(self):
        return (Undef, ())


UNDEF = Undef()


class HTerm:
    """A ground Herbrand term ``name(args...)``; constants have no args."""

    __slots__ = ("name", "args", "_hash")

    def __init__(self, name, args=()):
        self.name = name
        self.args = tuple(args)
        for arg in self.args:
            if arg is UNDEF or isinstance(arg, tuple):
                raise ValueError(f"illegal constructor argument: {arg!r}")
        self._hash = hash(("hterm", name, self.args))

    def __eq__(self, other):
        return (
            self is other
            or (isinstance(other, HTerm) and self.name == other.name and self.args == other.args)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_value(self)


class FinSet:
    """A finite set of same-arity value tuples.

    Members are stored as a frozenset of tuples, so two constructions from
    the same tuple multiset compare equal.  The empty set has ``arity None``
    and is compatible with any arity.
    """

    __slots__ = ("tuples", "arity", "_hash", "_sorted")

    def __init__(self, tuples=()):
        members = frozenset(tuples)
        arity = None
        for member in members:
            if not isinstance(member, tuple) or not member:
                raise ValueError(f"set member is not a nonempty tuple: {member!r}")
            if arity is None:
                arity = len(member)
            elif len(member) != arity:
                raise ValueError("set members must share one arity")
            for component in member:
                if component is UNDEF:
                    raise ValueError("undefined cannot occur inside a set")
                if isinstance(component, tuple):
                    raise ValueError("tuples cannot nest directly inside tuples")
        self.tuples = members
        self.arity = arity
        self._hash = hash(members) ^ 0x5E75E7
        self._sorted = None

    def sorted_tuples(self):
        if self._sorted is None:
            self._sorted = tuple(sorted(self.tuples, key=value_key))
        return self._sorted

    def __len__(self):
        return len(self.tuples)

    def __contains__(self, member):
        return member in self.tuples

    def __eq__(self, other):
        return self is other or (isinstance(other, FinSet) and self.tuples == other.tuples)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_value(self)


EMPTY_SET = FinSet()


def finset(values):
    """Build a set of arity-1 tuples from bare values (the common case)."""
    return FinSet((v,) for v in values)


def value_key(v):
    """Total order over values (and member tuples), used for all sorting."""
    if isinstance(v, bool):
        raise TypeError("booleans are not values")
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, HTerm):
        return (1, v.name, tuple(value_key(a) for a in v.args))
    if isinstance(v, tuple):
        return (2, len(v), tuple(value_key(e) for e in v))
    if isinstance(v, FinSet):
        return (3, len(v), tuple(value_key(t) for t in v.sorted_tuples()))
    if v is UNDEF:
        return (4,)
    raise TypeError(f"not a value: {v!r}")


def value_components(v, out):
    """Add ``v`` and every value inside it, at any depth, to the set ``out``."""
    out.add(v)
    if isinstance(v, HTerm):
        for a in v.args:
            value_components(a, out)
    elif isinstance(v, FinSet):
        for t in v.tuples:
            for e in t:
                value_components(e, out)


def contains_undef(v):
    """Deep scan; well-formed values never contain the undefined mark."""
    if v is UNDEF:
        return True
    if isinstance(v, HTerm):
        return any(contains_undef(a) for a in v.args)
    if isinstance(v, tuple):
        return any(contains_undef(e) for e in v)
    if isinstance(v, FinSet):
        return any(contains_undef(e) for t in v.tuples for e in t)
    return False


def format_value(v):
    """Render a value in the surface syntax (sets use ';', sorted members)."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, HTerm):
        if not v.args:
            return v.name
        return f"{v.name}({', '.join(format_value(a) for a in v.args)})"
    if isinstance(v, tuple):
        if len(v) == 1:
            return format_value(v[0])
        return f"({', '.join(format_value(e) for e in v)})"
    if isinstance(v, FinSet):
        return "{" + "; ".join(format_value(t) for t in v.sorted_tuples()) + "}"
    if v is UNDEF:
        return "#undef"
    raise TypeError(f"not a value: {v!r}")


def value_to_json(v):
    """JSON encoding: tuples as arrays, sets tagged and sorted, apps tagged."""
    if isinstance(v, int):
        return v
    if isinstance(v, HTerm):
        if not v.args:
            return v.name
        return {"fn": v.name, "args": [value_to_json(a) for a in v.args]}
    if isinstance(v, tuple):
        return [value_to_json(e) for e in v]
    if isinstance(v, FinSet):
        return {"set": [value_to_json(t) for t in v.sorted_tuples()]}
    if v is UNDEF:
        return None
    raise TypeError(f"not a value: {v!r}")
