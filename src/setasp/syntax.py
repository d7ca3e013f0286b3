"""Term and formula ASTs, ranks, variable binding, constant-term values
and pretty-printing.

Terms and formulas are stratified: a set term ``{xs : taus : phi}`` may only
carry a body of strictly smaller rank, so evaluation of a set's body never
sees the set itself.  Negation is not a connective of its own: ``not phi``
is stored as ``phi -> #false``.

Every node states its shape once, and the structural traversals
(``walk``, ``rank``, ``free_vars``, ``substitute``, ``map_terms``) are
derived from it:

- ``children`` holds the direct subterms and subformulas, in order: an
  application's or atom's args; an extensional set's members row by row;
  an intensional set's head terms, then its body; ``left``, ``right``; a
  quantifier's body.  Leaves have none.
- ``rebuild(children)`` is the same node over new children; ``rebuilt``
  returns the node itself when no child changed, so rewrites share
  unchanged subtrees.
- ``binds`` names the variables the node binds in its children: an
  intensional set's ``bound``, a quantifier's ``(var,)``, otherwise none.

``walk`` visits a node before its children, in that order; the atoms it
meets number the positions ``setasp transform`` takes.
"""

from __future__ import annotations

from operator import is_

from .values import FinSet, HTerm, format_value

AGGREGATE_NAMES = frozenset({"count", "sum", "max", "min"})
ARITH_OPS = frozenset({"+", "-", "*", "/"})
SET_OPS = frozenset({"\\/", "/\\", "\\"})
BUILTIN_FUNCS = ARITH_OPS | SET_OPS
RELATION_PREDS = frozenset({"<=", ">=", "<", ">", "!=", "in"})

# The operator table, ``TERM_OPS`` here and ``CONNECTIVES`` after the
# formula classes, is the one statement of how operators group; the
# tokenizer, the parser and the printer read it.  A higher precedence
# binds tighter, and every term operator groups to the left.
TERM_OPS = {"\\/": 1, "\\": 2, "/\\": 3, "+": 4, "-": 4, "*": 5, "/": 5}


class _Node:
    __slots__ = ("_hash",)
    children = ()
    binds = ()

    def rebuild(self, children):
        return self

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return pretty(self)


def rebuilt(node, children):
    """``node`` over ``children``; ``node`` itself when each child is the
    same object as before."""
    if all(map(is_, children, node.children)):
        return node
    return node.rebuild(children)


# ---------------------------------------------------------------------------
# Terms


class Term(_Node):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._hash = hash(("var", name))

    def __eq__(self, other):
        return self is other or (isinstance(other, Var) and self.name == other.name)

    __hash__ = _Node.__hash__


class Num(Term):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value
        self._hash = hash(("num", value))

    def __eq__(self, other):
        return self is other or (isinstance(other, Num) and self.value == other.value)

    __hash__ = _Node.__hash__


class Val(Term):
    """A ground domain value injected by instantiation."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value
        self._hash = hash(("val", value))

    def __eq__(self, other):
        return self is other or (isinstance(other, Val) and self.value == other.value)

    __hash__ = _Node.__hash__


class _App(Term):
    __slots__ = ("name", "args", "children")
    _tag = ""

    def __init__(self, name, args=()):
        self.name = name
        self.args = self.children = tuple(args)
        self._hash = hash((self._tag, name, self.args))

    def rebuild(self, children):
        return type(self)(self.name, children)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and self.name == other.name and self.args == other.args
        )

    __hash__ = _Node.__hash__


class HApp(_App):
    """Application of a Herbrand constructor (constants have no args)."""

    __slots__ = ()
    _tag = "happ"


class EApp(_App):
    """Application of an evaluable function: declared, aggregate or builtin."""

    __slots__ = ()
    _tag = "eapp"


class ExtSet(Term):
    """Extensional set literal: a listed collection of same-arity term tuples."""

    __slots__ = ("members", "children")

    def __init__(self, members=()):
        members = tuple(tuple(m) for m in members)
        arities = {len(m) for m in members}
        if len(arities) > 1:
            raise ValueError("extensional set members must share one arity")
        if arities and 0 in arities:
            raise ValueError("empty tuple in extensional set")
        self.members = members
        self.children = tuple(t for m in members for t in m)
        self._hash = hash(("extset", members))

    def rebuild(self, children):
        k = len(self.members[0]) if self.members else 1
        return ExtSet(children[i : i + k] for i in range(0, len(children), k))

    def __eq__(self, other):
        return self is other or (isinstance(other, ExtSet) and self.members == other.members)

    __hash__ = _Node.__hash__


class IntSet(Term):
    """Intensional set ``{bound : head : body}``.

    ``bound`` is the tuple of variables being varied; every bound variable
    occurs in the head tuple or the body.  The body has strictly smaller
    rank than the set itself.
    """

    __slots__ = ("bound", "head", "body", "children", "binds")

    def __init__(self, bound, head, body):
        self.bound = self.binds = tuple(bound)
        if len(set(self.bound)) != len(self.bound):
            raise ValueError("duplicate bound variable in intensional set")
        self.head = tuple(head)
        if not self.head:
            raise ValueError("intensional set needs a nonempty head tuple")
        self.body = body
        self.children = (*self.head, body)
        self._hash = hash(("intset", self.bound, self.head, body))

    def rebuild(self, children):
        return IntSet(self.bound, children[:-1], children[-1])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, IntSet)
            and self.bound == other.bound
            and self.head == other.head
            and self.body == other.body
        )

    __hash__ = _Node.__hash__


# ---------------------------------------------------------------------------
# Formulas


class Formula(_Node):
    __slots__ = ()


class _Bot(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("bot")

    def __eq__(self, other):
        return isinstance(other, _Bot)

    __hash__ = _Node.__hash__


class _Top(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash("top")

    def __eq__(self, other):
        return isinstance(other, _Top)

    __hash__ = _Node.__hash__


BOT = _Bot()
TOP = _Top()


class PredAtom(Formula):
    """Predicate atom; ``pred`` may also be a builtin relation symbol."""

    __slots__ = ("pred", "args", "children")

    def __init__(self, pred, args=()):
        self.pred = pred
        self.args = self.children = tuple(args)
        self._hash = hash(("atom", pred, self.args))

    def rebuild(self, children):
        return PredAtom(self.pred, children)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PredAtom) and self.pred == other.pred and self.args == other.args
        )

    __hash__ = _Node.__hash__


class _Pair(Formula):
    __slots__ = ("left", "right", "children")
    _tag = ""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.children = (left, right)
        self._hash = hash((self._tag, left, right))

    def rebuild(self, children):
        return type(self)(*children)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and self.left == other.left and self.right == other.right
        )

    __hash__ = _Node.__hash__


class Eq(_Pair):
    __slots__ = ()
    _tag = "eq"


class _BinConn(_Pair):
    __slots__ = ()


class And(_BinConn):
    __slots__ = ()
    _tag = "and"


class Or(_BinConn):
    __slots__ = ()
    _tag = "or"


class Implies(_BinConn):
    __slots__ = ()
    _tag = "implies"


class _Quant(Formula):
    __slots__ = ("var", "body", "children", "binds")
    _tag = ""

    def __init__(self, var, body):
        self.var = var
        self.body = body
        self.children = (body,)
        self.binds = (var,)
        self._hash = hash((self._tag, var, body))

    def rebuild(self, children):
        return type(self)(self.var, children[0])

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and self.var == other.var and self.body == other.body
        )

    __hash__ = _Node.__hash__


class Forall(_Quant):
    __slots__ = ()
    _tag = "forall"


class Exists(_Quant):
    __slots__ = ()
    _tag = "exists"


# connective token -> (node class, precedence, groups to the right, printed
# form); ``not`` and the quantifiers bind tighter than any of them
CONNECTIVES = {
    "->": (Implies, 1, True, " -> "),
    ";": (Or, 2, False, "; "),
    ",": (And, 3, False, ", "),
}


def neg(phi):
    return Implies(phi, BOT)


def conj(parts):
    parts = [p for p in parts if p is not TOP]
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def conjuncts(phi):
    """The parts of ``phi``'s top-level ``,`` chain, left to right."""
    return (*conjuncts(phi.left), *conjuncts(phi.right)) if isinstance(phi, And) else (phi,)


def fold(phi):
    """A binary connective with its ``TOP`` and ``BOT`` parts folded away
    classically; ``phi`` itself when nothing folds."""
    left, right = phi.left, phi.right
    if isinstance(phi, And):
        if left == BOT or right == BOT:
            return BOT
        if left == TOP:
            return right
        if right == TOP:
            return left
    elif isinstance(phi, Or):
        if left == TOP or right == TOP:
            return TOP
        if left == BOT:
            return right
        if right == BOT:
            return left
    elif left == BOT or right == TOP:
        return TOP
    elif left == TOP:
        return right
    return phi


def comparison(phi):
    """``(rel, left, right)`` of an equality (``"="``) or relation atom, else None."""
    if isinstance(phi, Eq):
        return "=", phi.left, phi.right
    if isinstance(phi, PredAtom) and phi.pred in RELATION_PREDS:
        return (phi.pred, *phi.args)
    return None


def forall(names, body):
    for name in reversed(list(names)):
        body = Forall(name, body)
    return body


def closure_prefix(phi):
    """The variables of a closed formula's leading ``forall`` and its matrix."""
    names = []
    while isinstance(phi, Forall):
        names.append(phi.var)
        phi = phi.body
    return names, phi


# ---------------------------------------------------------------------------
# Rank, free variables, substitution


def rank(node):
    """Smallest stratum the expression lives in; set bodies sit one below."""
    if isinstance(node, IntSet):
        return max(max(map(rank, node.head)), rank(node.body) + 1)
    return max(map(rank, node.children), default=0)


def free_vars(node):
    if isinstance(node, Var):
        return frozenset((node.name,))
    out = frozenset()
    for child in node.children:
        out |= free_vars(child)
    return out.difference(node.binds) if node.binds else out


def ground_constructor_value(term):
    """Value of a variable-free constructor term, or None."""
    if isinstance(term, Num):
        return term.value
    if isinstance(term, Val):
        return term.value
    if isinstance(term, HApp):
        args = [ground_constructor_value(a) for a in term.args]
        if any(a is None for a in args):
            return None
        return HTerm(term.name, args)
    if isinstance(term, ExtSet):
        rows = []
        for member in term.members:
            vals = [ground_constructor_value(t) for t in member]
            if any(v is None for v in vals):
                return None
            rows.append(tuple(vals))
        return FinSet(rows)
    return None


def term_sort(term, func_ranges):
    """Coarse value sort: 'int', 'herb', 'set' or 'any'.  A declared
    function's is 'set' when ``func_ranges`` gives it a set value."""
    if isinstance(term, Num):
        return "int"
    if isinstance(term, Var):
        return "any"
    if isinstance(term, HApp):
        return "herb"
    if isinstance(term, (ExtSet, IntSet)):
        return "set"
    if isinstance(term, Val):
        return "set" if isinstance(term.value, FinSet) else (
            "int" if isinstance(term.value, int) else "herb"
        )
    if isinstance(term, EApp):
        if term.name in ARITH_OPS or term.name in AGGREGATE_NAMES:
            return "int"
        if term.name in SET_OPS:
            return "set"
        ranges = func_ranges.get(term.name, ())
        return "set" if any(isinstance(v, FinSet) for v in ranges) else "herb"
    raise TypeError(f"not a term: {term!r}")


def nests_set(iset):
    """Whether another set term lies inside the set term ``iset``."""
    return any(isinstance(node, IntSet) for node in walk(iset) if node is not iset)


def substitute(node, sub):
    """Replace free variables per ``sub`` (name -> term), respecting binders.

    Returns the original object when nothing changes, so instantiated
    formulas share subtrees and caches keyed on them stay effective.
    """
    if not sub:
        return node
    if isinstance(node, Var):
        return sub.get(node.name, node)
    if node.binds:
        sub = {k: v for k, v in sub.items() if k not in node.binds}
        if not sub:
            return node
    return rebuilt(node, tuple([substitute(child, sub) for child in node.children]))


def map_terms(node, fn):
    """Rebuild bottom-up, passing every term through ``fn`` after its
    children have been rewritten.  Shares unchanged nodes."""
    node = rebuilt(node, tuple(map_terms(child, fn) for child in node.children))
    return fn(node) if isinstance(node, Term) else node


def walk(node):
    """Yield the node and all descendants (set bodies included), pre-order."""
    yield node
    for child in node.children:
        yield from walk(child)


# ---------------------------------------------------------------------------
# Pretty-printing (kept parseable; see parser.parse_program)

def _term_str(term, parent_prec=0):
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Num):
        return str(term.value)
    if isinstance(term, Val):
        return format_value(term.value)
    if isinstance(term, HApp):
        if not term.args:
            return term.name
        return f"{term.name}({', '.join(_term_str(a) for a in term.args)})"
    if isinstance(term, EApp):
        if term.name in TERM_OPS and len(term.args) == 2:
            prec = TERM_OPS[term.name]
            left = _term_str(term.args[0], prec)
            right = _term_str(term.args[1], prec + 1)
            text = f"{left} {term.name} {right}"
            return f"({text})" if prec < parent_prec else text
        if term.name in AGGREGATE_NAMES and len(term.args) == 1 and isinstance(term.args[0], IntSet):
            return f"{term.name}{_term_str(term.args[0])}"
        if not term.args:
            return term.name
        return f"{term.name}({', '.join(_term_str(a) for a in term.args)})"
    if isinstance(term, ExtSet):
        return "{" + "; ".join(_tuple_str(m) for m in term.members) + "}"
    if isinstance(term, IntSet):
        head = _tuple_str(term.head)
        body = _formula_str(term.body)
        implicit = tuple(sorted(set().union(*(free_vars(t) for t in term.head)) or set()))
        if implicit == term.bound:
            return f"{{{head} : {body}}}"
        return f"{{{', '.join(term.bound)} : {head} : {body}}}"
    raise TypeError(f"not a term: {term!r}")


def _tuple_str(terms):
    if len(terms) == 1:
        return _term_str(terms[0])
    return f"({', '.join(_term_str(t) for t in terms)})"


_PRINTED = {node: (prec, right, printed) for node, prec, right, printed in CONNECTIVES.values()}
_NOT_PREC = 1 + max(prec for prec, _, _ in _PRINTED.values())


def _formula_str(phi, parent_prec=0):
    if isinstance(phi, _Bot):
        return "#false"
    if isinstance(phi, _Top):
        return "#true"
    if (parts := comparison(phi)) is not None:
        return f"{_term_str(parts[1])} {parts[0]} {_term_str(parts[2])}"
    if isinstance(phi, PredAtom):
        if not phi.args:
            return phi.pred
        return f"{phi.pred}({', '.join(_term_str(a) for a in phi.args)})"
    if isinstance(phi, Implies) and phi.right == BOT:
        return f"not {_formula_str(phi.left, _NOT_PREC)}"
    if isinstance(phi, _BinConn):
        prec, right, printed = _PRINTED[type(phi)]
        left_text = _formula_str(phi.left, prec + right)
        text = f"{left_text}{printed}{_formula_str(phi.right, prec + (not right))}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(phi, Forall):
        return f"forall {phi.var} ({_formula_str(phi.body)})"
    if isinstance(phi, Exists):
        return f"exists {phi.var} ({_formula_str(phi.body)})"
    raise TypeError(f"not a formula: {phi!r}")


def pretty(node):
    if isinstance(node, Term):
        return _term_str(node)
    return _formula_str(node)


def formula_statement(phi):
    """Render a closed formula as one program statement ``head :- body.``"""
    phi = closure_prefix(phi)[1]
    if not isinstance(phi, Implies):
        return f"{_formula_str(phi)}."
    head = "" if phi.right == BOT else f"{_formula_str(phi.right)} "
    return f"{head}:- {_formula_str(phi.left)}."
