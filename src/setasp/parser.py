"""Surface syntax: tokenizer, precedence-climbing parser and sugar expansion.

Programs are ASP-flavoured::

    r(1). r(2). q(1).
    q(2) :- Z = {X : r(X)}, p(Z).
    p(Y) :- Y = {X : q(X)}.
    p(a) :- count{X : p(X)} >= 1.
    sum({}) := 0.
    sum(S) := sum(S \\ {Y}) + Y :- Y in S.
    #function f/1 : {a; b}.

``,`` is conjunction, ``;`` disjunction, ``not`` negation, ``->`` nested
implication, ``{t1; t2}`` an extensional set, ``{Xs : Taus : Phi}`` (or the
one-colon short form) an intensional set, and ``f(args) := t :- body`` the
directional-assignment sugar.  Free variables of a statement are closed
universally.  ``%`` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParseError, SignatureError
from .syntax import (
    AGGREGATE_NAMES,
    BOT,
    BUILTIN_FUNCS,
    CONNECTIVES,
    RELATION_PREDS,
    TERM_OPS,
    TOP,
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
    PredAtom,
    Val,
    Var,
    forall,
    formula_statement,
    free_vars,
    ground_constructor_value,
    map_terms,
    neg,
    term_sort,
    walk,
)
from .values import FinSet, HTerm, format_value, value_components, value_key

_REL_TOKENS = RELATION_PREDS | {"="}
# the operators of the table plus the rest of the punctuation, matched
# longest first, so that ``->`` is one token and not ``-`` then ``>``
_PUNCT = {*TERM_OPS, *CONNECTIVES, *(_REL_TOKENS - {"in"}), ":-", ":=", ":", ".", "(", ")", "{", "}"}
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<punct>{"|".join(map(re.escape, sorted(_PUNCT, key=lambda t: (-len(t), t))))})
  | (?P<hash>\#[a-z]+)
  | (?P<int>\d+)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
""",
    re.VERBOSE,
)

_KEYWORDS = frozenset({"not", "in", "exists", "forall"})


@dataclass
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        matched = lexeme = m.group(0)  # a ``#count`` is read as ``count``, but spans its ``#``
        kind = m.lastgroup
        if kind == "ident" and lexeme in _KEYWORDS:
            kind = lexeme
        elif kind == "hash":
            word = lexeme[1:]
            if word in AGGREGATE_NAMES:
                kind, lexeme = "ident", word
            elif word in ("true", "false", "function"):
                kind = word
            else:
                raise ParseError(f"unknown directive {lexeme}", line, col)
        elif kind == "punct":
            kind = lexeme
        if kind != "ws":
            tokens.append(Token(kind, lexeme, line, col))
        newlines = matched.count("\n")
        if newlines:
            line += newlines
            col = len(matched) - matched.rfind("\n")
        else:
            col += len(matched)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Theory & signature


@dataclass(frozen=True)
class Signature:
    """Symbol tables: constructors, evaluable functions, predicates.

    The three name spaces are disjoint; aggregate names are evaluable with
    arity 1.  ``func_ranges`` carries the declared finite graphs of the
    non-aggregate evaluable functions.
    """

    constructors: dict
    evaluables: dict
    predicates: dict
    func_ranges: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Theory:
    signature: Signature
    formulas: tuple
    source: str = ""

    def replace_formulas(self, formulas):
        return Theory(self.signature, tuple(formulas), self.source)

    @cached_property
    def domain_facts(self):
        """``(values, set_layer)``, the part of the active domain that no
        bound changes (``_domain_facts``), read once per theory.  It is not
        a field, so equality ignores it and a theory made from this one
        (``replace_formulas``, ``dataclasses.replace``) reads its own."""
        return _domain_facts(self)


def _domain_facts(theory: Theory):
    """``(values, set_layer)`` of ``theory``, in one pass over its formulas.

    ``values`` holds every ground constructor value the program writes and
    every value of a declared function range, with their component values.
    ``set_layer`` says whether some quantified variable can meet a
    set-valued term.  Two triggers: an equality with a variable on one side
    and a set-sorted term on the other, and a predicate position fed both
    by a variable and by a set-sorted term.  Variables used purely as
    aggregate or membership arguments do not trigger the layer; use
    ``full_domain`` to quantify those over sets as well.
    """
    ranges = theory.signature.func_ranges
    values, position_sorts, set_layer = set(), {}, False
    for phi in theory.formulas:
        for node in walk(phi):
            if isinstance(node, (Num, HApp, ExtSet, Val)):
                v = ground_constructor_value(node)
                if v is not None:
                    value_components(v, values)
            elif isinstance(node, Eq):
                set_layer = set_layer or any(
                    isinstance(var_side, Var) and term_sort(other, ranges) == "set"
                    for var_side, other in ((node.left, node.right), (node.right, node.left))
                )
            elif isinstance(node, PredAtom) and node.pred not in RELATION_PREDS:
                for i, arg in enumerate(node.args):
                    sort = "var" if isinstance(arg, Var) else term_sort(arg, ranges)
                    position_sorts.setdefault((node.pred, i), set()).add(sort)
    for declared in ranges.values():
        for v in declared:
            value_components(v, values)
    set_layer = set_layer or any({"var", "set"} <= sorts for sorts in position_sorts.values())
    return frozenset(values), set_layer


def theory_text(theory: Theory) -> str:
    """Render a theory back into program text, declarations included."""
    lines = []
    for name in sorted(theory.signature.func_ranges):
        arity = theory.signature.evaluables[name]
        values = "; ".join(format_value(v) for v in theory.signature.func_ranges[name])
        lines.append(f"#function {name}/{arity} : {{{values}}}.")
    lines.extend(formula_statement(phi) for phi in theory.formulas)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Raw statements


@dataclass
class RawRule:
    head: object  # Formula or None for a constraint
    body: object  # Formula or None
    assign: object = None  # (EApp, Term) for f(args) := t


def expand_sugar(rule):
    """Rewrite one raw rule into a plain formula.

    ``f(taus) := t :- body`` becomes ``body, t = t -> f(taus) = t`` (the
    ``t = t`` conjunct requires the assigned value to be defined); plain
    rules become ``body -> head``; facts stay as they are.
    """
    if rule.assign is not None:
        app, value = rule.assign
        defined = Eq(value, value)
        antecedent = defined if rule.body is None else And(rule.body, defined)
        return Implies(antecedent, Eq(app, value))
    head = rule.head if rule.head is not None else BOT
    if rule.body is None:
        return head
    return Implies(rule.body, head)


# ---------------------------------------------------------------------------
# Parser

_FORMULA_TOKENS = {*CONNECTIVES, "not", "exists", "forall", "true", "false"} | _REL_TOKENS


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at(self, kind):
        return self.peek().kind == kind

    def fail(self, message, token=None):
        tok = token or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse_list(self, item, sep):
        """One or more of what ``item`` parses, separated by ``sep``."""
        items = [item()]
        while self.at(sep):
            self.next()
            items.append(item())
        return items

    def _level(self, offset=0):
        """Look ahead: the kinds of the tokens from ``offset`` on that no
        bracket opened after it encloses, up to the bracket that closes
        the one the scan started in, or the end of input."""
        depth = 0
        for i in range(self.pos + offset, len(self.tokens)):
            kind = self.tokens[i].kind
            if kind in ("(", "{"):
                depth += 1
            elif kind in (")", "}"):
                if depth == 0:
                    return
                depth -= 1
            elif depth == 0:
                yield kind

    # -- statements

    def parse_program(self):
        rules, directives = [], []
        while not self.at("eof"):
            if self.at("function"):
                directives.append(self.parse_function_directive())
            else:
                rules.append(self.parse_rule())
        return rules, directives

    def parse_function_directive(self):
        self.expect("function")
        name_tok = self.expect("ident")
        self.expect("/")
        arity = int(self.expect("int").text)
        self.expect(":")
        self.expect("{")
        values = self.parse_list(self.parse_ground_value, ";")
        self.expect("}")
        self.expect(".")
        if name_tok.text in AGGREGATE_NAMES:
            self.fail(f"{name_tok.text} is a builtin aggregate", name_tok)
        return name_tok.text, arity, tuple(values)

    def parse_rule(self):
        if self.at(":-"):
            return RawRule(head=None, body=self.parse_body())
        # an assignment has its ':=' before the statement's ':-' or '.'
        if next((k for k in self._level() if k in (":=", ":-", ".")), None) == ":=":
            app = self.parse_term()
            if not isinstance(app, (HApp, EApp)):
                self.fail("left side of ':=' must be a function application")
            self.expect(":=")
            value = self.parse_term()
            return RawRule(head=None, body=self.parse_body(), assign=(app, value))
        head = self.parse_formula()
        return RawRule(head=head, body=self.parse_body())

    def parse_body(self):
        """A statement's ``:- body``, or None without one, then its ``.``."""
        body = None
        if self.at(":-"):
            self.next()
            body = self.parse_formula()
        self.expect(".")
        return body

    # -- formulas

    def parse_formula(self, level=0):
        """A formula whose connectives have precedence ``level`` or more."""
        out = self.parse_unary()
        while (conn := CONNECTIVES.get(self.peek().kind)) and conn[1] >= level:
            node, prec, right, _ = conn
            self.next()
            out = node(out, self.parse_formula(prec if right else prec + 1))
        return out

    def parse_unary(self):
        if self.at("not"):
            self.next()
            return neg(self.parse_unary())
        if self.at("exists") or self.at("forall"):
            quant = self.next().kind
            names = [self.expect("var").text]
            while self.at("var"):
                names.append(self.next().text)
            self.expect("(")
            body = self.parse_formula()
            self.expect(")")
            for name in reversed(names):
                body = Exists(name, body) if quant == "exists" else Forall(name, body)
            return body
        if self.at("true") or self.at("false"):
            return TOP if self.next().kind == "true" else BOT
        # '(' opens a formula iff a connective or relation occurs directly
        # inside it; otherwise it opens a term
        if self.at("(") and any(k in _FORMULA_TOKENS for k in self._level(1)):
            self.next()
            out = self.parse_formula()
            self.expect(")")
            return out
        return self.parse_comparison()

    def parse_comparison(self):
        start = self.peek()
        left = self.parse_term()
        tok = self.peek()
        if tok.kind in _REL_TOKENS:
            self.next()
            right = self.parse_term()
            if tok.kind == "=":
                return Eq(left, right)
            return PredAtom(tok.kind, (left, right))
        if isinstance(left, HApp):
            return PredAtom(left.name, left.args)
        self.fail("expected a predicate atom or comparison", start)

    # -- terms

    def parse_term(self, level=0):
        """A term whose operators have precedence ``level`` or more."""
        out = self.parse_primary()
        while TERM_OPS.get(self.peek().kind, -1) >= level:
            op = self.next().kind
            out = EApp(op, (out, self.parse_term(TERM_OPS[op] + 1)))
        return out

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Num(int(tok.text))
        if tok.kind == "-":
            self.next()
            inner = self.parse_primary()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return EApp("-", (Num(0), inner))
        if tok.kind == "var":
            self.next()
            return Var(tok.text)
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if self.at("{"):
                if name not in AGGREGATE_NAMES:
                    self.fail(f"only aggregates can be applied with braces, not {name!r}", tok)
                return EApp(name, (self.parse_set(),))
            if self.at("("):
                self.next()
                args = self.parse_list(self.parse_term, ",")
                self.expect(")")
                if name in AGGREGATE_NAMES:
                    if len(args) != 1:
                        self.fail(f"aggregate {name} takes one argument", tok)
                    return EApp(name, tuple(args))
                return HApp(name, tuple(args))
            if name in AGGREGATE_NAMES:
                self.fail(f"aggregate {name} needs an argument", tok)
            return HApp(name)
        if tok.kind == "{":
            return self.parse_set()
        if tok.kind == "(":
            self.next()
            out = self.parse_term()
            self.expect(")")
            return out
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def parse_term_tuple(self):
        if self.at("(") and "," in self._level(1):
            self.next()
            items = self.parse_list(self.parse_term, ",")
            self.expect(")")
            return tuple(items)
        return (self.parse_term(),)

    def parse_set(self):
        open_tok = self.expect("{")
        if self.at("}"):
            self.next()
            return ExtSet()
        colons = sum(k == ":" for k in self._level())
        if colons == 0:
            members = self.parse_list(self.parse_term_tuple, ";")
            self.expect("}")
            try:
                return ExtSet(members)
            except ValueError as exc:
                self.fail(str(exc), open_tok)
        if colons > 2:
            self.fail("too many ':' in set", open_tok)
        bound = None
        if colons == 2:
            bound = self.parse_list(lambda: self.expect("var").text, ",")
            self.expect(":")
        head = self.parse_term_tuple()
        self.expect(":")
        body = self.parse_formula()
        self.expect("}")
        if bound is None:
            head_vars = set()
            for t in head:
                head_vars |= free_vars(t)
            bound = sorted(head_vars)
        occurring = set()
        for t in head:
            occurring |= free_vars(t)
        occurring |= free_vars(body)
        for name in bound:
            if name not in occurring:
                self.fail(f"bound variable {name} does not occur in the set", open_tok)
        try:
            return IntSet(tuple(bound), head, body)
        except ValueError as exc:
            self.fail(str(exc), open_tok)

    # -- ground values for #function ranges

    def parse_ground_value(self):
        tok = self.peek()
        term = self.parse_term()
        value = ground_constructor_value(term)
        if value is None:
            self.fail("function ranges need ground constructor terms", tok)
        return value


# ---------------------------------------------------------------------------
# Program assembly


def parse_program(text):
    """Parse a program into a closed :class:`Theory`.

    Sugar is expanded, declared evaluable functions are resolved, free
    variables are universally closed, and the inferred signature is checked
    for arity consistency and name-space disjointness.
    """
    tokens = tokenize(text)
    rules, directives = _Parser(tokens).parse_program()

    func_ranges = {}
    func_arities = {}
    for name, arity, values in directives:
        if name in func_ranges:
            raise SignatureError(f"function {name} declared twice")
        deduped = sorted(set(values), key=value_key)
        func_ranges[name] = tuple(deduped)
        func_arities[name] = arity

    formulas = []
    for rule in rules:
        target = rule.assign and rule.assign[0]
        if isinstance(target, HApp) and target.name not in func_ranges:
            raise SignatureError(
                f"':=' assigns to {target.name}, which is neither an aggregate nor "
                f"declared with #function"
            )
        phi = _resolve(expand_sugar(rule), func_ranges)
        formulas.append(forall(sorted(free_vars(phi)), phi))

    signature = _infer_signature(formulas, func_ranges, func_arities)
    return Theory(signature, tuple(formulas), source=text)


def _resolve(phi, func_ranges):
    """Rewrite constructor applications of declared function names."""
    if not func_ranges:
        return phi

    def fix(term):
        if isinstance(term, HApp) and term.name in func_ranges:
            return EApp(term.name, term.args)
        return term

    return map_terms(phi, fix)


def _infer_signature(formulas, func_ranges, func_arities):
    constructors = {}
    evaluables = dict(func_arities)
    predicates = {}

    def note(table, kind, name, arity):
        if table.setdefault(name, arity) != arity:
            raise SignatureError(
                f"{kind} {name} used with arities {table[name]} and {arity}"
            )

    for name in AGGREGATE_NAMES:
        if name in func_ranges:
            raise SignatureError(f"{name} is a builtin aggregate")

    def note_value_constructors(value):
        if isinstance(value, HTerm):
            note(constructors, "constructor", value.name, len(value.args))
            for arg in value.args:
                note_value_constructors(arg)
        elif isinstance(value, FinSet):
            for member in value.tuples:
                for component in member:
                    note_value_constructors(component)

    for values in func_ranges.values():
        for value in values:
            note_value_constructors(value)

    for phi in formulas:
        for node in walk(phi):
            if isinstance(node, HApp):
                note(constructors, "constructor", node.name, len(node.args))
            elif isinstance(node, EApp):
                if node.name in AGGREGATE_NAMES:
                    if len(node.args) != 1:
                        raise SignatureError(f"aggregate {node.name} takes one argument")
                elif node.name in func_ranges:
                    note(evaluables, "function", node.name, len(node.args))
                elif node.name not in BUILTIN_FUNCS:
                    raise SignatureError(f"undeclared evaluable function {node.name}")
            elif isinstance(node, PredAtom) and node.pred not in RELATION_PREDS:
                note(predicates, "predicate", node.pred, len(node.args))

    for name in AGGREGATE_NAMES:
        evaluables[name] = 1

    overlap = (set(constructors) & set(evaluables)) | (set(constructors) & set(predicates)) | (
        set(evaluables) & set(predicates)
    )
    if overlap:
        raise SignatureError(
            f"symbols used in more than one role: {', '.join(sorted(overlap))}"
        )
    return Signature(constructors, evaluables, predicates, func_ranges)
