"""Binding-driven instantiation: the equilibrium engine's grounding.

``_Instantiation`` runs the support fixpoint of ``ground`` and grounds
the theory as it goes, giving each variable only the values its binding
occurrences in a rule body allow (``_binding_plan``).  Every instance it
makes is one that ``ground.ground_theory`` makes as well.
"""

from __future__ import annotations

from .errors import DomainLimitError
from .ground import _TOP_MARK, GroundTheory, _ranging, _text, _Viability, simplify
from .interp import Universe
from .parser import Theory
from .syntax import (
    RELATION_PREDS,
    TOP,
    Eq,
    Implies,
    IntSet,
    Num,
    PredAtom,
    Val,
    Var,
    closure_prefix,
    conjuncts,
    free_vars,
    nests_set,
    substitute,
    term_sort,
    walk,
)
from .values import UNDEF, value_key


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
        self.ground = GroundTheory(universe, tuple(self._formulas), self._provenance)
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
            planned = self._set_sources[iset] = (_Source(iset, iset.bound, iset.body), nests_set(iset))
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
                        if term_sort(term, self.universe.signature.func_ranges) == "int"
                        else domain.values_for(lambda: _ranging((name,), source.subject))
                    )
                else:
                    values = sorted(
                        (v for v in values if v is not UNDEF and v in domain), key=value_key
                    )
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
    whose ``t`` is bound by then gives ``X`` the possible values of ``t``,
    in ``value_key`` order.
    Each name reached by neither ranges over the domain, after which the
    equalities are tried again.  Steps are ``("atom", atom)``, ``("eq",
    (name, term))`` and ``("domain", name)``.
    """
    parts = () if body is None else conjuncts(body)
    steps, bound = [], set()
    for phi in parts:
        if isinstance(phi, PredAtom) and phi.pred not in RELATION_PREDS:
            new = {a.name for a in phi.args if isinstance(a, Var)} - bound
            if new:
                steps.append(("atom", phi))
                bound |= new
    equalities = [
        (side.name, other, free_vars(other))
        for phi in parts
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
