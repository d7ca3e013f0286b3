"""Model checking and equilibrium (stable-model) search.

The search tests total candidates ``(sigma, T)`` and keeps those with no
strictly smaller here-world model.  ``T`` ranges between two bounds.
The upper bound is the set of *possibly-true* atoms: the support fixpoint
of ``ground``, which ``find_stable_models`` runs as the binding-driven
instantiation of ``instantiate`` and ``solve_ground`` over a theory that
``ground.ground_theory`` grounded in full.  An atom outside it has no
support in any rule chain, so dropping it always yields a smaller model.
The lower bound holds the atoms that rules with statically decidable
bodies force into every model.  The ``search`` module decides the atoms
between the bounds one at a time and tests only the leaves of that
search, each against every assignment of the declared applications
that the formulas it keeps read (the sigma loop); each assignment that
passes is a stable model.  The search decides which leaves take the
checks and which formulas they read (``search.search_stable``).
Minimality is a least-model fixpoint (``rules``) where the rules allow
it and a subset search elsewhere.  Each leaf that takes the checks tests
every formula it reads afresh.  Propagation reads a set term compared
with a set value through the atoms of its members, so the paper's p1 closes at its
root and takes no check.

The GZ engine (``gz``) shares the rule view and least-model fixpoint,
the ground-atom reading (``interp.static_atom``) and the search
(``search.search_stable``), whose propagation over its full grounding
also gives it its upper bound: each engine supplies only its own model
test and minimality check.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import partial

from .domain import DomainBounds, build_active_domain, set_argument_functions
from .errors import DomainLimitError, RangeDeclarationError, SetAspError
from .ground import GroundTheory, _Viability, ground_theory, relevant_atoms
from .instantiate import _Instantiation
from .interp import (
    H,
    T,
    Assignment,
    HTInterpretation,
    Universe,
    atom_key,
    eval_term,
    is_coherent,
    s_satisfies,
    static_atom,
)
from .parser import Theory
from .rules import least_model
from .search import _Propagation, search_stable
from .syntax import AGGREGATE_NAMES, EApp, Exists, Forall, Implies, IntSet, pretty
from .values import UNDEF, format_value


def format_atom(atom):
    pred, args = atom
    if not args:
        return pred
    return f"{pred}({', '.join(format_value(a) for a in args)})"


def build_universe(theory: Theory, bounds: DomainBounds) -> Universe:
    return Universe(theory.signature, bounds, build_active_domain(theory, bounds))


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


def _declared_applications(ground: GroundTheory, viability: _Viability):
    """Declared-function applications whose values the theory can observe.

    An application whose argument is not static covers the argument
    values ``viability`` finds possible, or the whole domain past its cap
    or where it still holds a variable (``argument_values``).  A set term
    or a quantifier is read through its instances, nested ones included,
    so a set term that no formula of ``ground`` holds is not.
    An ``exists`` instance or a member whose body ``viability`` rejects,
    and an implication whose antecedent it rejects, are skipped: each
    holds or fails at both worlds, whatever its applications denote.
    """
    universe = ground.universe
    ranges = universe.signature.func_ranges
    if not ranges:
        return []
    apps, seen = set(), set()

    def scan(node):
        if isinstance(node, IntSet):
            if node not in seen:  # each set term is read once
                seen.add(node)
                for head, body in universe.intset_candidates(node):
                    if viability.possibly_sat(body):
                        for part in (*head, body):
                            scan(part)
            return
        if isinstance(node, Implies) and not viability.possibly_sat(node.left):
            return
        if isinstance(node, (Forall, Exists)):
            for body in universe.quantifier_instances(node):
                if isinstance(node, Forall) or viability.possibly_sat(body):
                    scan(body)
            return
        if isinstance(node, EApp) and node.name in ranges:
            app = static_atom(node, universe)
            if app is not None:
                apps.add(app)
            else:
                combos = viability.argument_values(node.args, lambda: f"application {pretty(node)!r}")
                apps.update((node.name, tuple(c)) for c in combos if UNDEF not in c)
        for child in node.children:
            scan(child)

    for phi in ground.formulas:
        scan(phi)
    return sorted(apps, key=atom_key)


def _sigma_candidates(ground: GroundTheory, viability: _Viability):
    """Every total assignment of declared applications to range values."""
    apps = _declared_applications(ground, viability)
    ranges, total = ground.universe.signature.func_ranges, 1
    choices = [(*ranges[name], UNDEF) for name, _ in apps]
    for options in choices:
        total *= len(options)
        if total > ground.universe.bounds.instance_cap:
            raise DomainLimitError(
                f"{total} assignment candidates over {len(apps)} applications", "instance_cap"
            )
    return [Assignment(dict(zip(apps, combo))) for combo in itertools.product(*choices)]


def _sub_assignments(sigma: Assignment):
    """All assignments below ``sigma``: keep-or-drop each stored fact,
    largest first so the search tries the least change first."""
    items = sorted(sigma.funcs.items(), key=lambda kv: atom_key(kv[0]))
    n = len(items)
    for dropped in range(n + 1):
        for combo in itertools.combinations(range(n), dropped):
            yield Assignment({key: value for i, (key, value) in enumerate(items) if i not in combo})


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
        return partial(s_satisfies, world, H)

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


def find_stable_models(
    theory: Theory, bounds: DomainBounds = None, *, full_checks=False
) -> StableModelReport:
    """Enumerate the stable models of a theory within the given bounds;
    ``full_checks`` is the shared search's (``search.search_stable``)."""
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
    return _solve(_Instantiation(theory, universe), full_checks)


def solve_ground(ground: GroundTheory) -> StableModelReport:
    """Search a theory grounded in full, as by ``ground_theory``."""
    return _solve(_Viability(ground))


def _solve(viability: _Viability, full_checks=False) -> StableModelReport:
    """The stable models of ``viability``'s whole theory, searched inside
    its upper bound: a candidate is a leaf under one assignment."""
    started = time.perf_counter()
    upper = relevant_atoms(viability)
    stats = SearchStats()

    def stable_in(search):
        # a stored fact that only formulas the search left out read is in
        # no stable model
        sigma_space = _sigma_candidates(search, viability)

        def stable(t_atoms):
            for sigma_t in sigma_space:
                candidate = HTInterpretation.total(search.universe, sigma_t, t_atoms)
                # total interpretations collapse both worlds, so the there-world
                # check decides modelhood
                model = all(map(partial(s_satisfies, candidate, T), search.formulas))
                if model and find_countermodel(candidate, search) is None:
                    yield sigma_t.funcs
                else:
                    stats.candidates += 1  # each model is counted below

        return stable

    found = search_stable(_Propagation(viability.ground, upper), stable_in, full_checks)
    stats.candidates += len(found)
    models = [StableModel(atoms, _witness(viability.universe, atoms, funcs)) for atoms, funcs in found]
    stats.elapsed = time.perf_counter() - started
    return StableModelReport(models, stats)


def _witness(universe, atoms, funcs) -> Assignment:
    """The function facts ``funcs`` of the total model ``atoms`` with its
    derived set values materialized: the reported assignment."""
    model = HTInterpretation.total(universe, Assignment(funcs), atoms)
    sets = {}
    for iset in universe.intsets:
        value = eval_term(model, T, iset)
        if value is not UNDEF:
            sets[iset] = value
    return Assignment(funcs, sets)
