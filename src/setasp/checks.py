"""Randomized and exhaustive invariant suites.

Each suite returns ``(checked, violations)`` where ``violations`` is a list
of human-readable descriptions; an empty list means the invariant held on
every generated instance.  The command-line ``check-props`` command and the
acceptance tests both run these.
"""

from __future__ import annotations

import itertools
import random

from .domain import DomainBounds
from .errors import SetAspError
from .gz import (
    GENERATOR_BOUNDS,
    eligible_positions,
    existential_intro_transform,
    random_gz_program,
)
from .interp import (
    H,
    T,
    Assignment,
    HTInterpretation,
    aggregate_eval,
    coherence_closure,
    interp_agrees,
    interp_leq,
    s_satisfies,
)
from .parser import Signature, Theory, parse_program
from .solver import build_universe, find_stable_models
from .syntax import (
    And,
    EApp,
    Eq,
    Exists,
    ExtSet,
    Forall,
    Implies,
    IntSet,
    Or,
    PredAtom,
    Val,
    Var,
    closure_prefix,
    ground_constructor_value,
    map_terms,
    neg,
    substitute,
)
from .values import EMPTY_SET, UNDEF, FinSet, HTerm, finset, format_value

# ---------------------------------------------------------------------------
# Random coherent interpretations and ground formulas


_SEED_PROGRAM = """
p(a). q(b).
#function f/0 : {a; b}.
"""


def _semantics_universe():
    theory = parse_program(_SEED_PROGRAM)
    bounds = DomainBounds(int_min=0, int_max=2, max_herbrand_depth=0)
    return build_universe(theory, bounds)


def _random_interp(rng, universe, total=False):
    atoms = [
        (pred, (v,)) for pred in ("p", "q") for v in universe.domain.values
    ]
    t_atoms = frozenset(a for a in atoms if rng.random() < 0.4)
    h_atoms = frozenset(a for a in t_atoms if rng.random() < 0.7)
    f_choices = [None, HTerm("a"), HTerm("b")]
    ft = rng.choice(f_choices)
    funcs_t = {} if ft is None else {("f", ()): ft}
    if total:
        return HTInterpretation.total(universe, Assignment(funcs_t), t_atoms)
    funcs_h = dict(funcs_t) if rng.random() < 0.6 else {}
    return HTInterpretation(
        universe, Assignment(funcs_h), Assignment(funcs_t), h_atoms, t_atoms
    )


def _random_term(rng, universe, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return Val(rng.choice(universe.domain.values))
    if roll < 0.5:
        return EApp("f", ())
    if roll < 0.65:
        left = _random_term(rng, universe, depth - 1)
        right = _random_term(rng, universe, depth - 1)
        return EApp(rng.choice(["+", "-", "*", "/"]), (left, right))
    if roll < 0.8:
        pred = rng.choice(["p", "q"])
        body = PredAtom(pred, (Var("X"),))
        if rng.random() < 0.4:
            body = And(body, PredAtom("!=", (Var("X"), Val(rng.choice(universe.domain.values)))))
        return IntSet(("X",), (Var("X"),), body)
    return EApp(rng.choice(["count", "sum"]), (_random_term(rng, universe, 0 if roll < 0.9 else depth - 1),))


def _random_formula(rng, universe, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        kind = rng.random()
        if kind < 0.5:
            pred = rng.choice(["p", "q"])
            return PredAtom(pred, (_random_term(rng, universe, depth - 1),))
        if kind < 0.75:
            return Eq(_random_term(rng, universe, depth - 1), _random_term(rng, universe, depth - 1))
        rel = rng.choice(["<=", ">=", "<", ">", "!="])
        return PredAtom(rel, (_random_term(rng, universe, depth - 1), _random_term(rng, universe, depth - 1)))
    if roll < 0.45:
        return And(_random_formula(rng, universe, depth - 1), _random_formula(rng, universe, depth - 1))
    if roll < 0.6:
        return Or(_random_formula(rng, universe, depth - 1), _random_formula(rng, universe, depth - 1))
    if roll < 0.75:
        return Implies(_random_formula(rng, universe, depth - 1), _random_formula(rng, universe, depth - 1))
    if roll < 0.85:
        return neg(_random_formula(rng, universe, depth - 1))
    quant = Forall if rng.random() < 0.5 else Exists
    pred = rng.choice(["p", "q"])
    body = PredAtom(pred, (Var("Y"),))
    if rng.random() < 0.5:
        body = Implies(body, _random_formula(rng, universe, depth - 1))
    return quant("Y", body)


def persistence_suite(trials=1000, seed=0):
    """Here-truth carries to there, and negation only looks at there."""
    rng = random.Random(seed)
    universe = _semantics_universe()
    violations = []
    for i in range(trials):
        interp = coherence_closure(_random_interp(rng, universe))
        phi = _random_formula(rng, universe, 3)
        universe.register_intsets(phi)
        if s_satisfies(interp, H, phi) and not s_satisfies(interp, T, phi):
            violations.append(f"persistence failed on {phi!r} (trial {i})")
        n = neg(phi)
        for w in (H, T):
            if s_satisfies(interp, w, n) != (not s_satisfies(interp, T, phi)):
                violations.append(f"negation failed on {phi!r} at {w} (trial {i})")
    return trials, violations


def total_collapse_suite(trials=300, seed=1):
    """On total interpretations both worlds agree on every formula."""
    rng = random.Random(seed)
    universe = _semantics_universe()
    violations = []
    for i in range(trials):
        interp = coherence_closure(_random_interp(rng, universe, total=True))
        phi = _random_formula(rng, universe, 3)
        universe.register_intsets(phi)
        if s_satisfies(interp, H, phi) != s_satisfies(interp, T, phi):
            violations.append(f"total collapse failed on {phi!r} (trial {i})")
    return trials, violations


def closure_suite(trials=300, seed=2):
    """Closure is idempotent and monotone over the here-world ordering."""
    rng = random.Random(seed)
    universe = _semantics_universe()
    violations = []
    for i in range(trials):
        big = _random_interp(rng, universe)
        once = coherence_closure(big)
        twice = coherence_closure(once)
        if not interp_agrees(once, twice):
            violations.append(f"closure not idempotent (trial {i})")
        h_atoms = frozenset(a for a in big.atoms_h if rng.random() < 0.6)
        funcs_h = {
            k: v for k, v in big.sigma_h.funcs.items() if rng.random() < 0.6
        }
        small = HTInterpretation(
            universe, Assignment(funcs_h), big.sigma_t, h_atoms, big.atoms_t
        )
        if not interp_leq(coherence_closure(small), coherence_closure(big)):
            violations.append(f"closure not monotone (trial {i})")
        total = coherence_closure(_random_interp(rng, universe, total=True))
        for iset, value in total.sigma_t.sets.items():
            if total.sigma_h.sets.get(iset, UNDEF) != value:
                violations.append(f"total closure differs between worlds (trial {i})")
    return trials, violations


# ---------------------------------------------------------------------------
# Aggregate definitional consistency


_DEFINING_RULES = """
count({}) := 0.
count(S) := 1 + count(S \\ {Y}) :- Y in S.
sum({}) := 0.
sum(S) := sum(S \\ {Y}) + Y :- Y in S.
max(S) := X :- X in S, not exists Y (Y in S, Y > X).
min(S) := X :- X in S, not exists Y (Y in S, Y < X).
"""


def _int_sets(lo, hi, max_card):
    values = range(lo, hi + 1)
    out = [EMPTY_SET]
    for card in range(1, max_card + 1):
        for combo in itertools.combinations(values, card):
            out.append(finset(combo))
    return out


def definitional_consistency_suite(lo=0, hi=5, max_card=4):
    """Builtin aggregates satisfy their recursive defining equations.

    Checks both the value-level recursions over every integer set in range
    and the defining rules as formulas under a total model, instantiated at
    exactly those sets.
    """
    # keep every reachable sum inside the integer range
    bounds = DomainBounds(int_min=lo, int_max=hi + max_card * hi, max_herbrand_depth=0)
    violations = []
    checked = 0
    sets = _int_sets(lo, hi, max_card)
    for s in sets:
        checked += 1
        count_s = aggregate_eval("count", s, bounds)
        sum_s = aggregate_eval("sum", s, bounds)
        if not s.tuples:
            if count_s != 0:
                violations.append("count({}) != 0")
            if sum_s != 0:
                violations.append("sum({}) != 0")
            if aggregate_eval("max", s, bounds) is not UNDEF:
                violations.append("max({}) is defined")
            if aggregate_eval("min", s, bounds) is not UNDEF:
                violations.append("min({}) is defined")
            continue
        members = [t[0] for t in s.sorted_tuples()]
        if aggregate_eval("max", s, bounds) != max(members):
            violations.append(f"max({format_value(s)}) wrong")
        if aggregate_eval("min", s, bounds) != min(members):
            violations.append(f"min({format_value(s)}) wrong")
        for y in members:
            rest = FinSet(t for t in s.tuples if t != (y,))
            if count_s != 1 + aggregate_eval("count", rest, bounds):
                violations.append(f"count recursion fails at {format_value(s)} / {y}")
            if sum_s != aggregate_eval("sum", rest, bounds) + y:
                violations.append(f"sum recursion fails at {format_value(s)} / {y}")

    # the same rules as formulas, instantiated at each enumerated set
    theory = parse_program(_DEFINING_RULES)
    universe = build_universe(theory, bounds)
    interp = HTInterpretation.total(universe, Assignment(), frozenset())
    ints = range(lo, hi + 1)
    for phi in theory.formulas:
        names, matrix = closure_prefix(phi)
        pools = [sets if name == "S" else list(ints) for name in names]
        for combo in itertools.product(*pools):
            instance = substitute(matrix, {n: Val(v) for n, v in zip(names, combo)})
            universe.register_intsets(instance)
            checked += 1
            if not s_satisfies(interp, H, instance):
                violations.append(f"defining rule instance fails: {instance!r}")
    return checked, violations


# ---------------------------------------------------------------------------
# Conservativity: extensional sets behave like opaque constants


_SET_POOL = ("{}", "{1; 2}", "{a}", "{(a, b)}")


def random_zero_rank_program(rng: random.Random) -> str:
    """Rules over constants, integers and extensional-set literals only."""
    consts = sorted(rng.sample(["a", "b", "c"], rng.randint(1, 2)))
    preds = sorted(rng.sample(["p", "q", "r"], rng.randint(1, 3)))

    def arg():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(consts)
        if roll < 0.7:
            return str(rng.randint(0, 3))
        return rng.choice(_SET_POOL)

    lines = []
    has_function = rng.random() < 0.5
    if has_function:
        values = sorted(set(arg() for _ in range(2)))
        lines.append(f"#function g/0 : {{{'; '.join(values)}}}.")

    def literal():
        roll = rng.random()
        if roll < 0.4:
            return f"{rng.choice(preds)}({arg()})"
        if roll < 0.6:
            return f"not {rng.choice(preds)}({arg()})"
        if roll < 0.8 and has_function:
            return f"g = {arg()}"
        return f"{rng.choice(preds)}({arg()})"

    for _ in range(rng.randint(1, 3)):
        lines.append(f"{rng.choice(preds)}({arg()}).")
    for _ in range(rng.randint(0, 3)):
        body = ", ".join(literal() for _ in range(rng.randint(1, 2)))
        lines.append(f"{rng.choice(preds)}({arg()}) :- {body}.")
    return "\n".join(lines)


def _sets_to_constants(theory: Theory):
    """Rewrite every extensional-set value into a fresh opaque constant."""
    mapping = {}

    def fresh_for(value):
        if value not in mapping:
            mapping[value] = HTerm(f"setc{len(mapping)}")
        return mapping[value]

    def fix(term):
        if isinstance(term, ExtSet):
            value = ground_constructor_value(term)
            if value is None:
                raise SetAspError("non-ground extensional set in a rank-0 theory")
            return Val(fresh_for(value))
        return term

    formulas = [map_terms(phi, fix) for phi in theory.formulas]
    ranges = {
        name: tuple(fresh_for(v) if isinstance(v, FinSet) else v for v in values)
        for name, values in theory.signature.func_ranges.items()
    }
    constructors = dict(theory.signature.constructors)
    for value, const in mapping.items():
        constructors[const.name] = 0
    signature = Signature(constructors, theory.signature.evaluables, theory.signature.predicates, ranges)
    return Theory(signature, tuple(formulas), theory.source), mapping


def conservativity_suite(trials=50, seed=3):
    """Stable models agree with the run where sets are opaque constants."""
    rng = random.Random(seed)
    bounds = DomainBounds(int_min=0, int_max=3, max_herbrand_depth=0)
    violations = []
    for i in range(trials):
        program = random_zero_rank_program(rng)
        theory = parse_program(program)
        direct = find_stable_models(theory, bounds)
        opaque_theory, mapping = _sets_to_constants(theory)
        opaque = find_stable_models(opaque_theory, bounds)
        back = {v: k for k, v in mapping.items()}

        def restore(atom):
            pred, args = atom
            return (pred, tuple(back.get(a, a) for a in args))

        direct_models = {frozenset(m.atoms) for m in direct.models}
        opaque_models = {frozenset(restore(a) for a in m.atoms) for m in opaque.models}
        if direct_models != opaque_models:
            violations.append(f"conservativity fails on:\n{program}")
    return trials, violations


# ---------------------------------------------------------------------------
# Existential introduction


def existential_suite(trials=20, seed=4, programs=None):
    """Rewriting any atom argument through an existential keeps the models."""
    rng = random.Random(seed)
    bounds = GENERATOR_BOUNDS
    fixed = programs or []
    violations = []
    checked = 0
    sources = list(fixed) + [random_gz_program(rng) for _ in range(trials)]
    for program in sources:
        theory = parse_program(program)
        base = {frozenset(m) for m in map(frozenset, find_stable_models(theory, bounds).atom_sets())}
        for selector in eligible_positions(theory):
            checked += 1
            transformed = existential_intro_transform(theory, selector)
            got = {frozenset(m) for m in map(frozenset, find_stable_models(transformed, bounds).atom_sets())}
            if got != base:
                violations.append(f"transform at {selector} changes models of:\n{program}")
    return checked, violations


ALL_SUITES = {
    "semantics": lambda trials, seed: persistence_suite(max(trials, 1), seed),
    "collapse": lambda trials, seed: total_collapse_suite(max(trials // 3, 1), seed + 1),
    "closure": lambda trials, seed: closure_suite(max(trials // 3, 1), seed + 2),
    "aggregates": lambda trials, seed: definitional_consistency_suite(),
    "conservativity": lambda trials, seed: conservativity_suite(max(trials // 20, 1), seed + 3),
    "existential": lambda trials, seed: existential_suite(max(trials // 50, 1), seed + 4),
}


def run_suites(names, trials=1000, seed=0):
    """Run the selected suites; returns ``{name: (checked, violations)}``."""
    out = {}
    for name in names:
        out[name] = ALL_SUITES[name](trials, seed)
    return out
