"""Command-line entry point.

Subcommands: ``solve`` (stable models under either or both semantics),
``ground`` (print the instantiated theory), ``cross-check`` (differential
comparison of the two engines, on a file or on generated programs),
``transform`` (existential variable introduction) and ``check-props``
(invariant suites).  Exit status: 0 on success, 1 when a differential
check disagrees or a property suite reports violations, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks
from .domain import DomainBounds
from .errors import SetAspError
from .ground import ground_theory
from .gz import (
    GENERATOR_BOUNDS,
    cross_check,
    differential_trials,
    eligible_positions,
    existential_intro_transform,
    gz_stable_models,
)
from .parser import parse_program, theory_text
from .solver import atom_key, build_universe, find_stable_models, format_atom
from .syntax import formula_statement, pretty
from .values import format_value, value_to_json


def _add_bounds_flags(cmd):
    cmd.add_argument("--min-int", type=int, default=None, help="smallest integer value")
    cmd.add_argument("--max-int", type=int, default=None, help="largest integer value")
    cmd.add_argument("--max-depth", type=int, default=None, help="Herbrand term depth bound")
    cmd.add_argument("--max-set-rank", type=int, default=None, help="levels of sets over the base")
    cmd.add_argument("--max-set-card", type=int, default=None, help="largest enumerated set")
    cmd.add_argument("--max-arity", type=int, default=None, help="largest enumerated tuple")
    cmd.add_argument(
        "--full-domain",
        action="store_true",
        help="quantify over the whole bounded universe, not just the active domain",
    )


# flag destination -> DomainBounds field
_BOUND_FLAGS = {
    "max_depth": "max_herbrand_depth",
    "min_int": "int_min",
    "max_int": "int_max",
    "max_set_rank": "max_set_rank",
    "max_set_card": "max_set_card",
    "max_arity": "max_tuple_arity",
}


def _bounds_from(args, base: DomainBounds = DomainBounds()) -> DomainBounds:
    """``base`` with every bound flag the user gave laid over it."""
    given = {
        field: getattr(args, flag)
        for flag, field in _BOUND_FLAGS.items()
        if getattr(args, flag) is not None
    }
    if args.full_domain:
        given["full_domain"] = True
    return base.with_(**given)


def _read_theory(path):
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SetAspError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_program(text)


def _count(text):
    """A non-negative integer flag value."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _atom_json(atom):
    pred, args = atom
    return {"pred": pred, "args": [value_to_json(a) for a in args]}


def _model_lines(atoms):
    return "{" + ", ".join(format_atom(a) for a in sorted(atoms, key=atom_key)) + "}"


def _sigma_lines(sigma):
    lines = []
    for iset in sorted(sigma.sets, key=lambda s: pretty(s)):
        lines.append(f"  sigma({pretty(iset)}) = {format_value(sigma.sets[iset])}")
    for (name, fargs) in sorted(sigma.funcs, key=atom_key):
        call = name if not fargs else f"{name}({', '.join(format_value(v) for v in fargs)})"
        lines.append(f"  sigma({call}) = {format_value(sigma.funcs[(name, fargs)])}")
    return lines


def _sigma_json(sigma):
    return {
        "sets": [
            {"term": pretty(iset), "value": value_to_json(value)}
            for iset, value in sorted(sigma.sets.items(), key=lambda kv: pretty(kv[0]))
        ],
        "funcs": [
            {
                "function": name,
                "args": [value_to_json(v) for v in fargs],
                "value": value_to_json(value),
            }
            for (name, fargs), value in sorted(sigma.funcs.items(), key=lambda kv: atom_key(kv[0]))
        ],
    }


def _cmd_solve(args):
    if args.show_sigma and args.mode == "gz":
        raise SetAspError("--show-sigma prints witnesses, which --mode gz has none of")
    theory = _read_theory(args.input)
    bounds = _bounds_from(args)
    results = {}
    # comparing the engines needs each one's own checks at every leaf
    both = args.mode == "both"
    if args.mode in ("equilibrium", "both"):
        report = find_stable_models(theory, bounds, full_checks=both)
        results["equilibrium"] = report
    if args.mode in ("gz", "both"):
        results["gz"] = gz_stable_models(theory, bounds, full_checks=both)

    if args.json:
        payload = {"command": "solve", "mode": args.mode}
        if "equilibrium" in results:
            report = results["equilibrium"]
            payload["equilibrium"] = {
                "models": [
                    {
                        "atoms": [_atom_json(a) for a in m.sorted_atoms()],
                        **({"sigma": _sigma_json(m.sigma)} if args.show_sigma else {}),
                    }
                    for m in report.models
                ],
                "candidates": report.stats.candidates,
            }
        if "gz" in results:
            payload["gz"] = {
                "models": [
                    {"atoms": [_atom_json(a) for a in sorted(m, key=atom_key)]}
                    for m in results["gz"]
                ]
            }
        if args.mode == "both":
            payload["agree"] = _models_agree(results)
        print(json.dumps(payload, sort_keys=True))
    else:
        if "equilibrium" in results:
            report = results["equilibrium"]
            print(f"equilibrium stable models: {len(report.models)}")
            for i, model in enumerate(report.models, start=1):
                print(f"model {i}: {_model_lines(model.atoms)}")
                if args.show_sigma:
                    for line in _sigma_lines(model.sigma):
                        print(line)
        if "gz" in results:
            models = results["gz"]
            print(f"gz stable models: {len(models)}")
            for i, model in enumerate(models, start=1):
                print(f"model {i}: {_model_lines(model)}")
        if args.mode == "both":
            print("AGREE" if _models_agree(results) else "DISAGREE")
    if args.mode == "both" and not _models_agree(results):
        return 1
    return 0


def _models_agree(results):
    eq = {frozenset(m.atoms) for m in results["equilibrium"].models}
    gz = {frozenset(m) for m in results["gz"]}
    return eq == gz


def _cmd_ground(args):
    theory = _read_theory(args.input)
    bounds = _bounds_from(args)
    ground = ground_theory(theory, build_universe(theory, bounds))
    lines = [formula_statement(phi) for phi in ground.formulas]
    if args.json:
        print(json.dumps({"command": "ground", "formulas": lines}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_cross_check(args):
    if args.input is not None:
        if args.trials is not None or args.seed is not None:
            raise SetAspError("--trials and --seed generate programs; give them without FILE")
        theory = _read_theory(args.input)
        result = cross_check(theory, _bounds_from(args))
        if args.json:
            print(json.dumps({"command": "cross-check", **result.to_json()}, sort_keys=True))
        else:
            print(f"gz models: {[_model_lines(m) for m in result.gz_models]}")
            print(f"equilibrium models: {[_model_lines(m) for m in result.eq_models]}")
            print("AGREE" if result.agree else "DISAGREE")
        return 0 if result.agree else 1
    trials, seed = 100 if args.trials is None else args.trials, args.seed or 0
    report = differential_trials(trials, seed, _bounds_from(args, GENERATOR_BOUNDS))
    if args.json:
        print(json.dumps({"command": "cross-check", **report}, sort_keys=True))
    else:
        print(
            f"trials: {report['trials']}, agreements: {report['agreements']}, "
            f"disagreements: {len(report['disagreements'])}"
        )
        for entry in report["disagreements"]:
            print("DISAGREE on:")
            print(entry["program"])
    return 0 if not report["disagreements"] else 1


def _cmd_transform(args):
    theory = _read_theory(args.input)
    positions = eligible_positions(theory)
    if not positions:
        print("% no eligible atom positions", file=sys.stderr)
        return 2
    if args.position >= len(positions):
        print(
            f"position {args.position} out of range (have {len(positions)})",
            file=sys.stderr,
        )
        return 2
    transformed = existential_intro_transform(theory, positions[args.position])
    print(theory_text(transformed))
    return 0


def _cmd_check_props(args):
    if args.suite == "aggregates" and (args.trials is not None or args.seed is not None):
        raise SetAspError("--trials and --seed do not apply to --suite aggregates")
    if args.trials == 0:
        raise SetAspError("--trials must be at least 1: every suite runs one trial or more")
    names = list(checks.ALL_SUITES) if args.suite == "all" else [args.suite]
    trials, seed = 1000 if args.trials is None else args.trials, args.seed or 0
    outcome = checks.run_suites(names, trials=trials, seed=seed)
    failed = False
    payload = {}
    for name, (checked, violations) in outcome.items():
        payload[name] = {"checked": checked, "violations": violations}
        if violations:
            failed = True
    if args.json:
        print(json.dumps({"command": "check-props", "suites": payload}, sort_keys=True))
    else:
        for name, (checked, violations) in outcome.items():
            status = "PASS" if not violations else "FAIL"
            print(f"{name}: checked={checked} violations={len(violations)} {status}")
            for v in violations[:10]:
                print(f"  {v}")
    return 1 if failed else 0


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="setasp",
        description="Answer set solving with evaluable functions and set terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute stable models")
    solve.add_argument("input", help="program file")
    solve.add_argument("--mode", choices=("equilibrium", "gz", "both"), default="equilibrium")
    solve.add_argument("--show-sigma", action="store_true", help="print witness assignments")
    solve.add_argument("--json", action="store_true")
    _add_bounds_flags(solve)
    solve.set_defaults(run=_cmd_solve)

    ground = sub.add_parser("ground", help="print the instantiated theory")
    ground.add_argument("input", help="program file")
    ground.add_argument("--json", action="store_true")
    _add_bounds_flags(ground)
    ground.set_defaults(run=_cmd_ground)

    cc = sub.add_parser("cross-check", help="compare the two semantics")
    cc.add_argument("input", nargs="?", default=None, help="program file (omit to generate)")
    cc.add_argument("--trials", type=_count, help="number of generated programs (default 100)")
    cc.add_argument("--seed", type=int, help="generator seed (default 0)")
    cc.add_argument("--json", action="store_true")
    _add_bounds_flags(cc)
    cc.set_defaults(run=_cmd_cross_check)

    tr = sub.add_parser("transform", help="existential variable introduction")
    tr.add_argument("input", help="program file")
    tr.add_argument("--position", type=_count, default=0, help="eligible atom position to rewrite")
    tr.set_defaults(run=_cmd_transform)

    props = sub.add_parser("check-props", help="run invariant suites")
    props.add_argument(
        "--suite",
        choices=["all"] + sorted(checks.ALL_SUITES),
        default="all",
    )
    props.add_argument("--trials", type=_count, metavar="N", help="at least 1 (default 1000): "
                       "semantics runs N trials, collapse and closure N // 3, conservativity "
                       "N // 20 and existential N // 50, each at least 1")
    props.add_argument("--seed", type=int, help="generator seed (default 0)")
    props.add_argument("--json", action="store_true")
    props.set_defaults(run=_cmd_check_props)
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (SetAspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
