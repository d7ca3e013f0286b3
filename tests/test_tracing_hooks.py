"""The per-layer hooks of ``perfbench/tracing.py`` still find every entry
point they wrap, so a refactor cannot silently null a benchmark metric."""

from pathlib import Path

from setasp import DomainBounds, gz, interp, parser, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EVEN_CHOICE = "d(1). d(2). a(X) :- d(X), not b(X). b(X) :- d(X), not a(X)."


def test_tracer_hooks_reach_both_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer({"parser": parser, "solver": solver, "gz": gz, "interp": interp})
    tracer.install()
    try:
        bounds = DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0)
        theory = parser.parse_program(EVEN_CHOICE)
        tracer.candidates(solver.find_stable_models(theory, bounds))
        assert len(gz.gz_stable_models(theory, bounds)) == 4
    finally:
        tracer.uninstall()
    totals = tracer.take_pass()
    assert tracer.absent == set()
    # branching tests one there-world per stable model here
    assert totals["solver.there_candidates"] == totals["solver.stable_models"] == 4
    for name in (
        "solver.relevant_atoms",
        "gz.relevant_atoms",
        "solver.there_models",
        "gz.classical_models",
    ):
        assert totals.get(name, 0) > 0, name
