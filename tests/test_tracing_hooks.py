"""The per-layer hooks of ``perfbench/tracing.py`` still find every entry
point they wrap, and the calls they count still go through it, so a
refactor can neither null a benchmark metric nor zero it."""

from pathlib import Path

from setasp import DomainBounds, gz, interp, parser, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EVEN_CHOICE = "d(1). d(2). a(X) :- d(X), not b(X). b(X) :- d(X), not a(X)."
# the even choice has no set term and no set layer, and the benchmark
# itself computes the tracing overhead
UNFED = {"domain.set_layer_programs", "solver.intsets", "trace.overhead_frac"}


def test_tracer_hooks_reach_both_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import LAYER_METRICS, Tracer

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
    assert [name for name in LAYER_METRICS if name not in UNFED and not totals.get(name)] == []
