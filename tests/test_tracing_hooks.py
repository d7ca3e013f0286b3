"""The per-layer hooks of ``perfbench/tracing.py`` still find every entry
point they wrap, and the calls they count still go through it, so a
refactor can neither null a benchmark metric nor zero it."""

from pathlib import Path

from setasp import DomainBounds, gz, interp, parser, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EVEN_CHOICE = "d(1). d(2). a(X) :- d(X), not b(X). b(X) :- d(X), not a(X)."
# a count in a body keeps the search from being exact, so its leaves take
# the engines' checks, which the leaf-check metrics count; the even choice
# alone closes every leaf and takes none
COUNTED_CHOICE = EVEN_CHOICE + " c :- count{X : a(X)} >= 1."
# neither choice has a set layer, the even choice has no set term, and
# the benchmark itself computes the tracing overhead
UNFED = {"domain.set_layer_programs", "solver.intsets", "trace.overhead_frac"}


def _traced_pass(text):
    """The tracer's totals and absent metrics for one pass over ``text``
    in both engines."""
    from tracing import Tracer

    tracer = Tracer({"parser": parser, "solver": solver, "gz": gz, "interp": interp})
    tracer.install()
    try:
        bounds = DomainBounds(int_min=1, int_max=2, max_herbrand_depth=0)
        theory = parser.parse_program(text)
        tracer.candidates(solver.find_stable_models(theory, bounds))
        assert len(gz.gz_stable_models(theory, bounds)) == 4
    finally:
        tracer.uninstall()
    return tracer.take_pass(), tracer.absent


def test_tracer_hooks_reach_both_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import LAYER_METRICS

    for text in (EVEN_CHOICE, COUNTED_CHOICE):
        totals, absent = _traced_pass(text)
        assert absent == set()
        # branching takes one there-world per stable model here
        assert totals["solver.there_candidates"] == 4
    assert totals["solver.there_candidates"] == totals["solver.stable_models"] == 4
    assert [name for name in LAYER_METRICS if name not in UNFED and not totals.get(name)] == []
