"""Solve benchmark for setasp: seeded workloads, oracle-checked answers.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process runs one workload: it builds
the workload's programs from ``--seed`` (see ``perfbench/workloads.py``),
then solves them pass after pass for ``--seconds`` seconds, checking every
answer.  A pass solves every program of the workload once: one program
(choice, chain), one p1 variant with its twins (sets) or 1000 programs
(differential).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the per-layer wrappers of
``perfbench/tracing.py`` installed, and reports the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The host's speed drifts by up to 1.8x, between runs and within one, so
the reported times are in units of a fixed pure-Python calibration kernel
(``*_norm``, unit ``kernels``).  A timer signal runs the kernel every
50 ms during a pass, inside long engine calls too.  Each engine call's
time, less those samples, is divided by the mean kernel time within 0.1 s
of the call; parsing and checking by the samples around the program.  The
raw seconds go on the summary line above the JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HASH_SEED = "0"
SETUP_REPEATS = 10
# The calibration kernel runs from a timer signal every SAMPLE_PERIOD
# seconds during a pass, so long engine calls get samples from their own
# span; a program's times are scaled by the samples within SCALE_WINDOW.
SAMPLE_PERIOD = 0.05
SCALE_WINDOW = 0.1

END_TO_END = {
    "setup_s": "s",
    "wall_norm": "kernels",
    "eq_norm": "kernels",
    "gz_norm": "kernels",
    "latency_norm_p50": "kernels",
    "latency_norm_p99": "kernels",
    "peak_rss_mb": "MB",
}


def calibration_kernel():
    """Fixed interpreter-bound work shaped like the solver's inner loops:
    frozenset building, tuple-keyed dict caches and type dispatch."""
    acc = 0
    for mask in range(256):
        atoms = frozenset(i for i in range(8) if mask >> i & 1)
        cache = {}
        for i in range(16):
            key = ("p", (i % 8,), mask & 3)
            hit = cache.get(key)
            if hit is None:
                hit = (i % 8) in atoms or isinstance(key[1], list)
                cache[key] = hit
            acc += hit
    return acc


# ---------------------------------------------------------------------------


class Runner:
    """Solves jobs, checks their answers and times them, sampling the
    calibration kernel meanwhile."""

    def __init__(self, modules):
        self.m = modules
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.sample_times = []  # midpoints of the kernel samples, in order
        self.sample_kernels = []  # their durations
        self.kernel_time = 0.0
        self.calls = []  # engine calls of the current item
        self._sampling = False

    # -- one job

    def run_job(self, job):
        """Solve one job and check its answer; a failure is counted."""
        m = self.m
        self.attempted += 1
        answers = []
        try:
            theory = m["parser"].parse_program(job.text)
            bounds = m["domain"].DomainBounds(**job.bounds)
            if job.eq:
                report = self.timed("eq", m["solver"].find_stable_models, theory, bounds)
                answers.append(workloads.canonical_models(model.atoms for model in report.models))
                if self.tracer:
                    self.tracer.candidates(report)
            if job.gz:
                models = self.timed("gz", m["gz"].gz_stable_models, theory, bounds)
                answers.append(workloads.canonical_models(models))
        except m["errors"].SetAspError as exc:
            self.fail(job, f"{type(exc).__name__}: {exc}")
            return
        except Exception:  # a traceback is a failed program, not a dead run
            self.fail(job, traceback.format_exc())
            return
        if job.expected is not None:
            ok = all(a == job.expected for a in answers)
        else:
            ok = len(answers) == 2 and answers[0] == answers[1]
        if not ok:
            self.fail(job, "wrong answer or engines disagree")

    def work_clock(self):
        """``perf_counter`` less the kernel samples taken so far."""
        return time.perf_counter() - self.kernel_time

    def timed(self, engine, call, *args):
        """``call(*args)``, noting its span and seconds for scaling."""
        start, work_start = time.perf_counter(), self.work_clock()
        result = call(*args)
        self.calls.append((engine, start, time.perf_counter(), self.work_clock() - work_start))
        return result

    def fail(self, job, why):
        self.failed += 1
        if len(self.wrong) < 3:
            self.wrong.append(f"{why}\n--- program:\n{job.text}")

    def _sample(self, signum, frame):
        if self._sampling:
            return  # a tick that lands inside the kernel itself
        self._sampling = True
        start = time.perf_counter()
        calibration_kernel()
        end = time.perf_counter()
        self._sampling = False
        self.sample_times.append((start + end) / 2)
        self.sample_kernels.append(end - start)
        self.kernel_time += end - start

    def scale(self, start, end):
        """Mean kernel time within ``SCALE_WINDOW`` of a span.  The mean,
        not the median, because a slowdown stretches work in proportion to
        its share of the span."""
        lo = bisect.bisect_left(self.sample_times, start - SCALE_WINDOW)
        hi = bisect.bisect_right(self.sample_times, end + SCALE_WINDOW)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.fmean(self.sample_kernels[lo:hi])

    # -- one pass

    def run_pass(self, items):
        """Solve every item once; returns the pass's figures."""
        gc.collect()  # each pass starts from the same heap state
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            self._sample(None, None)
            records = []
            for item in items:
                self.calls = []
                start, work_start = time.perf_counter(), self.work_clock()
                for job in item:
                    self.run_job(job)
                latency = self.work_clock() - work_start
                records.append((start, time.perf_counter(), latency, self.calls))
            self._sample(None, None)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        figures = self.figures(records)
        if self.tracer:
            figures["layers"] = self.tracer.take_pass()
        return figures

    def figures(self, records):
        """Raw and kernel-scaled sums and latency percentiles of a pass.

        ``records`` holds per item ``(start, end, seconds, calls)``, each
        call ``(engine, start, end, seconds)``, seconds without kernel
        samples.  Each engine call is scaled by the samples around it, the
        rest of an item (parsing, checking) by those around the item.
        """
        fig = dict.fromkeys(("wall", "eq", "gz", "wall_norm", "eq_norm", "gz_norm"), 0.0)
        latencies, latencies_norm = [], []
        for start, end, latency, calls in records:
            rest, latency_norm = latency, 0.0
            for engine, call_start, call_end, seconds in calls:
                norm = seconds / self.scale(call_start, call_end)
                fig[engine] += seconds
                fig[engine + "_norm"] += norm
                rest -= seconds
                latency_norm += norm
            latency_norm += rest / self.scale(start, end)
            fig["wall"] += latency
            fig["wall_norm"] += latency_norm
            latencies.append(latency * 1000)
            latencies_norm.append(latency_norm)
        for name, values in (("latency_ms", latencies), ("latency_norm", latencies_norm)):
            fig[name + "_p50"] = statistics.median(values)
            fig[name + "_p99"] = quantile(values, 99)
        return fig


def run_passes(runner, items, seconds, between=None):
    """Passes until ``seconds`` have gone by; at least one.  ``between``
    runs after each pass, outside the timed passes."""
    figures = []
    deadline = time.perf_counter() + seconds
    while not figures or time.perf_counter() < deadline:
        figures.append(runner.run_pass(items))
        if between:
            between()
    return figures


# ---------------------------------------------------------------------------
# Reporting


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(figures, setup_s):
    """Medians over passes, and the process's peak memory."""
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name in END_TO_END.keys() - values.keys():
        values[name] = statistics.median(f[name] for f in figures)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def raw_summary(figures):
    """Seconds as measured, medians over passes.  They follow the host's
    speed, so they are printed for reading, not reported as metrics."""
    return " ".join(
        f"{name}={statistics.median(f[key] for f in figures):.4f}"
        for name, key in (
            ("wall_s", "wall"), ("eq_s", "eq"), ("gz_s", "gz"),
            ("latency_ms_p50", "latency_ms_p50"), ("latency_ms_p99", "latency_ms_p99"),
        )
    )


def per_layer(plain, traced, tracer):
    """Medians over the traced passes; the overhead compares kernel-scaled
    wall times of the traced and the untraced passes."""
    out = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if name == "trace.overhead_frac":
            value = statistics.median(f["wall_norm"] for f in traced) / statistics.median(
                f["wall_norm"] for f in plain
            ) - 1
        elif name in tracer.absent:
            value = None
        else:
            value = statistics.median(f["layers"].get(name, 0) for f in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def self_test(modules):
    """Show that the oracles catch wrong answers; returns problems found.

    The sets oracle must reproduce p1's golden answer, and a right and a
    deliberately wrong expected answer must pass and fail on small
    instances of the other generators.
    """
    problems = []
    golden = SRC.parent / "programs" / "expected" / "p1.solve.txt"
    line = next(x for x in golden.read_text().splitlines() if x.startswith("model 1: "))
    (p1_model,) = workloads.sets_pair(*workloads.P1_CONSTANTS)[0].expected
    if workloads.format_model(p1_model) != set(_split_atoms(line[len("model 1: {"):-1])):
        problems.append(f"sets oracle for p1 differs from {golden.name}: {line}")
    rng = random.Random(0)
    for job in (workloads.chain_job(rng, 3), workloads.choice_job(rng, 2)):
        model = min(job.expected, key=sorted)
        wrong = (job.expected - {model}) | {model - {min(model)}}
        for expected, should_fail in ((job.expected, False), (wrong, True)):
            runner = Runner(modules)
            runner.run_pass([[replace(job, expected=expected)]])
            if bool(runner.failed) != should_fail:
                verdict = "missed" if should_fail else "rejected"
                problems.append(f"oracle {verdict} an answer for:\n{job.text}")
    return problems


def _split_atoms(text):
    """Split ``a, p({1; 2}), q(1)`` at the commas outside brackets."""
    atoms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch in "({"
        depth -= ch in ")}"
        if ch == "," and depth == 0:
            atoms.append(text[start:i].strip())
            start = i + 1
    atoms.append(text[start:].strip())
    return atoms


def load_setasp():
    """The package's modules, imported from ``src`` of this checkout."""
    import importlib

    sys.path.insert(0, str(SRC))
    names = ("parser", "domain", "solver", "gz", "interp", "errors")
    return {n: importlib.import_module(f"setasp.{n}") for n in names}


class SetupTimer:
    """Times fresh processes that start Python, import the package and
    generate the workload's inputs, the work before the first solve.

    One sample is taken after each pass, so the samples spread over the
    run's changing host speed; the fastest one is reported.
    """

    def __init__(self, args):
        self.command = [
            sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only",
        ]
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        self.times = []

    def sample(self):
        if len(self.times) >= SETUP_REPEATS:
            return
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(self.command, env=self.env, check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - start)

    def best(self):
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return min(self.times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "setasp" / "__init__.py").is_file():
        print(f"run.py: no setasp package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing, and with it set order, must not differ between runs
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    modules = load_setasp()
    items = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    problems = self_test(modules)
    if problems:
        print("oracle self-test failed:\n" + "\n".join(problems), file=sys.stderr)
        return 1

    runner = Runner(modules)
    if args.trace:
        plain = run_passes(runner, items, args.seconds / 2)
        tracer = tracing.Tracer(modules, runner.work_clock)
        tracer.install()
        runner.tracer = tracer
        try:
            traced = run_passes(runner, items, args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics = per_layer(plain, traced, tracer)
        figures = plain + traced
    else:
        setup = SetupTimer(args)
        figures = run_passes(runner, items, args.seconds, between=setup.sample)
        metrics = end_to_end(figures, setup.best())

    for text in runner.wrong:
        print(text, file=sys.stderr)
    kernel_ms = statistics.median(runner.sample_kernels) * 1000
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(figures)} "
        f"attempted={runner.attempted} failed={runner.failed} "
        f"error_rate={runner.failed / runner.attempted:.4f} kernel_ms={kernel_ms:.3f} "
        + raw_summary(figures)
    )
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
