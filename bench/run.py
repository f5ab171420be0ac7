"""End-to-end and per-layer benchmark of tsu11.

    python3 bench/run.py --workload {optimize,sweep-lodi,vacuum-map}
                         [--seed N] [--seconds S] [--trace 0|1] [--profile N]

Runs one workload in this process, on one thread, through the public API
of the tsu11 sources in ``<checkout>/src``, and checks every output
against the closed-form route (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters that import tsu11
  and build the workload's inputs (``setup_probe.py``), run between the
  repetitions;
* ``wall_s``: median wall time of one repetition, repeated for
  ``--seconds`` (at least three repetitions);
* ``peak_rss_mb``: peak resident memory of this process or any child.

``--trace 1`` wraps the public functions of each tsu11 module
(``tracing.py``), runs one traced repetition and then untraced ones, and
reports the per-layer metrics: calls and self times, ``_reorder`` cache
counts, optimizer and sweep counts, the tracing overhead, import and CLI
start-up times.  ``--profile N`` instead prints the cProfile top N by
tottime for one repetition and no result line.

Every repetition starts with an empty ``_reorder`` cache, as each CLI
command starts in a fresh process.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Full
records, and the spans of a traced run, go to ``bench/results/``.  The
exit code is 0 only if every output passed the gate.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

from checkout import ROOT, SRC, MissingSources, use_checkout_sources

RESULTS = Path(__file__).resolve().parent / "results"
SETUP_PROBES = 7
MIN_REPS = 3
SUBPROCESS_TIMEOUT_S = 120

#: per-span self times that are reported as metrics: the spans that every
#: workload in BENCHMARK.json calls, so that none reads zero by construction
SELF_TIME_SPANS = (
    "algebra.mul",
    "algebra.expr_ops",
    "algebra.normal_order",
    "algebra.coherent_expectation",
    "circuits.build_tsu11_J",
    "circuits.build_su11_J",
    "circuits.build_classical_J",
    "metrology.dj_dphi_sq",
    "metrology.report",
)
MODULES = ("algebra", "circuits", "metrology", "optimize")
COUNTERS = (
    "circuits.J_terms",
    "optimize.grid.evals",
    "optimize.nelder_mead.iterations",
    "optimize.nelder_mead.evaluations",
    "optimize.run_sweep.points",
    "optimize.run_sweep.failed",
    "optimize.vacuum_noise_map.points",
)


def summary(values) -> dict:
    """Median, quartiles, extremes and sample count of a timing series."""
    values = sorted(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


# -- environment ---------------------------------------------------------------


def calibrate() -> float:
    """Median time of a fixed pure-mpmath loop that does not use tsu11, to
    show machine drift apart from code changes."""
    from mpmath import mpf, workdps

    times = []
    for _ in range(3):
        t0 = perf_counter()
        with workdps(60):
            x, acc = mpf(1), mpf(0)
            for i in range(5000):
                x = x * mpf("1.0000001") + mpf(i) / 3
                acc += x * x
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import mpmath

    digest = hashlib.sha256()
    for path in sorted((SRC / "tsu11").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_model": _cpu_model(),
        "loadavg": os.getloadavg(),
        "calibration_s": calibrate(),
    }


# -- fresh-process probes ------------------------------------------------------


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _timed_process(argv, env=None):
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return perf_counter() - t0, proc


class SetupProbes:
    """Fresh set-up probes spread evenly over the measuring window, so that
    their median sees the same machine conditions as the repetitions."""

    def __init__(self, workload: str, seed: int, start: float, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                     workload, str(seed)]
        self.due = [start + seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.times: list[float] = []
        self._probe()  # untimed: compiles the bytecode a fresh checkout lacks

    def _probe(self) -> float:
        wall, proc = _timed_process(self.argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return wall

    def poll(self, final: bool = False) -> None:
        """Run the probes that are due; with ``final``, all that are left."""
        while self.due and (final or perf_counter() >= self.due[0]):
            self.due.pop(0)
            self.times.append(self._probe())


def import_times(runs: int = 3) -> dict[str, float]:
    """Median cumulative import time of tsu11 and numpy, from -X importtime."""
    seen: dict[str, list[float]] = {"tsu11": [], "numpy": []}
    for _ in range(runs):
        _, proc = _timed_process([sys.executable, "-X", "importtime", "-c", "import tsu11"],
                                 _child_env())
        if proc.returncode != 0:
            raise RuntimeError(f"import tsu11 failed:\n{proc.stderr}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in seen.items()}


def cli_lod_times(runs: int = 3) -> tuple[list[float], int]:
    """Wall times of ``tsu11 lod --preset paper-start`` and how many exited
    nonzero."""
    argv = [sys.executable, "-m", "tsu11.cli", "lod", "--preset", "paper-start"]
    times, bad = [], 0
    for _ in range(runs):
        wall, proc = _timed_process(argv, _child_env())
        times.append(wall)
        bad += proc.returncode != 0
    return times, bad


# -- repetitions ---------------------------------------------------------------


class Gate:
    """Accumulates the verdicts of all repetitions of one run."""

    def __init__(self, wl, built):
        self.wl, self.built = wl, built
        self.attempted = self.failed = 0
        self.min_agree_digits = float("inf")
        self.check_s: list[float] = []
        self.problems: list[str] = []
        self.known_defects: list[str] = []

    def check(self, output) -> None:
        t0 = perf_counter()
        verdict = self.wl.check(self.built, output)
        self.check_s.append(perf_counter() - t0)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.min_agree_digits = min(self.min_agree_digits, verdict.min_agree_digits)
        self.problems.extend(verdict.problems[: max(0, 20 - len(self.problems))])
        self.known_defects.extend(verdict.known_defects)


def _clear_reorder_cache():
    from tsu11.algebra import _reorder

    _reorder.cache_clear()


def repetitions(wl, built, gate: Gate, probes: SetupProbes, deadline: float, min_reps: int):
    """Untraced repetitions until ``deadline`` (perf_counter), at least
    ``min_reps``, with the set-up probes in between; returns (wall times,
    cpu times)."""
    walls, cpus = [], []
    while True:
        _clear_reorder_cache()
        w0, c0 = perf_counter(), process_time()
        output = wl.run(built)
        walls.append(perf_counter() - w0)
        cpus.append(process_time() - c0)
        gate.check(output)
        probes.poll()
        if len(walls) >= min_reps and perf_counter() + statistics.median(walls) > deadline:
            probes.poll(final=True)
            return walls, cpus


def traced_repetition(wl, built, gate: Gate):
    """One repetition under the tracer; returns (tracer, reorder cache info)."""
    from tsu11.algebra import _reorder
    from tracing import Tracer

    tracer = Tracer()
    _clear_reorder_cache()
    tracer.install()
    try:
        with tracer.root():
            output = wl.run(built)
    finally:
        tracer.uninstall()
    Tracer.assert_removed()
    info = _reorder.cache_info()
    gate.check(output)
    return tracer, info


def peak_rss_mb() -> float:
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer, reorder_info) -> tuple[dict, dict]:
    """(metrics, breakdown) from one traced repetition.  The breakdown
    lists every span name, including those a workload never calls."""
    from tracing import ROOT_SPAN, SPAN_NAMES, inclusive_time, self_times

    spans = tracer.spans
    st = self_times(spans)
    calls = {name: st.get(name, (0, 0.0))[0] for name in SPAN_NAMES}
    selfs = {name: st.get(name, (0, 0.0))[1] for name in SPAN_NAMES}
    m = {f"{name}.calls": (calls[name], "count") for name in SPAN_NAMES if name != ROOT_SPAN}
    m.update({f"{name}.self_s": (selfs[name], "s") for name in SELF_TIME_SPANS})
    for module in MODULES:
        m[f"{module}.self_s"] = (sum(v for k, v in selfs.items()
                                     if k.startswith(module + ".")), "s")
    m["algebra.reorder.hits"] = (reorder_info.hits, "count")
    m["algebra.reorder.misses"] = (reorder_info.misses, "count")
    m["algebra.reorder.entries"] = (reorder_info.currsize, "count")
    m.update({name: (tracer.counts[name], "count") for name in COUNTERS})
    wall = inclusive_time(spans, ROOT_SPAN)
    m["trace.wall_s"] = (wall, "s")
    m["trace.remainder_s"] = (selfs[ROOT_SPAN], "s")

    # optimize_phases time outside its Nelder-Mead and classical reference
    # children is the coarse grid
    grid_s = 0.0
    for idx, (name, start, end, _) in enumerate(spans):
        if name == "optimize.optimize_phases":
            grid_s += (end - start) - sum(
                e - s for n, s, e, parent in spans
                if parent == idx and n in ("optimize.nelder_mead",
                                           "metrology.classical_reference"))
    breakdown = {
        "spans": {name: {"calls": calls[name], "self_s": selfs[name],
                         "inclusive_s": inclusive_time(spans, name)} for name in SPAN_NAMES},
        "optimize.grid_s": grid_s,
        "optimize.nelder_mead.s": inclusive_time(spans, "optimize.nelder_mead"),
        "self_sum_minus_wall_s": sum(selfs.values()) - wall,
    }
    return m, breakdown


def per_layer_names() -> list[str]:
    """Names of every per-layer metric, in output order."""
    from tracing import ROOT_SPAN, SPAN_NAMES

    names = [f"{n}.calls" for n in SPAN_NAMES if n != ROOT_SPAN]
    names += [f"{n}.self_s" for n in SELF_TIME_SPANS]
    names += [f"{m}.self_s" for m in MODULES]
    names += ["algebra.reorder.hits", "algebra.reorder.misses", "algebra.reorder.entries"]
    names += list(COUNTERS)
    names += ["trace.wall_s", "trace.remainder_s", "trace_overhead_frac", "failed_frac",
              "gate.known_defects", "closed_form.check_s", "closed_form.min_agree_digits",
              "import.tsu11_s",
              "import.numpy_s", "cli.lod.wall_s", "process.wall_s", "process.cpu_s",
              "env.calibration_s"]
    return names


def traced_run(wl, built, gate: Gate, probes: SetupProbes, deadline: float, seed: int,
               record: dict):
    """One traced repetition, then untraced ones until ``deadline``, then
    the start-up probes.  Returns (per-layer metrics, and the wall and cpu
    times of the untraced repetitions); prints the per-span breakdown and writes the
    spans to ``bench/results``."""
    tracer, reorder_info = traced_repetition(wl, built, gate)
    walls, cpus = repetitions(wl, built, gate, probes, deadline, min_reps=1)
    metrics, breakdown = layer_metrics(tracer, reorder_info)
    imports = import_times()
    cli_walls, cli_bad = cli_lod_times()
    gate.attempted += len(cli_walls)
    gate.failed += cli_bad
    if cli_bad:
        gate.problems.append(f"tsu11 lod exited nonzero in {cli_bad} of {len(cli_walls)} runs")
    metrics.update({
        "trace_overhead_frac": (metrics["trace.wall_s"][0] / statistics.median(walls) - 1,
                                "ratio"),
        "failed_frac": (gate.failed / gate.attempted, "ratio"),
        "gate.known_defects": (len(gate.known_defects), "count"),
        "closed_form.check_s": (statistics.median(gate.check_s), "s"),
        # no comparison made: no digits agree
        "closed_form.min_agree_digits": (
            gate.min_agree_digits if gate.min_agree_digits != float("inf") else 0.0, "digits"),
        "import.tsu11_s": (imports["tsu11"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
        "cli.lod.wall_s": (statistics.median(cli_walls), "s"),
        "process.wall_s": (statistics.median(walls), "s"),
        "process.cpu_s": (statistics.median(cpus), "s"),
        "env.calibration_s": (record["env"]["calibration_s"], "s"),
    })

    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{wl.name}-seed{seed}-spans.jsonl", "w") as f:
        for name, start, end, parent in tracer.spans:
            f.write(json.dumps({"name": name, "start": start, "end": end,
                                "parent": parent}) + "\n")
    record["breakdown"] = breakdown
    print("per-span calls, self and inclusive time of the traced repetition:")
    for name, row in breakdown["spans"].items():
        print(f"  {name:34s} {row['calls']:>8d} {row['self_s']:>10.4f} s"
              f" {row['inclusive_s']:>10.4f} s")
    print(f"  optimize.grid_s {breakdown['optimize.grid_s']:.4f} s,"
          f" optimize.nelder_mead.s {breakdown['optimize.nelder_mead.s']:.4f} s,"
          f" self times minus traced wall {breakdown['self_sum_minus_wall_s']:.3g} s")
    return {name: metrics[name] for name in per_layer_names()}, walls, cpus


# -- command line --------------------------------------------------------------


def _print_metric(name, value, unit, note=""):
    print(f"{name:34s} {value:>14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="N", default=0,
                        help="print the cProfile top N of one repetition instead")
    args = parser.parse_args(argv)

    try:
        use_checkout_sources()
    except MissingSources as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    env = environment()
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    print("inputs " + json.dumps(inputs))
    print("env " + json.dumps(env))

    if args.profile:
        built = wl.build(inputs)
        gate = Gate(wl, built)
        _clear_reorder_cache()
        prof = cProfile.Profile()
        prof.enable()
        output = wl.run(built)
        prof.disable()
        gate.check(output)
        pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(args.profile)
        print(f"gate: {gate.failed} of {gate.attempted} failed")
        return 0 if gate.failed == 0 else 1

    built = wl.build(inputs)
    gate = Gate(wl, built)
    start = perf_counter()
    probes = SetupProbes(wl.name, args.seed, start, args.seconds)
    deadline = start + args.seconds
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "inputs": inputs, "env": env}

    if args.trace:
        metrics, walls, cpus = traced_run(wl, built, gate, probes, deadline, args.seed, record)
        setups = probes.times
        e2e = {"setup_s": (statistics.median(setups), "s"),
               "wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB"),
               "failed_frac": metrics["failed_frac"],
               "trace_overhead_frac": metrics["trace_overhead_frac"]}
        print("end to end (peak_rss_mb includes the spans held in memory):")
        for name, (value, unit) in e2e.items():
            _print_metric(name, value, unit)
    else:
        walls, cpus = repetitions(wl, built, gate, probes, deadline, min_reps=MIN_REPS)
        setups = probes.times
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "wall_s": (statistics.median(walls), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}

    record.update(setup_s=summary(setups), wall_s=summary(walls), cpu_s=summary(cpus),
                  check_s=summary(gate.check_s),
                  attempted=gate.attempted, failed=gate.failed, problems=gate.problems,
                  known_defects=sorted(set(gate.known_defects)),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"setup_s over {len(setups)} probes, wall_s over {len(walls)} repetitions:"
          f" {json.dumps(record['wall_s'])}")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    print(f"{gate.failed} of {gate.attempted} operations failed")
    for problem in gate.problems:
        print(f"FAILED {problem}")
    for defect in sorted(set(gate.known_defects)):
        print(f"KNOWN DEFECT, not counted as failed: {defect}", file=sys.stderr)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
