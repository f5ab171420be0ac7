"""Span tracing of tsu11 from outside the package.

``Tracer.install`` replaces every binding of each wrapped function with a
recording wrapper: the defining module, every tsu11 module that imported
the name (``from .algebra import mul``), the ``tsu11`` package namespace
and the values of ``CIRCUITS``.  A span is (name, start, end, parent);
spans stay in memory until the run ends.  ``uninstall`` restores the
original objects and ``assert_removed`` proves that no wrapper is left,
so untraced repetitions run the unmodified program.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "bench.workload"


def _count_j_terms(counts, result):
    counts["circuits.J_terms"] += len(result[0])


def _count_nelder_mead(counts, result):
    counts["optimize.nelder_mead.iterations"] += result[2]
    counts["optimize.nelder_mead.evaluations"] += result[3]


def _count_sweep(counts, rows):
    counts["optimize.run_sweep.points"] += len(rows)
    counts["optimize.run_sweep.failed"] += sum(row["value"] is None for row in rows)


def _count_map(counts, result):
    counts["optimize.vacuum_noise_map.points"] += len(result[0])


#: (module, attribute, span name, hook on the result).  build_su11_J and
#: build_classical_J are the only builders that construct a J; the others
#: delegate to build_su11_J, so J_terms counts each J once.
FUNCTIONS = (
    ("tsu11.algebra", "mul", "algebra.mul", None),
    ("tsu11.algebra", "adjoint", "algebra.expr_ops", None),
    ("tsu11.algebra", "normal_order", "algebra.normal_order", None),
    ("tsu11.algebra", "coherent_expectation", "algebra.coherent_expectation", None),
    ("tsu11.circuits", "build_tsu11_J", "circuits.build_tsu11_J", None),
    ("tsu11.circuits", "build_su11_J", "circuits.build_su11_J", _count_j_terms),
    ("tsu11.circuits", "build_classical_J", "circuits.build_classical_J", _count_j_terms),
    ("tsu11.circuits", "build_vacuum_J", "circuits.build_vacuum_J", None),
    ("tsu11.metrology", "variance", "metrology.variance", None),
    ("tsu11.metrology", "dj_dphi_sq", "metrology.dj_dphi_sq", None),
    ("tsu11.metrology", "report", "metrology.report", None),
    ("tsu11.metrology", "lodi_db", "metrology.lodi_db", None),
    ("tsu11.metrology", "classical_reference", "metrology.classical_reference", None),
    ("tsu11.optimize", "optimize_phases", "optimize.optimize_phases", None),
    ("tsu11.optimize", "nelder_mead", "optimize.nelder_mead", _count_nelder_mead),
    ("tsu11.optimize", "run_sweep", "optimize.run_sweep", _count_sweep),
    ("tsu11.optimize", "vacuum_noise_map", "optimize.vacuum_noise_map", _count_map),
)

#: OperatorExpr methods that do not delegate to a wrapped function;
#: __sub__, __neg__ and scalar __mul__ reach them
METHODS = (("__add__", "algebra.expr_ops"), ("scaled", "algebra.expr_ops"))

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name, _ in FUNCTIONS] + [ROOT_SPAN]))


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time).

    Self time is a span's duration minus the part of its interval that
    its child spans cover, so the self times of all spans add up to the
    duration of the root spans.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, tuple[int, float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - _covered(start, end, children[idx]))
    return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def inclusive_time(spans, name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(end - start for n, start, end, _ in spans if n == name)


def _tsu11_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "tsu11" or k.startswith("tsu11."))]


class Tracer:
    """Records spans and counts while installed; inert once uninstalled."""

    def __init__(self):
        #: [name, start, end, parent index]; parent -1 marks a root
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        wrapper._bench_original = fn
        return wrapper

    def _count_grid_evals(self, factory):
        """Wrap optimize's coarse-objective factory so that each grid
        evaluation is counted; the evaluations are not spans."""
        counts = self.counts

        @functools.wraps(factory)
        def counting_factory(*args, **kwargs):
            objective = factory(*args, **kwargs)

            def counted(x):
                counts["optimize.grid.evals"] += 1
                return objective(x)

            return counted

        counting_factory._bench_original = factory
        return counting_factory

    def _patch(self, owner, key, value):
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from tsu11.algebra import OperatorExpr
        from tsu11.circuits import CIRCUITS

        replacements = []
        for module, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            replacements.append((original, self._wrap(original, name, hook)))
        coarse = sys.modules["tsu11.optimize"]._lod_objective_coarse
        replacements.append((coarse, self._count_grid_evals(coarse)))

        for original, wrapper in replacements:
            for module in _tsu11_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
            for key, value in list(CIRCUITS.items()):
                if value is original:
                    self._patch(CIRCUITS, key, wrapper)
        for attr, name in METHODS:
            self._patch(OperatorExpr, attr, self._wrap(OperatorExpr.__dict__[attr], name, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    @staticmethod
    def assert_removed() -> None:
        """Raise if any tsu11 binding still holds a benchmark wrapper."""
        from tsu11.algebra import OperatorExpr
        from tsu11.circuits import CIRCUITS

        places = [(m.__name__, vars(m)) for m in _tsu11_modules()]
        places += [("CIRCUITS", CIRCUITS), ("OperatorExpr", vars(OperatorExpr))]
        left = [f"{where}.{key}" for where, namespace in places
                for key, value in namespace.items() if hasattr(value, "_bench_original")]
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {', '.join(left)}")

    @contextmanager
    def root(self, name: str = ROOT_SPAN):
        """A top-level span around one traced repetition."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        rec = [name, 0.0, 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
