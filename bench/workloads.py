"""The benchmark's workloads: inputs from a seed, one repetition, and the
correctness gate that checks a repetition's outputs.

Each workload is one closed-loop caller on one thread, driving the public
tsu11 API the way the matching CLI command does.  Seed 0 is the exact
configuration each ``*_inputs`` docstring states; other seeds jitter it
within the ranges stated there, so a claim can be checked on inputs it
was not tuned on.  Inputs are decimal strings, so they are exact at any
precision and can be recorded with the results.

The gate compares every output with the closed-form route
(``closed_form_report``) at a relative tolerance of 1e-40, the tolerance
acceptance criterion 4 asserts at 60 digits.  For the optimizer it
checks the engine at the returned phases against the closed forms, and
the reported value against the engine there.  One known defect of the
program is named instead of failed (``OFFSET_ROUNDING``).

Repetitions call the engine through the ``tsu11`` package namespace, one
of the bindings the tracer replaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from mpmath import log10, mpf, workdps

import tsu11
from tsu11 import AxisSpec, SweepGrid, closed_form_report, make_params, sampling_phase

PRESET = "paper-start"
REL_TOL = mpf("1e-40")

#: A known defect of tsu11.optimize_phases: for target "lodi" it computes
#: its offset, -classical_reference(p).lod_db, outside workdps, so the
#: offset is rounded to the caller's ambient mpmath precision (15 digits
#: by default) and value_db is right to about 16 digits.  A value_db that
#: is, within REL_TOL, the engine's LODI with exactly that one rounding is
#: reported as this defect and not counted as failed; any other
#: disagreement fails.  Once the program is fixed, value_db agrees with
#: the engine directly and the defect is no longer reported.
OFFSET_ROUNDING = "optimize_phases rounds its LODI offset to the ambient mpmath precision"


class PreconditionError(ValueError):
    """A parameter point lies outside the domain the closed forms cover."""


@dataclass
class Verdict:
    """Outcome of the gate on one repetition's outputs.

    An operation is one output the caller asked for: the optimum, one
    sweep point, one map point or one map minimum.  It fails if it has no
    value or any of its checks fails.
    """

    attempted: int = 0
    failed: int = 0
    #: smallest -log10(relative error) over all compared values
    min_agree_digits: float = float("inf")
    problems: list[str] = field(default_factory=list)
    #: outputs that show a known defect of the program (not failures)
    known_defects: list[str] = field(default_factory=list)

    def agrees(self, label: str, got, want, scale=None) -> bool:
        """Whether ``got`` is within REL_TOL of ``want``, relative to
        ``scale`` (default: the larger magnitude of the two)."""
        if got is None:
            self.problems.append(f"{label}: no value")
            return False
        err = rel_err(got, want, scale)
        self.min_agree_digits = min(self.min_agree_digits, agree_digits(err))
        if err <= REL_TOL:
            return True
        self.problems.append(f"{label}: relative error {float(err):.3g} > {float(REL_TOL):g}")
        return False

    def count(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem:
                self.problems.append(problem)


def rel_err(got, want, scale=None):
    """|got - want| relative to ``scale`` (default: the larger magnitude)."""
    with workdps(tsu11.DEFAULT_DPS):
        if scale is None:
            scale = max(abs(got), abs(want))
        return abs(got - want) / scale if scale else abs(got - want)


def agree_digits(err) -> float:
    with workdps(tsu11.DEFAULT_DPS):
        return float(-log10(err)) if err else float(tsu11.DEFAULT_DPS)


def _closed_form(circuit: str, q):
    """closed_form_report after checking the preconditions it relies on.

    The closed forms assume an unseeded conjugate input, and they use
    eta_p1 for both internal losses, so they silently disagree with the
    engine when eta_p1 != eta_c1.
    """
    if q.beta != 0:
        raise PreconditionError("closed forms need beta == 0")
    if q.eta_p1 != q.eta_c1:
        raise PreconditionError("closed forms need eta_p1 == eta_c1")
    return closed_form_report(circuit, q)


def closed_form_lodi(q):
    """(LODI, scale) by the closed forms, with the classical benchmark at
    its derivative-maximizing LO phases, as ``classical_reference`` places
    it.  The scale is the larger |LOD| the difference is taken from."""
    with workdps(q.precision):
        phi = sampling_phase(q.theta_f, q.precision)
        lod_t = _closed_form("tsu11", q).lod_db
        lod_c = _closed_form("classical", q.replace(phi_p=phi, phi_c=phi)).lod_db
        return lod_t - lod_c, max(abs(lod_t), abs(lod_c))


def _jitter(rng: random.Random, lo: float, hi: float, digits: int) -> str:
    return f"{rng.uniform(lo, hi):.{digits}f}"


# -- optimize: LO-phase optimum of LODI ----------------------------------------


def optimize_inputs(seed: int) -> dict:
    """Seed 0: paper-start.  Other seeds: r in [0.80, 0.96] and
    theta_f in [0.0008, 0.0012]."""
    inputs = {"preset": PRESET, "target": "lodi", "circuit": "tsu11", "grid_n": 16,
              "r": "0.88", "theta_f": "0.001"}
    if seed:
        rng = random.Random(seed)
        inputs["r"] = _jitter(rng, 0.80, 0.96, 4)
        inputs["theta_f"] = _jitter(rng, 0.0008, 0.0012, 6)
    return inputs


def optimize_build(inputs: dict):
    return make_params(inputs["preset"], r=inputs["r"], theta_f=inputs["theta_f"]), inputs


def optimize_run(built):
    p, inputs = built
    return tsu11.optimize_phases(p, target=inputs["target"], circuit=inputs["circuit"],
                                 grid_n=inputs["grid_n"])


def optimize_check(built, res) -> Verdict:
    p, _ = built
    v = Verdict()
    q = p.replace(phi_p=res.phi_p, phi_c=res.phi_c)
    try:
        want, scale = closed_form_lodi(q)
    except PreconditionError as exc:
        v.count(False, f"optimum: {exc}")
        return v
    # the engine at the returned phases must reproduce the closed forms,
    # and the reported value must be the engine's LODI there
    engine = tsu11.lodi_db(q)
    ok = v.agrees("engine at optimum vs closed form", engine.lodi_db, want, scale)
    err = rel_err(res.value_db, engine.lodi_db, scale)
    if err > REL_TOL and rel_err(res.value_db, _rounded_offset_lodi(engine), scale) <= REL_TOL:
        v.known_defects.append(f"optimum value_db agrees with the engine to"
                               f" {agree_digits(err):.1f} digits: {OFFSET_ROUNDING}")
    else:
        ok &= v.agrees("optimum vs engine", res.value_db, engine.lodi_db, scale)
    v.count(ok and res.converged, "" if res.converged else "Nelder-Mead did not converge")
    return v


def _rounded_offset_lodi(engine):
    """The engine's LODI with the classical LOD rounded to the ambient
    precision, as ``OFFSET_ROUNDING`` describes."""
    offset = -engine.lod_classical_db
    with workdps(engine.precision):
        return engine.lod_tsu11_db + offset


# -- sweep-lodi: LODI against gain -------------------------------------------


def sweep_inputs(seed: int) -> dict:
    """Seed 0: r:0:3:61.  Other seeds: lower end in [0, 0.05], upper end
    in [2.9, 3.1], still 61 points."""
    inputs = {"preset": PRESET, "target": "lodi", "axis": "r", "lo": "0", "hi": "3",
              "count": 61}
    if seed:
        rng = random.Random(seed)
        inputs["lo"] = _jitter(rng, 0.0, 0.05, 4)
        inputs["hi"] = _jitter(rng, 2.9, 3.1, 4)
    return inputs


def sweep_build(inputs: dict):
    axis = AxisSpec(inputs["axis"], float(inputs["lo"]), float(inputs["hi"]), inputs["count"])
    return SweepGrid(axes=(axis,), base=make_params(inputs["preset"]), target=inputs["target"])


def sweep_run(grid):
    return tsu11.run_sweep(grid)


def sweep_check(grid, rows) -> Verdict:
    v = Verdict()
    (axis,) = grid.axes
    for _ in range(axis.count - len(rows)):
        v.count(False, "sweep point missing")
    for row in rows:
        label = f"{axis.name}={float(row[axis.name]):.6g}"
        try:
            want, scale = closed_form_lodi(grid.base.replace(**{axis.name: row[axis.name]}))
        except PreconditionError as exc:
            v.count(False, f"{label}: {exc}")
            continue
        v.count(v.agrees(label, row["value"], want, scale))
    return v


# -- vacuum-map: phase map of the vacuum-seeded noise -------------------------


def vacuum_inputs(seed: int) -> dict:
    """Seed 0: phi:-0.05:0.05:81 x phi_p:-0.08:0.08:5, unseeded: the README
    example with the phi axis twice as dense, so that one repetition is
    long enough to average out machine noise.  Other seeds scale each axis
    end by a factor in [0.8, 1.2]."""
    inputs = {"preset": PRESET,
              "axes": [["phi", "-0.05", "0.05", 81], ["phi_p", "-0.08", "0.08", 5]]}
    if seed:
        rng = random.Random(seed)
        inputs["axes"] = [
            [name, f"{float(lo) * rng.uniform(0.8, 1.2):.5f}",
             f"{float(hi) * rng.uniform(0.8, 1.2):.5f}", count]
            for name, lo, hi, count in inputs["axes"]
        ]
    return inputs


def vacuum_build(inputs: dict):
    p = make_params(inputs["preset"], alpha=0, beta=0)
    axes = tuple(AxisSpec(name, float(lo), float(hi), count)
                 for name, lo, hi, count in inputs["axes"])
    return p, axes


def vacuum_run(built):
    p, axes = built
    return tsu11.vacuum_noise_map(p, axes)


def _vacuum_point(p, row):
    q = p
    for name, value in row.items():
        if name == "phi":
            q = q.replace(theta_f=value)
        elif name in ("phi_p", "phi_c"):
            q = q.replace(**{name: value})
    return q


def vacuum_check(built, result) -> Verdict:
    p, (scan, group) = built
    rows, minima = result
    v = Verdict()
    for _ in range(scan.count * group.count - len(rows)):
        v.count(False, "map point missing")
    for row in rows:
        label = f"{scan.name}={float(row[scan.name]):.6g} {group.name}={float(row[group.name]):.6g}"
        try:
            want = _closed_form("vacuum", _vacuum_point(p, row)).variance.real
        except PreconditionError as exc:
            v.count(False, f"{label}: {exc}")
            continue
        v.count(v.agrees(label, row["value"], want))
    for _ in range(group.count - len(minima)):
        v.count(False, "map minimum missing")
    for best in minima:
        group_rows = [r for r in rows if r[group.name] == best[group.name]]
        v.count(bool(group_rows) and best["value"] == min(r["value"] for r in group_rows),
                f"{group.name}={float(best[group.name]):.6g}: minimum is not the group minimum")
    return v


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], dict]
    build: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("optimize",
                 "LO-phase optimum of LODI: coarse grid plus Nelder-Mead, the hot path",
                 optimize_inputs, optimize_build, optimize_run, optimize_check),
        Workload("sweep-lodi",
                 "61-point LODI sweep over gain: report and the phase derivative dominate",
                 sweep_inputs, sweep_build, sweep_run, sweep_check),
        Workload("vacuum-map",
                 "unseeded noise map over two phases: variance only, no derivative",
                 vacuum_inputs, vacuum_build, vacuum_run, vacuum_check),
    )
}
