"""Command-line front end.

Commands: lod, lodi, optimize, sweep, vacuum.  Numeric output is written
as CSV plus a JSON sidecar carrying the fixed parameters and engine
version; numbers are decimal strings at the working precision and output
is byte-identical across runs of the same configuration.

Each command reads the parameters ``main`` builds once and returns its
rows, header, sidecar and exit code; ``main`` writes them.

Exit codes: 0 ok, 1 stdout closed before the output was written, 2 usage
or configuration error (including a bad sweep axis, target or circuit; a
config-file key given twice; two values that set one field, as ``eta``
and ``eta_p1`` from the same source; a flag or config-file value that
sets a field the command's circuit forces, ``circuits.FORCED``, or a
nonzero seed of the vacuum circuit, to another value; and an output that
cannot be written, which outranks exit 3), 3 undefined result (e.g.
vacuum-seeded LOD), 4 failed internal cross-check (``ConsistencyError``,
e.g. an interpolant that misses the engine).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from mpmath import isfinite, mp, mpc, mpf, workdps

from . import __version__
from .circuits import ARMS_PROBE, CIRCUITS, NUMERIC_FIELDS, InterferometerParams, forced, pinned
from .metrology import ConsistencyError, UndefinedLodError, lodi_db, report
from .optimize import OPTIMIZE_TARGETS, optimize_phases
from .sweep import SWEEP_TARGETS, AxisSpec, SweepGrid, run_sweep, vacuum_noise_map
from .presets import PRESETS, expand, make_params

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_CONFIG = 2
EXIT_UNDEFINED = 3
EXIT_CONSISTENCY = 4

_PARAM_FIELDS = tuple(f.name for f in fields(InterferometerParams))
#: parameter flags: the numeric fields and the eta shorthand
_PARAM_FLAGS = NUMERIC_FIELDS + ("eta",)


class ConfigError(Exception):
    pass


_CIRCUIT = (tuple(sorted(CIRCUITS)), "tsu11")
#: the circuit and target each command reads, as (choices, default)
_COMMAND_OPTIONS = {
    "lod": {"circuit": _CIRCUIT},
    "optimize": {"circuit": _CIRCUIT, "target": (OPTIMIZE_TARGETS, "lodi")},
    "sweep": {"circuit": _CIRCUIT, "target": (SWEEP_TARGETS, "lod")},
}

#: the circuit of each command that takes no --circuit: lodi compares tsu11
_COMMAND_CIRCUIT = {"lodi": "tsu11", "vacuum": "vacuum"}

#: keys a config file may carry
_CONFIG_KEYS = frozenset(_PARAM_FIELDS + _PARAM_FLAGS + ("preset", "circuit", "target"))


def _parse_config_file(path: str) -> dict:
    """Flat key = value lines; # starts a comment; unknown keys are errors."""
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        if key == "precision" and not val.isdigit():
            raise ConfigError(f"{path}:{lineno}: precision must be an integer, "
                              f"got {val!r}")
        values[key] = int(val) if key == "precision" else val
    return values


def _resolve_options(args, file_values: dict) -> None:
    """Set the circuit and target a command reads from flag, else config
    file, else default; a bad value or one the command does not read is a
    ConfigError."""
    options = _COMMAND_OPTIONS.get(args.command, {})
    for key in ("circuit", "target"):
        from_file = file_values.pop(key, None)
        if key not in options:
            if from_file is not None:
                raise ConfigError(f"{args.command} takes no {key}")
            continue
        choices, default = options[key]
        value = getattr(args, key) or from_file or default
        if value not in choices:
            raise ConfigError(f"{args.command} {key} must be one of "
                              f"{', '.join(choices)}; got {value!r}")
        setattr(args, key, value)


def _build_params(args) -> InterferometerParams:
    """The command's parameters: the preset, then the config file, then
    the flags, each source's shorthands expanded on their own so that a
    flag overrides the file field by field; the command's circuit then
    pins its fields (``circuits.pinned``), and a given value that would
    not hold is a ConfigError."""
    file_values = _parse_config_file(args.config) if args.config else {}
    from_file = file_values.pop("preset", None)
    preset = args.preset or from_file
    _resolve_options(args, file_values)
    flags = ((name, getattr(args, name)) for name in _PARAM_FLAGS + ("precision", "arms"))
    try:
        overrides = {**expand(file_values.items()),
                     **expand((name, flag) for name, flag in flags if flag is not None)}
        # "probe" is the documented spelling, by flag or by file
        if overrides.get("arms") == "probe":
            overrides["arms"] = ARMS_PROBE
        p = make_params(preset, **overrides)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    circuit = _COMMAND_CIRCUIT.get(args.command) or args.circuit
    pins = pinned(circuit)
    for name, value in pins.items():
        if name in overrides and getattr(p, name) != value:
            raise ConfigError(f"the {circuit} circuit forces {name} = {value}: "
                              f"{name} = {overrides[name]} would not move it")
    return forced(p, pins)


def _decimals(values: dict, precision: int) -> dict:
    """JSON values of ``values`` (a dataclass's ``vars``, a sweep row): an
    mpf becomes a decimal string at ``precision`` digits, an mpc {"re",
    "im"} of those, and anything else (None, bool, int, str, float)
    passes through.  Every number the CLI writes at the working precision
    is formatted here."""

    def decimal(x):
        if isinstance(x, mpc):
            return {"re": decimal(x.real), "im": decimal(x.imag)}
        return mp.nstr(x, precision) if isinstance(x, mpf) else x

    return {key: decimal(x) for key, x in values.items()}


def _db4(x):
    """Human summary style: dB rounded to 4 decimals."""
    return "undefined" if x is None else f"{float(x):.4f}"


def _write_outputs(args, p, rows, header, sidecar) -> int:
    """CSV to --out (or stdout) plus a .json sidecar next to it, stamped
    with the command, engine version and parameters; exit 2 if --out
    cannot be written, else 0."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    csv_text = buf.getvalue()
    sidecar = {**sidecar, "command": args.command, "engine_version": __version__,
               "parameters": _decimals(vars(p), p.precision)}
    json_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        try:
            out.write_text(csv_text)
            out.with_suffix(out.suffix + ".json").write_text(json_text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"wrote {out} and {out.with_suffix(out.suffix + '.json')}")
    else:
        sys.stdout.write(csv_text)
        sys.stdout.write(json_text)
    return EXIT_OK


def cmd_lod(args, p):
    circuit = args.circuit
    rep = report(circuit, p)
    lod = rep.lod_db
    print(f"circuit        : {circuit}")
    with workdps(p.precision):
        print(f"mean_j         : {mp.nstr(rep.mean_j, 12)}")
        print(f"variance       : {mp.nstr(rep.variance.real, 12)}")
        print(f"dj_dphi_sq     : {mp.nstr(rep.dj_dphi_sq, 12)}")
    if lod is None:
        print("lod_db         : undefined (phase derivative of <J> vanishes)")
    else:
        print(f"lod_db         : {_db4(lod)}")
    cells = _decimals({**vars(rep), "lod_db": lod}, p.precision)
    rows = [[circuit, cells["variance"]["re"], cells["dj_dphi_sq"],
             cells["lod_db"] or "undefined"]]
    sidecar = {"circuit": circuit, "report": cells}
    return (rows, ["circuit", "variance", "dj_dphi_sq", "lod_db"], sidecar,
            EXIT_UNDEFINED if lod is None else EXIT_OK)


def cmd_lodi(args, p):
    rep = lodi_db(p)
    print(f"lod_tsu11_db   : {_db4(rep.lod_tsu11_db)}")
    print(f"lod_classical  : {_db4(rep.lod_classical_db)}")
    print(f"lodi_db        : {_db4(rep.lodi_db)}")
    cells = _decimals(vars(rep), p.precision)
    header = ["lod_tsu11_db", "lod_classical_db", "lodi_db"]
    return [[cells[key] for key in header]], header, cells, EXIT_OK


def cmd_optimize(args, p):
    target, circuit = args.target, args.circuit
    if args.grid < 1:
        raise ConfigError(f"--grid must be >= 1, got {args.grid}")
    result = optimize_phases(p, target=target, circuit=circuit, grid_n=args.grid)
    print(f"phi_p          : {mp.nstr(result.phi_p, 8)}")
    print(f"phi_c          : {mp.nstr(result.phi_c, 8)}")
    print(f"{target}_db        : {_db4(result.value_db)}")
    print(f"converged      : {result.converged}")
    print(f"stop_reason    : {result.stop_reason}")
    cells = _decimals(vars(result), p.precision)
    rows = [[cells["phi_p"], cells["phi_c"], cells["value_db"]]]
    sidecar = {"target": target, **cells}
    if target == "lodi":
        sidecar["lodi_db"] = cells["value_db"]
    return rows, ["phi_p", "phi_c", f"{target}_db"], sidecar, EXIT_OK


def _parse_axis(spec: str) -> AxisSpec:
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise ConfigError(f"axis spec must be NAME:MIN:MAX:COUNT[:log], got {spec!r}")
    name, lo, hi, count = parts[:4]
    log = False
    if len(parts) == 5:
        if parts[4] != "log":
            raise ConfigError(f"axis spacing must be 'log', got {parts[4]!r}")
        log = True
    try:
        # bounds stay as typed and convert at the working precision, as
        # parameter flags do
        if not all(isfinite(mpf(b)) for b in (lo, hi)):
            raise ValueError("axis bounds must be finite")
        return AxisSpec(name, lo, hi, int(count), log)
    except ValueError as exc:
        raise ConfigError(f"bad axis spec {spec!r}: {exc}") from exc


def _sweep_cells(rows, axes, precision) -> list[list[str]]:
    """CSV cells of sweep rows: axis values, value ("" if none), error."""
    cells = [_decimals(row, precision) for row in rows]
    return [[c[ax.name] for ax in axes] + [c["value"] or "", c["error"]] for c in cells]


def cmd_sweep(args, p):
    if not args.axis:
        raise ConfigError("sweep requires at least one --axis")
    axes = tuple(_parse_axis(a) for a in args.axis)
    try:
        grid = SweepGrid(axes=axes, base=p, target=args.target, circuit=args.circuit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = [ax.name for ax in axes] + [grid.target, "error"]
    raw = run_sweep(grid)
    rows = _sweep_cells(raw, axes, p.precision)
    digits = [row["check_digits"] for row in raw if row["route"] == "interpolant"]
    sidecar = {"target": grid.target, "circuit": grid.circuit,
               "axes": [vars(ax) for ax in axes], "points": len(rows),
               "route": "interpolant" if digits else "engine",
               "check_digits": min(digits, default=None)}
    return rows, header, sidecar, EXIT_OK


def cmd_vacuum(args, p):
    axis_specs = args.axis or ["phi:-0.05:0.05:41", "phi_p:-0.05:0.05:5"]
    if len(axis_specs) != 2:
        raise ConfigError("vacuum expects exactly two --axis specs")
    axes = tuple(_parse_axis(a) for a in axis_specs)
    try:
        rows_raw, minima = vacuum_noise_map(p, axes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    header = [axes[0].name, axes[1].name, "variance", "error"]
    rows = _sweep_cells(rows_raw, axes, p.precision)
    sidecar = {
        "axes": [vars(ax) for ax in axes],
        "minima": [_decimals(m, p.precision) for m in minima],
    }
    return rows, header, sidecar, EXIT_OK


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
    sub.add_argument("--out", help="CSV output path (JSON sidecar written alongside)")
    sub.add_argument("--precision", type=int, help="working precision in digits")
    sub.add_argument("--arms", choices=["probe", "both"],
                     help="which squeezed beams pass the sample")
    for name in _PARAM_FLAGS:
        sub.add_argument(f"--{name}", dest=name, help=f"override parameter {name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsu11",
        description="Squeezed-light interferometer metrology: limit of detection "
                    "for polarization-rotation sensing.",
    )
    parser.add_argument("--version", action="version", version=f"tsu11 {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("lod", cmd_lod, "limit of detection for one circuit"),
        ("lodi", cmd_lodi, "LOD improvement over the classical benchmark"),
        ("optimize", cmd_optimize, "optimize the LO phases"),
        ("sweep", cmd_sweep, "parameter sweep to CSV"),
        ("vacuum", cmd_vacuum, "vacuum-seeded noise map"),
    ):
        sub = subs.add_parser(name, help=extra)
        _add_common(sub)
        for key, (choices, default) in _COMMAND_OPTIONS.get(name, {}).items():
            sub.add_argument(f"--{key}", help=f"{', '.join(choices)} (default {default})")
        if name in ("sweep", "vacuum"):
            sub.add_argument("--axis", action="append",
                             help="sweep axis NAME:MIN:MAX:COUNT[:log] (repeatable)")
        if name == "optimize":
            sub.add_argument("--grid", type=int, default=64,
                             help="coarse grid resolution per phase axis")
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; version/help exit 0
        return int(exc.code or 0)
    try:
        try:
            p = _build_params(args)
            rows, header, sidecar, code = args.fn(args, p)
            # a failed write outranks the undefined LOD
            return _write_outputs(args, p, rows, header, sidecar) or code
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except UndefinedLodError as exc:
            print(f"undefined result: {exc}", file=sys.stderr)
            if exc.variance is not None:
                print(f"variance       : {mp.nstr(exc.variance.real, 12)}")
            return EXIT_UNDEFINED
        except ConsistencyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONSISTENCY
        finally:
            # stdout is block-buffered on a pipe: flush here, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the
        # interpreter's own flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
