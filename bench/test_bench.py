"""Self-tests of the benchmark: span arithmetic, tracer install and
removal, and the correctness gate.

    python3 -m pytest -q bench
"""

import json
from pathlib import Path

import pytest
from mpmath import mpf, workdps

from checkout import ROOT, use_checkout_sources

use_checkout_sources()

import tsu11  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import ROOT_SPAN, Tracer, self_times  # noqa: E402


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("b", 6.0, 7.5, 3),
    ]
    st = self_times(spans)
    assert st["root"] == (1, pytest.approx(3.0))
    assert st["a"] == (2, pytest.approx(2.0 + 2.5))
    assert st["b"] == (2, pytest.approx(1.0 + 1.5))
    assert sum(s for _, s in st.values()) == pytest.approx(10.0)


def test_self_time_subtracts_the_union_of_overlapping_and_clipped_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("c", 5.0, 9.0, 0),
        ("d", 8.0, 12.0, 0),  # overlaps c and ends after its parent
    ]
    st = self_times(spans)
    assert st["root"][1] == pytest.approx(5.0)  # children cover [5, 10]
    assert st["c"][1] == pytest.approx(4.0)
    assert st["d"][1] == pytest.approx(4.0)


def _small_vacuum_map():
    inputs = {"preset": workloads.PRESET,
              "axes": [["phi", "-0.01", "0.01", 3], ["phi_p", "-0.02", "0.02", 2]]}
    built = workloads.vacuum_build(inputs)
    return built, workloads.vacuum_run(built)


def test_tracer_records_every_binding_and_is_removed_after():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            Tracer.assert_removed()
        with tracer.root():
            _small_vacuum_map()
    finally:
        tracer.uninstall()
    Tracer.assert_removed()
    assert tsu11.circuits.CIRCUITS["vacuum"] is tsu11.circuits.build_vacuum_J
    assert tsu11.metrology.mul is tsu11.algebra.mul

    st = self_times(tracer.spans)
    for name in ("optimize.vacuum_noise_map", "circuits.build_vacuum_J",
                 "circuits.build_tsu11_J", "circuits.build_su11_J", "metrology.variance",
                 "algebra.mul", "algebra.expr_ops", "algebra.coherent_expectation",
                 "algebra.normal_order"):
        assert st[name][0] > 0, name
    assert st["optimize.vacuum_noise_map"][0] == 1
    assert st["metrology.variance"][0] == 6
    assert tracer.counts["optimize.vacuum_noise_map.points"] == 6
    wall = tracing.inclusive_time(tracer.spans, ROOT_SPAN)
    assert sum(s for _, s in st.values()) == pytest.approx(wall, rel=1e-9)


def test_gate_accepts_the_program_and_rejects_a_perturbed_value():
    built, (rows, minima) = _small_vacuum_map()
    assert workloads.vacuum_check(built, (rows, minima)).failed == 0

    perturbed = [dict(r) for r in rows]
    with workdps(60):
        perturbed[2]["value"] = perturbed[2]["value"] * (1 + mpf("1e-30"))
    verdict = workloads.vacuum_check(built, (perturbed, minima))
    assert verdict.failed == 1
    assert verdict.attempted == len(rows) + len(minima)

    missing = workloads.vacuum_check(built, (rows[:-1], minima))
    assert "map point missing" in missing.problems


def test_gate_rejects_a_perturbed_sweep_value():
    inputs = dict(workloads.sweep_inputs(0), lo="0.5", hi="1", count=2)
    grid = workloads.sweep_build(inputs)
    rows = workloads.sweep_run(grid)
    assert workloads.sweep_check(grid, rows).failed == 0
    with workdps(60):
        rows[1]["value"] += mpf("1e-35")
    assert workloads.sweep_check(grid, rows).failed == 1


def test_gate_refuses_points_outside_the_closed_form_domain():
    (p, axes), (rows, minima) = _small_vacuum_map()
    verdict = workloads.vacuum_check((p.replace(eta_c1="0.5"), axes), (rows, minima))
    assert verdict.failed == len(rows)
    assert all("eta_p1 == eta_c1" in msg for msg in verdict.problems)


def test_inputs_depend_only_on_the_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.inputs(7) == wl.inputs(7)
        assert wl.inputs(7) != wl.inputs(8)
    assert workloads.optimize_inputs(0)["r"] == "0.88"
    assert workloads.sweep_inputs(0)["hi"] == "3"


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert Path(run.__file__).parent.name in spec["paths"]


def test_gate_names_the_offset_rounding_defect_and_rejects_other_errors():
    p, _ = built = workloads.optimize_build(workloads.optimize_inputs(0))
    phi_p, phi_c = mpf("0.3"), mpf("-1.2")
    engine = tsu11.lodi_db(p.replace(phi_p=phi_p, phi_c=phi_c))

    def check(value_db):
        return workloads.optimize_check(built, tsu11.OptResult(
            phi_p, phi_c, value_db, value_db, 0, 0, True))

    exact = check(engine.lodi_db)
    assert (exact.failed, exact.known_defects) == (0, [])
    rounded = check(workloads._rounded_offset_lodi(engine))
    assert rounded.failed == 0
    assert [workloads.OFFSET_ROUNDING in d for d in rounded.known_defects] == [True]
    with workdps(60):
        perturbed = check(engine.lodi_db * (1 + mpf("1e-30")))
    assert (perturbed.failed, perturbed.known_defects) == (1, [])
