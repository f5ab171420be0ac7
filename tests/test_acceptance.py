"""Acceptance criteria, each printed as one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every tolerance is pinned here; the randomized sweeps use
fixed seeds.  Criteria 2 and 3 assert benchmark targets that sit outside
what the cross-validated model admits (the assertion messages carry the
computed values and the location of the true landscape optimum), so they
are expected to fail until the targets are revised; the remaining
criteria pass.
"""

import random
import time

from mpmath import mp, mpf, workdps

from tsu11 import (
    AxisSpec,
    InterferometerParams,
    build_classical_J,
    build_tsu11_J,
    build_vacuum_J,
    closed_form_report,
    coherent_expectation,
    dj_dphi_sq,
    lod_db,
    lodi_db,
    make_params,
    mul,
    optimize_phases,
    transduce,
    vacuum_noise_map,
    variance,
)
from tsu11.cli import EXIT_OK, main

from conftest import random_expr, rel_diff
from fock_oracle import FockConfig, factored_expectation, oracle_expectation


def announce(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_classical_benchmarks():
    t0 = time.monotonic()
    val1 = lod_db("classical", make_params("paper-start"))
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    val2 = lod_db("classical", make_params("paper-start", eta="0.8"))
    t2 = time.monotonic() - t0
    with workdps(60):
        ok = (
            abs(val1 - mpf("-68.3369")) <= mpf("0.0005")
            and abs(val2 - mpf("-67.8524")) <= mpf("0.0005")
            and t1 < 1.0
            and t2 < 1.0
        )
        detail = (
            f"classical LOD {mp.nstr(val1, 9)} dB (target -68.3369 +/- 0.0005, "
            f"{t1:.2f}s) and {mp.nstr(val2, 9)} dB at eta=0.8 "
            f"(target -67.8524 +/- 0.0005, {t2:.2f}s)"
        )
    announce("1", ok, detail)
    assert ok, detail


def test_criterion_2_lodi_optimum():
    results = []
    for eta, target_val, target_pp, target_pc in (
        ("1", "-3.854", "0.01017", "0.00117"),
        ("0.8", "-2.374", "-0.02422", "0.04879"),
    ):
        p = make_params("paper-start", eta=eta)
        t0 = time.monotonic()
        res = optimize_phases(p, target="lodi", grid_n=64)
        elapsed = time.monotonic() - t0
        results.append((eta, res, elapsed, target_val, target_pp, target_pc))

    ok = True
    details = []
    with workdps(60):
        for eta, res, elapsed, tv, tp, tc in results:
            good = (
                abs(res.value_db - mpf(tv)) <= mpf("0.01")
                and abs(res.phi_p - mpf(tp)) <= mpf("2e-3")
                and abs(res.phi_c - mpf(tc)) <= mpf("2e-3")
                and elapsed < 120
            )
            ok = ok and good
            details.append(
                f"eta={eta}: found {mp.nstr(res.value_db, 8)} dB at "
                f"({mp.nstr(res.phi_p, 5)}, {mp.nstr(res.phi_c, 5)}) in {elapsed:.0f}s; "
                f"target {tv} dB at ({tp}, {tc})"
            )
    detail = " | ".join(details)
    announce("2", ok, detail)
    assert ok, (
        detail + " || the optimizer, the analytic closed forms and the "
        "Fock oracle all place the global minimum at phi_p = phi_c = phi "
        "(the variance-minimizing line meets the derivative maximum there); "
        "the target values lie below that provable minimum and the target "
        "phases are not stationary points of the landscape"
    )


def test_criterion_3_high_gain_points():
    cases = [
        ("2.413", "-5.29"),
        ("2.414", "-5.29"),
        ("3.0", "-5.41"),
    ]
    results = []
    for r, target in cases:
        p = make_params("g15", r=r)
        res = optimize_phases(p, target="lodi", grid_n=16)
        results.append((r, target, res.value_db))
    ok = True
    details = []
    with workdps(60):
        for r, target, got in results:
            good = abs(got - mpf(target)) <= mpf("0.03")
            ok = ok and good
            details.append(f"r={r}: {mp.nstr(got, 7)} dB (target {target} +/- 0.03)")
        # diagnostic: the targets correspond to the weak-seed limit where
        # the seed shot-noise term is negligible
        limit = lodi_db(make_params("g15", alpha="1",
                                    phi_p="0.001", phi_c="0.001")).lodi_db
        details.append(f"weak-seed limit at r=2.413 gives {mp.nstr(limit, 7)} dB")
    detail = " | ".join(details)
    announce("3", ok, detail)
    assert ok, (
        detail + " || at the stated seed amplitude the seed shot-noise "
        "contribution eta*alpha^2*cosh(2r) shifts the optimum LODI by "
        "about +0.06 dB at r=2.413 and +0.2 dB at r=3; the targets are "
        "reproduced only in the weak-seed limit"
    )


def test_criterion_4_closed_form_equivalence():
    rng = random.Random(2024)
    t0 = time.monotonic()
    worst = mpf(0)

    def draw(beta_zero):
        eta = str(rng.uniform(0.1, 1.0))
        return InterferometerParams(
            r=str(rng.uniform(0, 3)),
            alpha=str(10 ** rng.uniform(2, 9)),
            beta=0,
            gamma=str(10 ** rng.uniform(2, 9)),
            kappa=str(10 ** rng.uniform(2, 9)),
            eta_p1=eta, eta_c1=eta,
            theta_f=str(rng.uniform(-3.14, 3.14)),
            phi_p=str(rng.uniform(-3.14, 3.14)),
            phi_c=str(rng.uniform(-3.14, 3.14)),
            precision=60,
        )

    with workdps(60):
        for _ in range(100):
            p = draw(beta_zero=True)

            for circuit, build in (("classical", build_classical_J), ("tsu11", build_tsu11_J)):
                J, _, state = build(p)
                ref = closed_form_report(circuit, p)
                worst = max(worst, rel_diff(coherent_expectation(J, state), ref.mean_j))
                worst = max(worst, rel_diff(variance(J, state).real, ref.variance.real))
                worst = max(worst, rel_diff(dj_dphi_sq(circuit, p), ref.dj_dphi_sq))

            pv = p.replace(alpha=0, beta=0)
            J, _, state = build_vacuum_J(pv)
            assert coherent_expectation(J, state) == 0
            assert dj_dphi_sq("vacuum", pv) == 0
            worst = max(worst, rel_diff(variance(J, state).real,
                                        closed_form_report("vacuum", pv).variance.real))

    elapsed = time.monotonic() - t0
    ok = worst < mpf("1e-40") and elapsed < 300
    detail = (
        f"100 random points per circuit, worst relative difference "
        f"{mp.nstr(worst, 3)} (tolerance 1e-40), {elapsed:.0f}s"
    )
    announce("4", ok, detail)
    assert ok, detail


def test_criterion_5_oracle_equivalence():
    rng = random.Random(777)
    t0 = time.monotonic()
    worst_match = 0.0
    worst_robust = 0.0
    cfg_lo = FockConfig(("a", "b"), 16)
    cfg_hi = FockConfig(("a", "b"), 21)
    for _ in range(200):
        x = random_expr(rng, modes=("a", "b"), max_degree=4, dps=40)
        state = {
            "a": complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)),
            "b": complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)),
        }
        engine = complex(coherent_expectation(x, state))
        lo = oracle_expectation(x, cfg_lo, state)
        hi = oracle_expectation(x, cfg_hi, state)
        worst_match = max(worst_match, abs(engine - lo))
        worst_robust = max(worst_robust, abs(hi - lo))

    p = InterferometerParams(
        r="0.4", alpha="0.3", beta=0, gamma="0.8", kappa="0.8",
        eta_p1="0.9", eta_c1="0.9", theta_f="0.02",
        phi_p="0.05", phi_c="-0.03", precision=40,
    )
    J, _, state = build_tsu11_J(p)
    worst_mini = 0.0
    worst_mini_robust = 0.0
    for expr in (J, mul(J, J)):
        engine = complex(coherent_expectation(expr, state))
        o24 = factored_expectation(expr, 24, state)
        o29 = factored_expectation(expr, 29, state)
        worst_mini = max(worst_mini, abs(engine - o24))
        worst_mini_robust = max(worst_mini_robust, abs(o29 - o24))

    elapsed = time.monotonic() - t0
    ok = (
        worst_match < 1e-8
        and worst_robust < 1e-10
        and worst_mini < 1e-8
        and worst_mini_robust < 1e-10
        and elapsed < 300
    )
    detail = (
        f"200 expressions: engine-vs-oracle {worst_match:.2e} (tol 1e-8), "
        f"cutoff+5 drift {worst_robust:.2e} (tol 1e-10); miniature circuit "
        f"{worst_mini:.2e} / {worst_mini_robust:.2e}; {elapsed:.0f}s"
    )
    announce("5", ok, detail)
    assert ok, detail


def test_criterion_6_structural_identities():
    rng = random.Random(31415)
    checks = []
    with workdps(60):
        # unseeded circuit: expectation vanishes identically
        pv = make_params("paper-start", alpha=0, beta=0)
        J, _, state = build_vacuum_J(pv)
        checks.append(("vacuum <J> = 0", coherent_expectation(J, state) == 0))

        # classical variance ignores all three phases
        vals = []
        for _ in range(10):
            p = make_params(
                "paper-start",
                theta_f=str(rng.uniform(-3, 3)),
                phi_p=str(rng.uniform(-3, 3)),
                phi_c=str(rng.uniform(-3, 3)),
            )
            Jc, _, sc = build_classical_J(p)
            vals.append(variance(Jc, sc).real)
        spread = (max(vals) - min(vals)) / min(vals)
        checks.append(("classical variance phase-free", spread < mpf("1e-40")))

        # no squeezing, no improvement
        rep = lodi_db(make_params("paper-start", r=0, phi_p="0.001", phi_c="0.001"))
        checks.append(("r=0 LODI = 0 (1e-6 dB)", abs(rep.lodi_db) < mpf("1e-6")))

        # vacuum-variance minima on the line 2 phi = phi_p + phi_c
        pmap = make_params("paper-start", alpha=0, beta=0, eta="0.9",
                           phi_c="0", precision=40)
        _, minima = vacuum_noise_map(
            pmap, (AxisSpec("phi", -0.05, 0.05, 101), AxisSpec("phi_p", -0.08, 0.08, 5))
        )
        resolution = mpf("0.1") / 100
        locus = all(abs(2 * m["phi"] - m["phi_p"]) <= 2 * resolution for m in minima)
        checks.append(("vacuum minima locus 2phi = phi_p + phi_c", locus))

        # unit-magnitude transduction slope
        h = mpf("1e-8")
        slope = (transduce(mpf("0.001") + h) - transduce(mpf("0.001") - h)) / (2 * h)
        checks.append(("|transduction slope| = 1 (1e-12)",
                       abs(abs(slope) - 1) < mpf("1e-12")))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}: {'ok' if flag else 'BAD'}" for name, flag in checks)
    announce("6", ok, detail)
    assert ok, detail


def test_criterion_7_determinism(tmp_path, capsys):
    blobs = []
    for tag in ("one", "two"):
        out_sweep = tmp_path / f"sweep-{tag}.csv"
        code = main([
            "sweep", "--preset", "paper-start", "--precision", "40",
            "--phi_p", "0.001", "--phi_c", "0.001",
            "--axis", "r:0:2:5", "--target", "lodi", "--out", str(out_sweep),
        ])
        assert code == EXIT_OK
        out_lodi = tmp_path / f"lodi-{tag}.csv"
        code = main([
            "lodi", "--preset", "paper-start", "--precision", "40",
            "--out", str(out_lodi),
        ])
        assert code == EXIT_OK
        blob = (
            out_sweep.read_bytes()
            + out_sweep.with_suffix(".csv.json").read_bytes()
            + out_lodi.read_bytes()
            + out_lodi.with_suffix(".csv.json").read_bytes()
        )
        blobs.append(blob)
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    announce("7", ok, f"sweep+lodi CSV/JSON byte-identical across runs: {ok}")
    assert ok


def test_appendix_reproducible_anchor_values():
    """Engine values the cross-validated model does reproduce, frozen.

    These document where the model lands at the same operating points
    used by criteria 2 and 3, plus the weak-seed limit that recovers the
    high-gain targets.
    """
    with workdps(60):
        opt1 = lodi_db(make_params("paper-start", phi_p="0.001", phi_c="0.001"))
        assert abs(opt1.lodi_db - mpf("-3.8202287798164172523")) < mpf("1e-15")
        opt8 = lodi_db(make_params("paper-start", eta="0.8",
                                   phi_p="0.001", phi_c="0.001"))
        assert abs(opt8.lodi_db - mpf("-2.3572472194090059652")) < mpf("1e-15")
        g15 = lodi_db(make_params("g15", phi_p="0.001", phi_c="0.001"))
        assert abs(g15.lodi_db - mpf("-5.2290901213094865881")) < mpf("1e-15")
        # weak-seed limit: high-gain targets recovered within 0.03 dB
        weak = lodi_db(make_params("g15", alpha="1", phi_p="0.001", phi_c="0.001"))
        assert abs(weak.lodi_db - mpf("-5.29")) < mpf("0.03")
        weak3 = lodi_db(make_params("g15", alpha="1", r="3.0",
                                    phi_p="0.001", phi_c="0.001"))
        assert abs(weak3.lodi_db - mpf("-5.41")) < mpf("0.03")
        # probe-only sampling against a both-arm classical reference
        from tsu11.metrology import classical_reference, report

        po = make_params("paper-start", arms="probe-only")
        rep_t = report("tsu11", po)
        rep_c = classical_reference(po.replace(arms="both"))
        assert abs((rep_t.lod_db - rep_c.lod_db) - mpf("-1.50")) < mpf("0.005")
