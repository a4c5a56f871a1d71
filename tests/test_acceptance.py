"""Acceptance gate: nine end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
verdict lines; each test also fails loudly through its assertion.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

import sparseppc as sp
from sparseppc.cli import main

from conftest import BENCH_N, random_reachable_plant, random_spd
from test_solvers import grid_minimum, l1l2_objective, min_feasible_support, toy_hm


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def mc_omp(bench_plant, bench_l0):
    start = time.perf_counter()
    result = sp.monte_carlo(bench_plant, {"omp": bench_l0.law},
                            BENCH_N, runs=100, T=100, seed=0,
                            keep_traces=True)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def mc_l1l2(bench_plant, bench_l1l2):
    result = sp.monte_carlo(bench_plant, {"l1l2": bench_l1l2.law},
                            BENCH_N, runs=100, T=100, seed=0,
                            keep_traces=True)
    return result


def test_criterion_1_wstar_identity():
    # P - Q from the Riccati recursion must equal the least-squares residual
    # weight H'(I - G G^+)H.  The projector is applied through a thin QR of
    # G (same operator; the explicit G pinv(G) product loses digits), and A
    # is drawn with spectral radius up to 1.8 -- comfortably unstable, but
    # not so wild that A^9 pushes cond(G) past what double precision can
    # certify at 1e-8.
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 11))
        plant = random_reachable_plant(rng, n, rho=float(rng.uniform(0.3, 1.8)))
        Q = random_spd(rng, n)
        P = sp.solve_dare(plant, Q, r=0.0).P
        hm = sp.build_horizon_matrices(plant, N, Q, P)
        Q1, _ = np.linalg.qr(hm.G)
        resid = hm.H - Q1 @ (Q1.T @ hm.H)
        wstar = resid.T @ resid
        defect = np.linalg.norm(wstar - (P - Q), "fro")
        worst = max(worst, defect / (1e-8 * (1.0 + np.linalg.norm(P, "fro"))))
    wall = time.perf_counter() - start
    ok = worst <= 1.0 and wall < 5.0
    report(1, ok, f"W* = P - Q on 50 random plants, worst defect at "
                  f"{worst:.3f} of the 1e-8 allowance ({wall:.2f}s < 5s)")


def test_criterion_2_dead_zone():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    zero_ok = nonzero_ok = 0
    draws = 200
    for trial in range(draws):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(2, 7))
        plant = random_reachable_plant(rng, n)
        hm = sp.build_horizon_matrices(plant, N, random_spd(rng, n),
                                       random_spd(rng, n))
        d = rng.standard_normal(n)
        mu = float(rng.uniform(0.2, 4.0))
        boundary = mu / (2.0 * float(np.max(np.abs(hm.G.T @ hm.H @ d))))
        inside = sp.fista_l1l2(hm, mu, 0.99 * boundary * d)
        zero_ok += bool(np.all(inside.u == 0.0))
        outside = sp.fista_l1l2(hm, mu, 1.01 * boundary * d)
        nonzero_ok += bool(np.any(outside.u != 0.0))
    wall = time.perf_counter() - start
    ok = zero_ok == draws and nonzero_ok == draws and wall < 10.0
    report(2, ok, f"exact zero inside the dead zone {zero_ok}/{draws}, "
                  f"nonzero at 1.01x the boundary {nonzero_ok}/{draws} "
                  f"({wall:.2f}s < 10s)")


def test_criterion_3_value_sandwich(bench_l1l2):
    rng = np.random.default_rng(2026)
    passed = 0
    draws = 1000
    for trial in range(draws):
        x = rng.standard_normal(4) * rng.uniform(0.05, 5.0)
        passed += sp.audit_value_sandwich(bench_l1l2, x).passed
    ok = passed == draws
    report(3, ok, f"lambda_min(Q)||x||^2 <= V(x) <= phi(||x||) held on "
                  f"{passed}/{draws} benchmark states")


def test_criterion_4_contraction_bounds(bench_l1l2, bench_l0):
    rng = np.random.default_rng(2027)
    draws = 1000
    passed_l1l2 = passed_l0 = 0
    for trial in range(draws):
        x = rng.standard_normal(4) * rng.uniform(0.1, 4.0)
        i = int(rng.integers(1, BENCH_N + 1))
        passed_l1l2 += sp.audit_contraction_l1l2(bench_l1l2, x, i).passed
        passed_l0 += sp.audit_contraction_l0(bench_l0, x, i).passed
    ok = passed_l1l2 == draws and passed_l0 == draws
    report(4, ok, f"dropout-burst contraction bounds held on "
                  f"{passed_l1l2}/{draws} l1-l2 draws and "
                  f"{passed_l0}/{draws} l0 draws")


def test_criterion_5_l0_asymptotic_stability(bench_l0, mc_omp):
    result, wall = mc_omp
    monotone_runs = 0
    for sim in result.traces["omp"]:
        ks = np.flatnonzero(~sim.dropped.d)
        v = np.einsum("ki,ij,kj->k", sim.states[ks], bench_l0.P,
                      sim.states[ks])
        monotone_runs += bool(
            np.all(v[1:] < v[:-1] + 1e-12 * (1.0 + v[:-1])))
    avg = result.avg_norm["omp"]
    decay = avg[99] / avg[0]
    ok = monotone_runs == result.runs and decay < 1e-3 and wall < 60.0
    report(5, ok, f"V_P strictly decreasing at receptions in "
                  f"{monotone_runs}/{result.runs} runs, "
                  f"avg ||x(99)||/||x(0)|| = {decay:.2e} < 1e-3 "
                  f"({wall:.1f}s < 60s)")


def test_criterion_6_l1l2_practical_stability(bench_l1l2, mc_l1l2):
    result = mc_l1l2
    R = bench_l1l2.R
    rho = bench_l1l2.rho
    lam_min_q = 1.0  # benchmark uses Q = I
    bounded_runs = 0
    burn_ins = []
    for sim in result.traces["l1l2"]:
        # Burn-in per the design bound: the transient term rho^j phi(||x0||)
        # (j receptions so far) must fall below (1e-6 R)^2 in value scale.
        n0 = float(sim.norms[0])
        phi0 = bench_l1l2.a1 * n0 + (bench_l1l2.a2 + 1.0) * n0 * n0
        receptions = np.cumsum(~sim.dropped.d)
        transient = np.sqrt(rho ** receptions * phi0 / lam_min_q)
        below = np.flatnonzero(transient < 1e-6 * R)
        burn_in = int(below[0]) + 1 if below.size else len(sim.norms)
        burn_ins.append(burn_in)
        # The formal window is empty at this rho within 100 steps, so check
        # the whole trajectory, which is strictly stronger.
        start = 0 if burn_in >= len(sim.norms) - 1 else burn_in
        bounded_runs += bool(np.all(sim.norms[start:] <= R))
    avg = result.avg_norm["l1l2"]
    plateau = float(np.mean(avg[80:100]))
    ok = bounded_runs == result.runs and plateau > 1e-4
    report(6, ok, f"||x(k)|| <= R = {R:.1f} at every step of "
                  f"{bounded_runs}/{result.runs} runs (stated burn-in "
                  f"{min(burn_ins)}+ steps, beyond the horizon), plateau "
                  f"mean(k=80..99) = {plateau:.3e} > 1e-4")


def test_criterion_7_sparsity_ordering(mc_omp, mc_l1l2):
    # At every step where packets were computed, the l1-l2 packets must on
    # average carry no more nonzeros than OMP's.  Sparsity is relative to
    # each packet's own largest entry, so OMP's converged tail, where
    # ||x|| ~ 1e-8, still counts its selected atoms.
    spars_l1 = mc_l1l2.avg_sparsity["l1l2"]
    spars_l0 = mc_omp[0].avg_sparsity["omp"]
    # Identical seeds give identical dropout patterns, so the NaN masks agree.
    assert np.array_equal(np.isnan(spars_l1), np.isnan(spars_l0))
    computed = np.flatnonzero(~np.isnan(spars_l1))
    gap = spars_l0[computed] - spars_l1[computed]
    bad = computed[gap < -1e-12]
    ok = bad.size == 0
    if ok:
        detail = (f"avg ||u||_0 of the l1-l2 packets <= OMP's at all "
                  f"{computed.size} computed steps "
                  f"(min OMP margin {gap.min():.3f})")
    else:
        k0 = int(bad[0])
        detail = (f"ordering fails at k={k0}: l1-l2 avg "
                  f"{spars_l1[k0]:.2f} > OMP avg {spars_l0[k0]:.2f} "
                  f"(OMP margin {spars_l0[k0] - spars_l1[k0]:.2f})")
    report(7, ok, detail)


def test_criterion_8_solver_oracles():
    rng = np.random.default_rng(2028)
    draws = 100
    l1l2_ok = omp_ok = feasible_ok = 0
    for trial in range(draws):
        hm2 = toy_hm(rng, n=1, N=2)
        x = rng.standard_normal(1) * rng.uniform(0.5, 3.0)
        mu = float(rng.uniform(0.1, 3.0))
        pkt = sp.fista_l1l2(hm2, mu, x)
        half = float(np.abs(sp.least_squares_packet(hm2, x).u).max()) + 1.0
        _, J_grid = grid_minimum(hm2, mu, x, half)
        J = l1l2_objective(hm2, mu, x, pkt.u[:, None])[0]
        l1l2_ok += bool(abs(J - J_grid) <= 1e-4 * (1.0 + abs(J_grid)))

        n = int(rng.integers(1, 4))
        hm4 = toy_hm(rng, n=n, N=4)
        W = sp.compute_wstar(hm4) + 0.5 * random_spd(rng, n, spread=0.2)
        y = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
        omp = sp.omp_l0(hm4, W, y)
        resid = hm4.G @ omp.u - hm4.H @ y
        feasible_ok += bool(float(resid @ resid) <= float(y @ W @ y) + 1e-12)
        omp_ok += bool(omp.iterations <= min_feasible_support(hm4, W, y) + 2)
    ok = l1l2_ok == draws and omp_ok == draws and feasible_ok == draws
    report(8, ok, f"l1l2 matched the grid oracle to 1e-4 on {l1l2_ok}/"
                  f"{draws} toys; OMP feasible on {feasible_ok}/{draws} and "
                  f"within +2 of the exhaustive optimum on {omp_ok}/{draws}")


def test_criterion_9_csv_determinism(tmp_path):
    args = ["montecarlo", "--config", "configs/benchmark.json",
            "--seed", "0", "--runs", "3"]
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    assert main(args + ["--out", str(tmp_path / "second")]) == 0
    same = True
    for fname in ("avg_norm.csv", "avg_sparsity.csv"):
        a = (tmp_path / "first" / fname).read_bytes()
        b = (tmp_path / "second" / fname).read_bytes()
        same = same and a == b
    rows = len((tmp_path / "first" / "avg_norm.csv").read_text().splitlines())
    header = (tmp_path / "first" / "avg_norm.csv").read_text().splitlines()[0]
    ok = same and rows == 101 and header == "k,L1L2(i),L1L2(ii),OMP,RIDGE,LS"
    report(9, ok, "repeated montecarlo runs with the same seed produced "
                  "byte-identical CSVs (100 rows, 5 controllers)")
