"""Packet laws against the per-state solvers they replaced, and the batched
closed loop against one run at a time.

The oracles below are the per-state packet functions as they were before
the laws existed: each call rebuilds ``G'G`` and ``G'Hx``, OMP refits with
``lstsq``, and the l1l2 homotopy is the same path fed from ``G'(Hx)``.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sparseppc as sp
from sparseppc import (DegeneracyError, DesignError, ParameterError,
                       SimulationRunError)
from sparseppc.cli import build_controller, load_config

ROOT = Path(__file__).resolve().parents[1]


def oracle_least_squares(hm, x):
    GtG = hm.G.T @ hm.G
    rhs = hm.G.T @ (hm.H @ x)
    cho = scipy.linalg.cho_factor(GtG)
    u = scipy.linalg.cho_solve(cho, rhs)
    return u + scipy.linalg.cho_solve(cho, rhs - GtG @ u)


def oracle_ridge(hm, r, x):
    M = hm.G.T @ hm.G + r * np.eye(hm.N)
    return np.linalg.solve(M, hm.G.T @ (hm.H @ x))


def oracle_omp(hm, W, x):
    """Greedy picks by ``|G' resid|`` with an ``lstsq`` refit per pick."""
    W = 0.5 * (W + W.T)
    bound = float(x @ (W @ x))
    Hx = hm.H @ x
    u = np.zeros(hm.N)
    resid = -Hx
    support = []
    while float(resid @ resid) > bound:
        corr = np.abs(hm.G.T @ resid)
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))
        cols = hm.G[:, support]
        coef, *_ = np.linalg.lstsq(cols, Hx, rcond=None)
        u = np.zeros(hm.N)
        u[support] = coef
        resid = cols @ coef - Hx
    return u, tuple(support)


def oracle_lasso(hm, mu, x):
    """The homotopy path from ``lam = ||G'(Hx)||_inf`` down to ``mu / 2``."""
    GtG = hm.G.T @ hm.G
    b = hm.G.T @ (hm.H @ x)
    target = 0.5 * mu
    u = np.zeros(hm.N)
    lam = float(np.max(np.abs(b)))
    if lam <= target:
        return u
    support = [int(np.argmax(np.abs(b)))]
    signs = np.sign(b[support])
    entered, left = True, None
    for _ in range(10 * hm.N - 1):
        cols = GtG[:, support]
        sol = np.linalg.solve(cols[support],
                              np.column_stack((b[support], signs)))
        d = sol[:, 1]
        u_S = sol[:, 0] - lam * d
        c = b - cols @ u_S
        a = cols @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a < 1.0, np.maximum(lam - c, 0.0) / (1.0 - a), np.inf)
            down = np.where(a > -1.0, np.maximum(lam + c, 0.0) / (1.0 + a),
                            np.inf)
            drop = np.where(signs * d < 0.0,
                            np.maximum(signs * u_S, 0.0) / np.abs(d), np.inf)
        if left is not None:
            (up if left[1] > 0.0 else down)[left[0]] = np.inf
        join = np.minimum(up, down)
        join[support] = np.inf
        if entered:
            drop[-1] = np.inf
        j, k = int(np.argmin(join)), int(np.argmin(drop))
        t = min(join[j], drop[k])
        if t >= lam - target:
            break
        lam -= t
        entered = join[j] <= drop[k]
        if entered:
            support.append(j)
            signs = np.append(signs, 1.0 if up[j] <= down[j] else -1.0)
            left = None
        else:
            left = (support.pop(k), signs[k])
            signs = np.delete(signs, k)
    u[support] = np.linalg.solve(GtG[np.ix_(support, support)],
                                 b[support] - target * signs)
    return u


@pytest.fixture(scope="module")
def bench_cfg():
    return load_config(ROOT / "configs" / "benchmark.json")


@pytest.fixture(scope="module")
def bench_laws(bench_cfg):
    """Controller name -> (family, law) for the five benchmark controllers."""
    return {spec["name"]: (spec["family"], build_controller(bench_cfg, spec).designer)
            for spec in bench_cfg.controllers}


@pytest.fixture(scope="module")
def bench_states():
    # Transient-scale states down to converged ones, dead zone included.
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((3000, 4))
    X *= (10.0 ** rng.uniform(-8.0, 3.0, 3000) / np.linalg.norm(X, axis=1))[:, None]
    return X


def oracle_packet(family, law, x):
    if family == "ls":
        return oracle_least_squares(law.hm, x)
    if family == "ridge":
        return oracle_ridge(law.hm, law.r, x)
    if family == "l0":
        return oracle_omp(law.hm, law.W, x)[0]
    return oracle_lasso(law.hm, law.mu, x)


@pytest.mark.parametrize("name", ["L1L2(i)", "L1L2(ii)", "OMP", "RIDGE", "LS"])
def test_law_matches_per_state_solver(bench_laws, bench_states, name):
    family, law = bench_laws[name]
    U = law.solve(bench_states)[0]
    sparsity = [sp.count_nonzero(u) for u in U]
    for x, u, s in zip(bench_states, U, sparsity):
        ref = oracle_packet(family, law, x)
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(u - ref)) <= 1e-10 * scale, x
        assert s == sp.count_nonzero(ref), x


def test_omp_law_picks_the_same_support_in_order(bench_laws, bench_states):
    _, law = bench_laws["OMP"]
    sizes = []
    for x in bench_states:
        pkt = law(x)
        ref_u, ref_support = oracle_omp(law.hm, law.W, x)
        assert pkt.certificate["support"] == ref_support, x
        assert pkt.iterations == len(ref_support)
        assert pkt.sparsity == sp.count_nonzero(ref_u)
        sizes.append(len(ref_support))
    # The states exercise short and long supports alike.
    assert min(sizes) <= 2 and max(sizes) >= 5


@pytest.mark.parametrize("name", ["L1L2(i)", "OMP", "RIDGE", "LS"])
def test_one_row_view_is_a_row_of_the_batch(bench_laws, bench_states, name):
    _, law = bench_laws[name]
    X = bench_states[::30]
    U = law.solve(X)[0]
    sparsity = [sp.count_nonzero(u) for u in U]
    for x, u, s in zip(X, U, sparsity):
        pkt = law(x)
        np.testing.assert_array_equal(pkt.u, u)
        assert pkt.sparsity == s


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda d: sp.LinearLaw(d.hm, NAN),
    lambda d: sp.LinearLaw(d.hm, INF),
    lambda d: sp.ridge_packet(d.hm, NAN, np.ones(4)),
    lambda d: sp.ridge_packet(d.hm, INF, np.ones(4)),
    lambda d: sp.LassoLaw(d.hm, NAN),
    lambda d: sp.LassoLaw(d.hm, INF),
    lambda d: sp.omega_contains(d.hm, NAN, np.ones(4)),
    lambda d: sp.solve_dare(d.plant, np.eye(4), NAN),
    lambda d: sp.solve_dare(d.plant, np.eye(4), INF),
    lambda d: sp.design_l1l2(d.plant, np.eye(4), NAN, 10, 1.0),
    lambda d: sp.design_l1l2(d.plant, np.eye(4), 1.0, 10, NAN),
    lambda d: sp.OmpLaw(d.hm, np.full((4, 4), NAN)),
    lambda d: sp.design_l0(d.plant, np.eye(4), 10, 0.5,
                           W=np.full((4, 4), INF)),
], ids=["LinearLaw-r-nan", "LinearLaw-r-inf", "ridge_packet-r-nan",
        "ridge_packet-r-inf", "LassoLaw-mu-nan", "LassoLaw-mu-inf",
        "omega_contains-mu-nan", "solve_dare-r-nan", "solve_dare-r-inf",
        "design_l1l2-mu-nan", "design_l1l2-epsilon-nan", "OmpLaw-W-nan",
        "design_l0-W-inf"])
def test_non_finite_parameter_is_a_parameter_error(bench_l1l2, call):
    # Each used to return NaN or zero packets, False, or a SolverError
    # after the full Riccati iteration budget.
    with pytest.raises(ParameterError):
        call(bench_l1l2)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("name", ["L1L2(i)", "OMP", "RIDGE", "LS"])
def test_non_finite_state_is_a_parameter_error(bench_laws, bench_states,
                                               name, bad):
    # Before, OMP certified the zero packet feasible with a NaN slack, the
    # l1l2 law returned the zero packet and the linear laws a NaN packet.
    _, law = bench_laws[name]
    X = bench_states[:3].copy()
    X[1, 2] = bad
    with pytest.raises(ParameterError, match="row 1"):
        law.solve(X)
    with pytest.raises(ParameterError):
        law(X[1])


@pytest.mark.parametrize("name", ["L1L2(i)", "OMP", "RIDGE", "LS"])
def test_complex_state_is_a_parameter_error(bench_laws, name):
    _, law = bench_laws[name]
    with pytest.raises(ParameterError, match="real numbers"):
        law.solve(np.ones((2, 4), dtype=complex))


@pytest.mark.parametrize("name, family", [
    ("L1L2(i)", "l1l2"), ("OMP", "l0"), ("RIDGE", "ridge"), ("LS", "ls")])
def test_laws_and_packets_name_their_config_family(bench_laws, name, family):
    spec_family, law = bench_laws[name]
    assert law.family == spec_family == family
    assert law(np.ones(4)).family == family


def test_omp_singular_support_is_a_degeneracy_error():
    # The second column of G is zero: once the first is used up the only
    # pick left makes G'G on the support singular.
    G = np.array([[1.0, 0.0], [0.0, 0.0]])
    hm = sp.HorizonMatrices(N=2, G=G, H=np.array([[1.0], [1.0]]), Phi=G,
                            Upsilon=np.zeros((2, 1)))
    with pytest.raises(DegeneracyError):
        sp.omp_l0(hm, np.array([[0.25]]), np.array([1.0]))
    with pytest.raises(DegeneracyError):
        sp.OmpLaw(hm, np.array([[0.25]])).solve(np.array([[1.0], [2.0]]))


def test_omp_law_rejects_an_infeasible_weight(bench_l0):
    law = sp.OmpLaw(bench_l0.hm, 1e-9 * np.eye(4))
    with pytest.raises(DesignError):
        law.solve(np.ones((3, 4)))


# ---------------------------------------------------------------------------
# Batched closed loop


@pytest.mark.parametrize("name", ["L1L2(i)", "OMP", "RIDGE", "LS"])
def test_monte_carlo_run_equals_its_one_run_rollout(bench_cfg, bench_laws, name):
    designer = bench_laws[name][1]
    N, T, seed = bench_cfg.horizon, 60, 7
    X0, D = sp.netsim._conditions(bench_cfg.plant, N, T, seed, np.arange(40), 1)
    states, inputs, sparsity, norms, (failure,) = sp.netsim._rollout(
        bench_cfg.plant, (designer,), X0, D)
    assert failure is None
    for k in range(40):
        x0, trace = sp.run_conditions(bench_cfg.plant, N, T, seed, k)
        alone = sp.run_closed_loop(bench_cfg.plant, designer, trace, x0, T)
        np.testing.assert_array_equal(states[k], alone.states)
        np.testing.assert_array_equal(inputs[k], alone.inputs)
        np.testing.assert_array_equal(sparsity[k], alone.sparsity)
        np.testing.assert_array_equal(norms[k], alone.norms)


def test_a_study_averages_the_same_with_or_without_traces(bench_cfg,
                                                          bench_laws):
    laws = {name: law for name, (_, law) in bench_laws.items()}
    N, T, runs, seed = bench_cfg.horizon, 100, 60, 3
    bare = sp.monte_carlo(bench_cfg.plant, laws, N, runs=runs, T=T, seed=seed)
    conditions = [sp.run_conditions(bench_cfg.plant, N, T, seed, k)
                  for k in range(runs)]
    for name, law in laws.items():
        # Each run replayed on its own, with its states.
        kept = [sp.run_closed_loop(bench_cfg.plant, law, trace, x0, T)
                for x0, trace in conditions]
        norms = np.array([run.norms for run in kept])
        np.testing.assert_array_equal(bare.avg_norm[name],
                                      norms[:, :T].mean(axis=0))
        sparsity = np.array([run.sparsity for run in kept])
        # NaN at the steps where no run computes a packet, as 0 / 0.
        with np.errstate(invalid="ignore"):
            mean = (np.nansum(sparsity, axis=0)
                    / np.sum(~np.isnan(sparsity), axis=0))
        np.testing.assert_array_equal(bare.avg_sparsity[name], mean)


def test_failure_is_pinned_on_the_earliest_step_then_lowest_run(bench_cfg,
                                                                 bench_laws):
    plant, N, T, seed = bench_cfg.plant, bench_cfg.horizon, 30, 4
    law = bench_laws["LS"][1]

    def state_at(run, nth_reception):
        x0, trace = sp.run_conditions(plant, N, T, seed, run)
        sim = sp.run_closed_loop(plant, law, trace, x0, T)
        k = np.flatnonzero(~trace.d)[nth_reception]
        return k, sim.states[k]

    k2, bad2 = state_at(2, 1)
    k1, bad1 = state_at(1, -1)
    assert 0 < k2 < k1

    class Fussy:
        """The LS law, refusing a batch that holds either chosen state."""

        def solve(self, X):
            for x in X:
                if np.array_equal(x, bad2) or np.array_equal(x, bad1):
                    raise DesignError("refused state")
            return law.solve(X)

    fussy = Fussy()

    # Run 1 fails too, but later: the earliest failing step decides.
    with pytest.raises(SimulationRunError) as err:
        sp.monte_carlo(plant, {"fussy": fussy}, N, runs=5, T=T, seed=seed)
    assert err.value.run_index == 2
    assert err.value.seed == seed
    assert isinstance(err.value.cause, DesignError)
    assert "spawn key (2,)" in str(err.value)

    x0, trace = sp.run_conditions(plant, N, T, seed, 2)
    with pytest.raises(DesignError):
        sp.run_closed_loop(plant, fussy, trace, x0, T)


# ---------------------------------------------------------------------------
# The l1l2 region cache


def lasso_states(law, count, seed):
    """States with ``||x||`` log-uniform in [1e-8, 1e3], a tenth of them
    inside the dead zone and a tenth within 1e-9 relative of its edge."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((count, law.hm.H.shape[1]))
    X /= np.linalg.norm(X, axis=1)[:, None]
    # The dead zone ends where ||G'H x||_inf reaches mu / 2.
    edge = 0.5 * law.mu / np.abs(X @ law.hm.GtH.T).max(axis=1)
    scale = 10.0 ** rng.uniform(-8.0, 3.0, count)
    tenth = count // 10
    scale[:tenth] = edge[:tenth] * rng.uniform(0.0, 1.0, tenth)
    scale[tenth:2 * tenth] = edge[tenth:2 * tenth] * (
        1.0 + rng.uniform(-1e-9, 1e-9, tenth))
    return X * scale[:, None]


def solve_rows(hm, mu, X):
    """Each row solved by a fresh law, stacked like one batched call."""
    parts = [sp.LassoLaw(hm, mu).solve(x[None]) for x in X]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            {k: np.concatenate([p[2][k] for p in parts]) for k in parts[0][2]})


def assert_same_packets(solved, ref):
    """Same packets, sparsity and route-free certificate, all converged."""
    U, _, cert = solved
    U_ref, _, cert_ref = ref
    np.testing.assert_array_equal(U, U_ref)
    np.testing.assert_array_equal(sp.solvers._row_nonzeros(U),
                                  sp.solvers._row_nonzeros(U_ref))
    for key in ("kkt_residual", "converged"):
        np.testing.assert_array_equal(cert[key], cert_ref[key])
    assert cert["converged"].all()


def fresh_lasso(bench_laws, name):
    law = bench_laws[name][1]
    return sp.LassoLaw(law.hm, law.mu)


@pytest.mark.parametrize("name", ["L1L2(i)", "L1L2(ii)"])
def test_lasso_packets_do_not_depend_on_the_cache(bench_laws, name):
    cold, warm = fresh_lasso(bench_laws, name), fresh_lasso(bench_laws, name)
    warm.solve(lasso_states(warm, 2000, 7))
    X = lasso_states(cold, 3000, 8)
    ref = cold.solve(X)
    solved = warm.solve(X)
    assert_same_packets(solved, ref)
    # Rows 300-599 sit at the dead-zone edge, where a packet entry is within
    # the test's margin of zero, so most of them walk.  The warm law answers
    # almost every later row from its cache; a hit walks no breakpoint.
    _, steps, cert = solved
    assert cert["path_walked"][600:].sum() < 0.03 * 2400
    assert (steps[~cert["path_walked"]] == 0).all()
    assert (steps[cert["path_walked"]] > 0).all()
    # A fresh law per row walks the path for every active row.
    rows = slice(200, 800)
    alone = solve_rows(cold.hm, cold.mu, X[rows])
    assert_same_packets(alone, (ref[0][rows], ref[1][rows],
                                {k: v[rows] for k, v in ref[2].items()}))
    active = alone[0].any(axis=1)
    assert active.sum() > 200
    assert (alone[2]["path_walked"] == active).all()


def omega_edge_states(law, count, seed):
    """States on both sides of the dead-zone edge that ``omega_contains``
    draws: along ``count`` random directions, the scale is bisected until
    the last state it accepts and the first it rejects are adjacent floats.
    """
    rng = np.random.default_rng(seed)
    inside, outside = [], []
    for d in rng.standard_normal((count, law.hm.H.shape[1])):
        edge = 0.5 * law.mu / np.abs(law.hm.GtH @ d).max()
        lo, hi = 0.5 * edge, 2.0 * edge
        assert sp.omega_contains(law.hm, law.mu, lo * d)
        assert not sp.omega_contains(law.hm, law.mu, hi * d)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if sp.omega_contains(law.hm, law.mu, mid * d):
                lo = mid
            else:
                hi = mid
        inside.append(lo * d)
        outside.append(hi * d)
    return np.array(inside), np.array(outside)


@pytest.mark.parametrize("name", ["L1L2(i)", "L1L2(ii)"])
def test_omega_contains_is_the_laws_dead_zone(bench_laws, name):
    law = fresh_lasso(bench_laws, name)
    inside, outside = omega_edge_states(law, 200, 31)
    # Every accepted state gets the exact zero packet without a walk ...
    U, steps, cert = law.solve(inside)
    assert (U == 0.0).all()
    assert not cert["path_walked"].any() and (steps == 0).all()
    # ... and every rejected one walks the path on a fresh law.
    _, steps, cert = solve_rows(law.hm, law.mu, outside)
    assert cert["path_walked"].all() and (steps > 0).all()


def region_of(law, x):
    """The sorted (support, signs) the homotopy reaches at ``x``; () in the
    dead zone."""
    b = law.hm.GtH @ x
    if np.abs(b).max() <= 0.5 * law.mu:
        return ()
    (signs,), _ = sp.solvers._lasso_path(law.hm.GtG, b[None],
                                         np.array([0.5 * law.mu]),
                                         10 * law.hm.N)
    return tuple((j, signs[j]) for j in np.flatnonzero(signs))


def boundary_states(law, count, seed):
    """``count`` states from pairs in two regions, bisected onto the
    boundary between them: there a packet entry or a correlation's slack is
    within rounding of zero."""
    rng = np.random.default_rng(seed)
    X = []
    while len(X) < count:
        xa, xb = rng.standard_normal((2, 4)) * 10.0 ** rng.uniform(-3.0, 1.0)
        ra, rb = region_of(law, xa), region_of(law, xb)
        if ra == rb or () in (ra, rb):
            continue
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if region_of(law, xa + mid * (xb - xa)) == ra:
                lo = mid
            else:
                hi = mid
        X += [xa + lo * (xb - xa), xa + hi * (xb - xa)]
    return np.array(X)


@pytest.mark.parametrize("name", ["L1L2(i)", "L1L2(ii)"])
def test_lasso_packets_at_region_boundaries_do_not_depend_on_the_cache(
        bench_laws, name):
    # At a region boundary only a margin in the cached-region test keeps a
    # hit on the region the path reaches.
    law = fresh_lasso(bench_laws, name)
    X = boundary_states(law, 200, 11)
    law.solve(X[::-1])
    assert_same_packets(law.solve(X), solve_rows(law.hm, law.mu, X))


def test_a_state_in_two_cached_regions_walks_the_path(bench_laws):
    law = fresh_lasso(bench_laws, "L1L2(ii)")
    x = lasso_states(law, 100, 9)[50]
    first = law(x)
    assert first.certificate["path_walked"] and first.sparsity > 0
    assert not law(x).certificate["path_walked"]
    # Cache a second copy of the state's region: the state now passes two
    # regions, which is no unique answer, so it walks again.
    (r,) = law._keys.values()
    law._cache = tuple(np.concatenate((a, a[r:r + 1])) for a in law._cache)
    law._keys["copy"] = 1
    again = law(x)
    assert again.certificate["path_walked"]
    assert again.iterations == first.iterations
    np.testing.assert_array_equal(again.u, first.u)
    assert again.certificate == first.certificate


def test_a_full_region_cache_gives_the_same_packets(bench_laws):
    law = fresh_lasso(bench_laws, "L1L2(i)")
    rng = np.random.default_rng(10)
    while len(law._keys) < law.REGIONS:
        law._learn(random_signs(rng, law.hm.N, rng.integers(1, law.hm.N + 1),
                                1))
    keys = dict(law._keys)
    X = lasso_states(law, 3000, 8)
    solved = law.solve(X)
    assert law._keys == keys
    assert_same_packets(solved, fresh_lasso(bench_laws, "L1L2(i)").solve(X))


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("name", ["L1L2(i)", "L1L2(ii)"])
def test_a_matched_row_is_in_the_region_the_path_reaches(bench_laws, name,
                                                          full):
    # The region test checks each cached region's own KKT conditions; the
    # oracle is the homotopy, which knows nothing of the cache.
    law = fresh_lasso(bench_laws, name)
    law.solve(lasso_states(law, 2000, 7))
    rng = np.random.default_rng(16)
    while full and len(law._keys) < law.REGIONS:
        law._learn(random_signs(rng, law.hm.N, rng.integers(1, law.hm.N + 1),
                                1))
    X = np.vstack((lasso_states(law, 2000, 8), boundary_states(law, 100, 17)))
    B = sp.plant.row_matmul(X, law.hm.GtH)
    bmax = np.abs(B).max(axis=1)
    B, bmax = B[bmax > 0.5 * law.mu], bmax[bmax > 0.5 * law.mu]
    slot = law._match(B, bmax)
    hit = slot >= 0
    assert hit.sum() > 0.7 * len(B)
    signs, _ = sp.solvers._lasso_path(law.hm.GtG, B[hit],
                                      np.full(hit.sum(), 0.5 * law.mu),
                                      10 * law.hm.N)
    np.testing.assert_array_equal(law._cache[0][slot[hit]], signs)


@pytest.mark.parametrize("name, walks", [("L1L2(i)", 12), ("L1L2(ii)", 21)])
def test_monte_carlo_walks_each_region_about_once(bench_cfg, monkeypatch,
                                                  name, walks):
    # 100 runs at seed 0 make about 1,730 active receptions per controller.
    # Each count is of _lasso_path calls, one per law call with a miss,
    # whose rows walk in lockstep: 2 for both controllers, from 140 and 124
    # rows.  The bounds are the walks of the one-row-at-a-time path, each
    # of which found a new region; the counts were measured and repeat
    # exactly.
    count = []

    def counting(*args):
        count.append(1)
        return path(*args)

    path = sp.solvers._lasso_path
    monkeypatch.setattr(sp.solvers, "_lasso_path", counting)
    spec = next(s for s in bench_cfg.controllers if s["name"] == name)
    law = build_controller(bench_cfg, spec).designer
    sp.monte_carlo(bench_cfg.plant, {name: law}, bench_cfg.horizon, runs=100,
                   T=100, seed=0)
    assert len(count) <= walks + 3


# ---------------------------------------------------------------------------
# Lockstep walks and stacked region builds


def random_signs(rng, N, size, count):
    """``count`` sign rows with ``size`` random nonzero entries each."""
    signs = np.zeros((count, N))
    for row in signs:
        row[rng.choice(N, size, replace=False)] = rng.choice([-1.0, 1.0], size)
    return signs


def one_region(law, signs):
    """The signs, ``K``, ``off`` and ``||K||_inf`` of the region with these
    signs, built on its own the way the law built one region at a time
    before it built them stacked."""
    GtG, N, lam = law.hm.GtG, law.hm.N, 0.5 * law.mu
    S = np.flatnonzero(signs)
    sub = np.ix_(S, S)
    K = np.zeros((N, N))
    K[sub] = np.linalg.solve(GtG[sub], np.eye(len(S)))
    sign = np.zeros(N)
    sign[S] = signs[S]
    return sign, K, -(lam * (K @ sign)), np.abs(K).sum(axis=1).max()


@pytest.mark.parametrize("name", ["L1L2(i)", "L1L2(ii)"])
def test_lockstep_walk_matches_one_row_walks(bench_laws, name):
    law = fresh_lasso(bench_laws, name)
    hm, target = law.hm, 0.5 * law.mu
    X = np.vstack((lasso_states(law, 400, 13), boundary_states(law, 40, 14)))
    B = X @ hm.GtH.T
    inside = np.abs(B).max(axis=1) > target
    B, X, edge = B[inside], X[inside], np.arange(len(X))[inside] >= 400
    for cap in (10 * hm.N, 3):
        signs, steps = sp.solvers._lasso_path(hm.GtG, B,
                                              np.full(len(B), target), cap)
        assert ((1 <= steps) & (steps <= cap)).all()
        for b, s, k in zip(B, signs, steps):
            (s_alone,), (k_alone,) = sp.solvers._lasso_path(
                hm.GtG, b[None], np.array([target]), cap)
            assert s_alone.tobytes() == s.tobytes()
            assert k_alone == k
        if cap == 3:
            # Some rows stop at the cap, some before it.
            assert (steps == cap).any() and (steps < cap).any()
            continue
        assert (steps < cap).all() and steps.max() >= 4
        assert np.isin(signs, (-1.0, 0.0, 1.0)).all()
        for x, s, at_edge in zip(X, signs, edge):
            ref = oracle_lasso(hm, law.mu, x)
            differ = np.sign(ref) != s
            # On a region boundary an entry of the optimum is within
            # rounding of zero, and either side is the same packet.
            tiny = np.abs(ref) <= 1e-9 * np.abs(ref).max()
            assert not differ.any() or at_edge and tiny[differ].all(), x


def test_stacked_region_build_keeps_each_regions_bits(bench_laws):
    law = fresh_lasso(bench_laws, "L1L2(ii)")
    N = law.hm.N
    rng = np.random.default_rng(12)
    signs = np.vstack([random_signs(rng, N, size, 3) for size in range(1, N + 1)])
    signs = signs[rng.permutation(len(signs))]
    built = law._regions(signs)
    for r, row in enumerate(signs):
        alone = law._regions(signs[r:r + 1])
        for stacked, single, ref in zip(built, alone, one_region(law, row)):
            assert stacked[r].tobytes() == ref.tobytes()
            assert single[0].tobytes() == ref.tobytes()


def test_new_regions_are_cached_in_order_of_first_appearance(bench_laws):
    law = fresh_lasso(bench_laws, "L1L2(i)")
    N, room = law.hm.N, law.REGIONS
    rng = np.random.default_rng(15)
    pool = np.unique(np.vstack([random_signs(rng, N, size, 30)
                                for size in range(1, N + 1)]), axis=0)
    pool = pool[rng.permutation(len(pool))][:room + 40]
    # A first call caches ten regions.  The second repeats some of them and
    # reaches more new regions, of every support size, than the cache has
    # room for.
    law._learn(pool[:10])
    order = rng.integers(0, len(pool), 600)
    slots, table = law._learn(pool[order])
    first = list(range(10)) + [i for i in dict.fromkeys(order.tolist())
                               if i >= 10]
    assert len(first) > room
    np.testing.assert_array_equal(slots, [first.index(i) for i in order])
    np.testing.assert_array_equal(law._cache[0], pool[first[:room]])
    np.testing.assert_array_equal(table[0], pool[first])
    # Each region, kept or not, has the bits of its own build.
    for slot, i in enumerate(first):
        ref = one_region(law, pool[i])
        kept = law._cache if slot < room else ()
        for got, want in zip(kept, ref):
            assert got[slot].tobytes() == want.tobytes()
        for got, want in zip(table, ref):
            assert got[slot].tobytes() == want.tobytes()


def test_region_test_chunks_stay_below_the_blas_threading_threshold(
        bench_plant, monkeypatch):
    # At N = 20 a region-test chunk sized by elements alone reaches 2^18
    # multiply-adds, where OpenBLAS hands the GEMM to threads.
    N = 20
    plant = sp.PlantModel(A=0.5 * np.asarray(bench_plant.A), B=bench_plant.B)
    law = sp.LassoLaw(sp.build_horizon_matrices(plant, N, np.eye(4),
                                                np.eye(4)), 1.0)
    rng = np.random.default_rng(21)
    while len(law._keys) < law.REGIONS:
        law._learn(random_signs(rng, N, rng.integers(1, 4), 1))
    gemms = []

    class Recording(np.ndarray):
        # Records the (rows, inner, columns) of each 2-D matmul it enters.
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [np.asarray(a) for a in inputs]
            if ufunc is np.matmul and all(a.ndim == 2 for a in inputs):
                gemms.append(inputs[0].shape + inputs[1].shape[1:])
            return getattr(ufunc, method)(*inputs, **kwargs)

    # The two GEMMs of the region test: the packets, by the cached K, and
    # the correlations, by G'G.
    signs, K, off, scale = law._cache
    law._cache = signs, K.view(Recording), off, scale
    monkeypatch.setitem(law.hm.__dict__, "GtG", law.hm.GtG.view(Recording))
    law.solve(rng.standard_normal((200, 4)))
    # Two GEMMs per chunk, over more than one chunk.
    assert len(gemms) % 2 == 0 and len(gemms) > 2
    for shape in gemms:
        assert np.prod(shape) < 1 << 18, shape


# ---------------------------------------------------------------------------
# One packet call per round for the lasso laws on one regulator


def fresh_laws(bench_cfg, names):
    """Freshly designed laws of the named benchmark controllers, with empty
    region caches; the two l1l2 controllers share one ``hm`` object."""
    specs = {spec["name"]: spec for spec in bench_cfg.controllers}
    return {name: build_controller(bench_cfg, specs[name]).designer
            for name in names}


def test_the_lasso_laws_on_one_regulator_form_one_call_group(bench_cfg):
    laws = fresh_laws(bench_cfg, ["L1L2(i)", "OMP", "L1L2(ii)", "RIDGE", "LS"])
    assert sp.solvers.call_groups(list(laws.values())) == [[0, 2], [1], [3],
                                                           [4]]
    # A lasso law on another regulator, a linear law given twice and a
    # duck-typed law stand alone; one lasso law given twice is a group of two.
    other = sp.LassoLaw(laws["OMP"].hm, 3.3)

    class Duck:
        hm = laws["L1L2(i)"].hm

        def solve(self, X):
            return laws["L1L2(i)"].solve(X)

    assert sp.solvers.call_groups([laws["L1L2(i)"], other, laws["LS"],
                                   laws["LS"], Duck()]) == [[0], [1], [2],
                                                            [3], [4]]
    assert sp.solvers.call_groups([laws["L1L2(ii)"]] * 2) == [[0, 1]]


@pytest.mark.parametrize("names", [("L1L2(i)", "OMP", "L1L2(ii)"),
                                   ("L1L2(ii)", "L1L2(i)")])
def test_a_joint_study_equals_each_designer_studied_alone(bench_cfg, names):
    N, T, runs, seed = bench_cfg.horizon, 100, 60, 3
    joint = sp.monte_carlo(bench_cfg.plant, fresh_laws(bench_cfg, names), N,
                           runs=runs, T=T, seed=seed)
    assert list(joint.avg_norm) == list(joint.avg_sparsity) == list(names)
    for name in names:
        alone = sp.monte_carlo(bench_cfg.plant, fresh_laws(bench_cfg, [name]),
                               N, runs=runs, T=T, seed=seed)
        assert joint.avg_norm[name].tobytes() == alone.avg_norm[name].tobytes()
        assert (joint.avg_sparsity[name].tobytes()
                == alone.avg_sparsity[name].tobytes())


def test_one_law_under_two_names_equals_that_law_alone(bench_cfg):
    N, T, runs, seed = bench_cfg.horizon, 100, 40, 5
    law = fresh_laws(bench_cfg, ["L1L2(ii)"])["L1L2(ii)"]
    twice = sp.monte_carlo(bench_cfg.plant, {"a": law, "b": law}, N,
                           runs=runs, T=T, seed=seed)
    alone = sp.monte_carlo(bench_cfg.plant, fresh_laws(bench_cfg, ["L1L2(ii)"]),
                           N, runs=runs, T=T, seed=seed)
    for name in ("a", "b"):
        assert (twice.avg_norm[name].tobytes()
                == alone.avg_norm["L1L2(ii)"].tobytes())
        assert (twice.avg_sparsity[name].tobytes()
                == alone.avg_sparsity["L1L2(ii)"].tobytes())


def test_run_closed_loop_replays_a_run_of_the_joint_rollout(bench_cfg):
    laws = list(fresh_laws(bench_cfg, ["L1L2(i)", "L1L2(ii)"]).values())
    N, T, runs, seed = bench_cfg.horizon, 60, 30, 7
    X0, D = sp.netsim._conditions(bench_cfg.plant, N, T, seed,
                                  np.arange(runs), 1)
    *joint, failures = sp.netsim._rollout(bench_cfg.plant, laws, X0, D)
    assert failures == [None, None]
    for i, law in enumerate(laws):
        for k in range(runs):
            x0, trace = sp.run_conditions(bench_cfg.plant, N, T, seed, k)
            sim = sp.run_closed_loop(bench_cfg.plant, law, trace, x0, T)
            for got, field in zip(joint, ("states", "inputs", "sparsity",
                                          "norms")):
                assert (got[i * runs + k].tobytes()
                        == getattr(sim, field).tobytes()), (i, k, field)


def test_a_joint_call_gives_each_row_its_own_laws_bits(bench_laws):
    laws = [fresh_lasso(bench_laws, name) for name in ("L1L2(i)", "L1L2(ii)")]
    X = np.vstack([lasso_states(law, 600, 30 + i) for i, law in enumerate(laws)])
    owner = np.random.default_rng(31).integers(0, 2, len(X))
    U, steps, cert = sp.solvers.solve_group(laws, X, owner)
    for i, name in enumerate(("L1L2(i)", "L1L2(ii)")):
        mine, alone = owner == i, fresh_lasso(bench_laws, name)
        ref = alone.solve(X[mine])
        assert U[mine].tobytes() == ref[0].tobytes()
        assert steps[mine].tobytes() == ref[1].tobytes()
        for key, value in ref[2].items():
            assert cert[key][mine].tobytes() == value.tobytes(), key
        # Each law learnt the regions of its own rows, in the same slots.
        assert list(laws[i]._keys.items()) == list(alone._keys.items())


def test_a_joint_call_may_leave_a_law_without_rows(bench_laws):
    laws = [fresh_lasso(bench_laws, name) for name in ("L1L2(i)", "L1L2(ii)")]
    untouched = laws[0]._keys, laws[0]._cache
    alone = fresh_lasso(bench_laws, "L1L2(ii)")
    X = lasso_states(alone, 400, 35)
    U, steps, cert = sp.solvers.solve_group(laws, X, np.ones(len(X), int))
    ref = alone.solve(X)
    assert U.tobytes() == ref[0].tobytes()
    assert steps.tobytes() == ref[1].tobytes()
    for key, value in ref[2].items():
        assert cert[key].tobytes() == value.tobytes(), key
    # Law 0 had no rows: it neither tested, walked nor learnt.
    assert laws[0]._keys is untouched[0] and laws[0]._cache is untouched[1]
    assert list(laws[1]._keys.items()) == list(alone._keys.items())


@pytest.mark.parametrize("owner", [[0, -1, 1], [0, 2, 1], [0, 1],
                                   [0.0, 1.0, 1.0], [[0, 1, 1]]])
def test_a_joint_call_refuses_a_row_without_its_law(bench_laws, owner):
    # Each row needs a law: a negative index would pick a mu from the end
    # of ``laws`` and no law's packet.
    laws = [fresh_lasso(bench_laws, name) for name in ("L1L2(i)", "L1L2(ii)")]
    X = lasso_states(laws[0], 3, 36)
    with pytest.raises(sp.ParameterError, match="owner must hold one index "
                       "below 2 per row of X"):
        sp.solvers.solve_group(laws, X, owner)


def test_a_row_left_without_a_region_raises(bench_laws):
    # A learning step that leaves its rows without a slot must not hand
    # them a clamped region's packet.
    law = fresh_lasso(bench_laws, "L1L2(ii)")
    learn = law._learn

    def _learn(signs):
        slots, table = learn(signs)
        return np.full_like(slots, -1), table

    law._learn = _learn
    with pytest.raises(IndexError, match="has no region"):
        law.solve(lasso_states(law, 20, 50))


@pytest.mark.parametrize("cap", [100, 3])
def test_per_row_targets_walk_each_row_as_its_scalar_walk(bench_laws, cap):
    laws = [fresh_lasso(bench_laws, name) for name in ("L1L2(i)", "L1L2(ii)")]
    hm = laws[0].hm
    X = np.vstack([lasso_states(law, 300, 40 + i) for i, law in enumerate(laws)])
    target = 0.5 * np.where(np.arange(len(X)) % 3 == 0, laws[0].mu, laws[1].mu)
    B = X @ hm.GtH.T
    inside = np.abs(B).max(axis=1) > target
    B, target = B[inside], target[inside]
    signs, steps = sp.solvers._lasso_path(hm.GtG, B, target, cap)
    assert len(set(target)) == 2
    for b, t, s, k in zip(B, target, signs, steps):
        (s_alone,), (k_alone,) = sp.solvers._lasso_path(hm.GtG, b[None],
                                                        np.array([t]), cap)
        assert s_alone.tobytes() == s.tobytes()
        assert k_alone == k
    if cap == 3:
        assert (steps == cap).any() and (steps < cap).any()


def refusing(law, refused):
    """``law`` with a cache test that raises DesignError on a row whose
    ``G'Hx`` is one of the ``refused`` rows, bit for bit."""
    match = law._match

    def _match(B, bmax):
        if any((B == row).all(axis=1).any() for row in refused):
            raise DesignError(f"state refused by the law with mu {law.mu}")
        return match(B, bmax)

    law._match = _match
    return law


def test_a_joint_study_raises_for_the_first_failing_designer(bench_cfg):
    # The first designer refuses one run's state late, the second another
    # run's state early: the study still raises for the first, at its step.
    N, T, runs, seed = bench_cfg.horizon, 100, 20, 11
    plant = bench_cfg.plant
    names = ("L1L2(ii)", "L1L2(i)")
    refused_at = {}
    for name, (k, late) in zip(names, ((13, True), (4, False))):
        law = fresh_laws(bench_cfg, [name])[name]
        x0, trace = sp.run_conditions(plant, N, T, seed, k)
        sim = sp.run_closed_loop(plant, law, trace, x0, T)
        b = sim.states[:T] @ law.hm.GtH.T
        # The receptions outside the dead zone, where the cache is tested.
        steps = np.flatnonzero(~trace.d[:T]
                               & (np.abs(b).max(axis=1) > 0.5 * law.mu))
        step = steps[-1] if late else steps[1]
        refused_at[name] = (k, step, sp.plant.row_matmul(
            sim.states[step][None], law.hm.GtH)[0])
    assert refused_at[names[1]][1] < refused_at[names[0]][1]

    def study(chosen):
        laws = fresh_laws(bench_cfg, chosen)
        assert sp.solvers.call_groups(list(laws.values())) == [
            list(range(len(chosen)))]
        for name, law in laws.items():
            refusing(law, [refused_at[name][2]])
        with pytest.raises(SimulationRunError) as err:
            sp.monte_carlo(plant, laws, N, runs=runs, T=T, seed=seed)
        return err.value

    for name in names:
        alone = study([name])
        assert alone.run_index == refused_at[name][0]
    joint, first = study(names), study(names[:1])
    assert joint.run_index == first.run_index == refused_at[names[0]][0]
    assert str(joint.cause) == str(first.cause)
    assert f"mu {bench_cfg.controllers[1]['mu']}" in str(joint.cause)


def test_a_group_makes_one_packet_call_per_reception_round(bench_cfg,
                                                           monkeypatch):
    N, T, runs, seed = bench_cfg.horizon, 100, 10, 0
    calls = {"solve_group": [], "_replay": [], "_match": []}
    for module, name in ((sp.netsim, "solve_group"), (sp.netsim, "_replay")):
        def counting(*args, _orig=getattr(module, name), _name=name):
            calls[_name].append(len(args[1]))
            return _orig(*args)
        monkeypatch.setattr(module, name, counting)
    match = sp.LassoLaw._match

    def counting_match(self, B, bmax):
        calls["_match"].append(len(B))
        return match(self, B, bmax)

    monkeypatch.setattr(sp.LassoLaw, "_match", counting_match)
    _, D = sp.netsim._conditions(bench_cfg.plant, N, T, seed,
                                 np.arange(runs), 1)
    rounds = len(sp.netsim._schedule(D)[3]) - 1
    names = ("L1L2(i)", "L1L2(ii)")
    sp.monte_carlo(bench_cfg.plant, fresh_laws(bench_cfg, names), N,
                   runs=runs, T=T, seed=seed)
    receptions = int((~D).sum())
    assert len(calls["solve_group"]) == len(calls["_replay"]) == rounds
    assert sum(calls["solve_group"]) == 2 * receptions
    # Each law still tests its own rows once per round.
    assert len(calls["_match"]) == 2 * rounds
