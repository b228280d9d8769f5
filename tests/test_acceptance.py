"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured quantities.

At the stated desk dimensions the prescribed l1 gain leaves the sparse
subproblem of the low-rank + sparse criteria (5 and 10b) an
underdetermined dense lasso, on which a single best-response round per
update contracts at only about 0.995-0.999 per sweep.  Both criteria
therefore run the two-layer update with ``SPARSE_INNER_ROUNDS`` inner
rounds on the sparse block, which meets criterion 5's bars.  Criterion
10b still fails: within its budget no sweep is all skips, so the run
never reaches the point from which a restart is a no-op.  It keeps
asserting the stated contract so the measurement stays visible.
"""

import time

import numpy as np
import pytest

from bsca.anomaly import (
    anomaly_problem,
    anomaly_solver,
    generate_anomaly_instance,
    initial_state,
    run_anomaly_bsca,
    state_to_vector,
    vector_to_state,
)
from bsca.core import CompositeProblem, L1Norm, SolverConfig, Zero
from bsca.engine import (
    BregmanBaselineSpec,
    block_residuals,
    bsca_step,
    make_surrogate_solver,
    quadratic_solver,
    run_bgd,
    run_bpgd,
    run_bsca,
    run_parallel_sca,
)
from bsca.linesearch import (
    cubic_real_roots,
    descent_quantity,
    exact_quadratic_step,
    exact_quartic_step,
    quartic_profile,
)
from bsca.oracles import dense_spd_solve, finite_diff_block_gradient, golden_section, real_cubic_roots
from bsca.phase_retrieval import (
    generate_pr_instance,
    pr_outer_model,
    pr_problem,
    run_phase_retrieval,
    with_blocks,
)
from bsca.surrogates import (
    InnerSolve,
    SurrogateModel,
    inner_best_response_step,
    inner_exact_stepsize,
    make_best_response_surrogate,
    make_inner_surrogate,
    make_partial_linearization_surrogate,
    make_quadratic_surrogate,
)

from conftest import random_composition_problem, random_quadratic_problem


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# 1. gradient consistency
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_consistency():
    begin = time.monotonic()
    worst_rel = 0.0
    worst_fd = 0.0
    gen = np.random.default_rng(101)
    for trial in range(100):
        sizes = [int(gen.integers(2, 5)) for _ in range(2)]
        problem, _, _ = random_quadratic_problem(gen, sizes)
        problem_c, comp = random_composition_problem(gen, sizes)
        x = gen.standard_normal(sum(sizes))
        k = int(gen.integers(2))
        sl = problem.partition.slice_of(k)
        models = [
            (problem, make_quadratic_surrogate(problem, x, k, 0.7)),
            (problem, make_best_response_surrogate(problem, x, k, "block")),
            (problem, make_best_response_surrogate(problem, x, k, "elementwise")),
            (problem_c, make_partial_linearization_surrogate(
                comp, problem_c, x, k, 0.7, "full")),
            (problem_c, make_partial_linearization_surrogate(
                comp, problem_c, x, k, 0.7, "hybrid")),
        ]
        for prob, model in models:
            analytic = prob.block_gradient(x, k)
            got = model.gradient(model.anchor)
            scale = max(1.0, float(np.abs(analytic).max()))
            worst_rel = max(worst_rel, float(np.abs(got - analytic).max()) / scale)
            fd = finite_diff_block_gradient(prob.smooth_value, x, sl, eps=1e-6)
            worst_fd = max(worst_fd, float(np.abs(got - fd).max()) / scale)
        # inner surrogate anchored away from the outer anchor
        outer = pr_like_quadratic_model(gen, sizes[k])
        x_tau = gen.standard_normal(sizes[k])
        inner = make_inner_surrogate(outer, x_tau)
        outer_grad = outer.gradient(x_tau)
        scale = max(1.0, float(np.abs(outer_grad).max()))
        worst_rel = max(worst_rel, float(
            np.abs(inner.gradient(x_tau) - outer_grad).max()) / scale)
        fd = finite_diff_block_gradient(lambda v: inner.value(v), x_tau,
                                        slice(0, sizes[k]), eps=1e-6)
        worst_fd = max(worst_fd, float(np.abs(inner.gradient(x_tau) - fd).max()) / scale)
    elapsed = time.monotonic() - begin
    ok = worst_rel <= 1e-10 and worst_fd <= 1e-5 and elapsed < 10.0
    report(1, ok, f"analytic rel {worst_rel:.2e} (<=1e-10), "
                  f"finite-diff {worst_fd:.2e} (<=1e-5), {elapsed:.1f}s (<10s)")
    assert worst_rel <= 1e-10
    assert worst_fd <= 1e-5
    assert elapsed < 10.0


def pr_like_quadratic_model(gen, n):
    m = gen.standard_normal((n, n))
    spd = m @ m.T + n * np.eye(n)
    b = gen.standard_normal(n)
    anchor = gen.standard_normal(n)
    return SurrogateModel(
        kind="quad_form", block=0, anchor=anchor,
        value_fn=lambda v: float(0.5 * v @ (spd @ v) - v @ b),
        grad_fn=lambda v: spd @ v - b, grad_anchor=spd @ anchor - b,
        quad_matrix=spd, quad_linear=b)


# ---------------------------------------------------------------------------
# 2. descent and monotonicity
# ---------------------------------------------------------------------------

def test_criterion_2_descent_and_monotonicity():
    gen = np.random.default_rng(202)
    violations = []
    for trial in range(50):
        sizes = [int(gen.integers(2, 4)) for _ in range(int(gen.integers(2, 4)))]
        gain = float(np.exp(gen.uniform(-3, -1)))
        problem, _, _ = random_quadratic_problem(gen, sizes, l1_gain=gain)
        solver = quadratic_solver(0.9)
        cfg = SolverConfig(max_outer_iterations=4 * len(sizes), curvature=0.9,
                           stop_tol=0.0)
        x = gen.standard_normal(sum(sizes))
        h = [float(problem.smooth_value(x)
                   + sum(problem.nonsmooth_value(k, problem.block_of(x, k))
                         for k in range(len(sizes))))]
        for t in range(cfg.max_outer_iterations):
            k = t % len(sizes)
            sol = solver(problem, x, k)
            xk = problem.block_of(x, k)
            residual = float(np.linalg.norm(sol.minimizer - xk))
            if residual > 1e-9:
                reg = problem.nonsmooth[k]
                d = descent_quantity(problem.block_gradient(x, k),
                                     sol.minimizer, xk,
                                     reg.value(sol.minimizer), reg.value(xk))
                if not d < 0.0:
                    violations.append(f"trial {trial}: d={d} at residual {residual}")
            x, step, d = bsca_step(problem, solver, x, k, cfg)
            h_new = float(problem.smooth_value(x)
                          + sum(problem.nonsmooth_value(j, problem.block_of(x, j))
                                for j in range(len(sizes))))
            if step.gamma > 0.0 and d < -1e-12 and not h_new < h[-1]:
                violations.append(f"trial {trial}: no strict decrease")
            if h_new > h[-1]:
                violations.append(f"trial {trial}: objective increased")
            h.append(h_new)
        trace = run_bsca(problem, solver,
                         SolverConfig(max_outer_iterations=30, curvature=0.9),
                         gen.standard_normal(sum(sizes)))
        if not np.all(np.diff(trace.objectives) <= 0.0):
            violations.append(f"trial {trial}: trace not monotone")
    report(2, not violations, f"{len(violations)} violations over 50 instances")
    assert not violations


# ---------------------------------------------------------------------------
# 3. line-search oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_line_search_oracle_equivalence():
    begin = time.monotonic()
    gen = np.random.default_rng(303)
    bad = 0
    for _ in range(1000):
        a2 = float(np.exp(gen.uniform(np.log(1e-3), np.log(1e3))))
        a1 = float(gen.standard_normal() * np.sqrt(a2))
        step = exact_quadratic_step(a2, a1)
        profile = lambda g: 0.5 * a2 * g * g + a1 * g
        oracle = golden_section(profile, tol=1e-12)
        if not (abs(step.gamma - oracle) <= 1e-6
                or abs(profile(step.gamma) - profile(oracle))
                <= 1e-10 * max(1.0, abs(profile(oracle)))):
            bad += 1
    for _ in range(1000):
        v4 = float(np.exp(gen.uniform(np.log(1e-3), np.log(1e3))))
        v3, v2, v1 = (gen.standard_normal(3) * v4 * 2.0).tolist()
        step = exact_quartic_step(v4, v3, v2, v1)
        profile = quartic_profile(v4, v3, v2, v1)
        oracle = golden_section(profile.value, tol=1e-12, grid=1000)
        if not (abs(step.gamma - oracle) <= 1e-6
                or abs(profile.value(step.gamma) - profile.value(oracle))
                <= 1e-10 * max(1.0, abs(profile.value(oracle)))):
            bad += 1
    root_bad = 0
    for _ in range(1000):
        c3 = float(np.exp(gen.uniform(np.log(1e-3), np.log(1e3))))
        c2, c1, c0 = (c3 * gen.standard_normal(3) * 3.0).tolist()
        mine = cubic_real_roots(c3, c2, c1, c0)
        brute = real_cubic_roots(c3, c2, c1, c0)
        for root in brute:
            if np.min(np.abs(mine - root)) > 1e-8 * max(1.0, abs(root)):
                root_bad += 1
    elapsed = time.monotonic() - begin
    ok = bad == 0 and root_bad == 0 and elapsed < 20.0
    report(3, ok, f"{bad} stepsize and {root_bad} root mismatches over "
                  f"1000 draws each, {elapsed:.1f}s (<20s)")
    assert bad == 0 and root_bad == 0
    assert elapsed < 20.0


# ---------------------------------------------------------------------------
# 4. quartic-profile audit
# ---------------------------------------------------------------------------

def test_criterion_4_quartic_profile_audit():
    gen = np.random.default_rng(404)
    worst = 0.0
    for trial in range(200):
        unknowns = int(gen.integers(10, 30))
        measurements = int(gen.integers(8, 25))
        blocks = int(gen.integers(1, 4))
        inst = generate_pr_instance(unknowns, measurements,
                                    density=float(gen.uniform(0.05, 0.4)),
                                    num_blocks=blocks,
                                    seed=int(gen.integers(10 ** 6)))
        x = gen.standard_normal(unknowns)
        k = int(gen.integers(blocks))
        sl = inst.partition.slice_of(k)
        x_tilde = x[sl] + gen.standard_normal(sl.stop - sl.start)
        problem = pr_problem(inst)
        delta = x_tilde - x[sl]
        direction = inst.partition.embed(k, delta)
        f0 = problem.smooth_value(x)
        # the block-local profile an outer step searches, at the audit's
        # five stepsizes, then the full-direction profile of a joint
        # step at five independent ones
        probes = ((problem.line_profile(x, delta, k), gen.uniform(0.05, 1.0, 5)),
                  (problem.line_profile(x, direction), gen.uniform(0.0, 1.0, 5)))
        for prof, gammas in probes:
            for gamma in gammas:
                direct = problem.smooth_value(x + gamma * direction) - f0
                err = abs(prof.value(gamma) - direct) / max(1.0, abs(f0), abs(direct))
                worst = max(worst, err)
    ok = worst <= 1e-8
    report(4, ok, f"worst relative profile error {worst:.2e} (<=1e-8) "
                  f"over 200 instances x 5 block and 5 joint stepsizes")
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 5. low-rank + sparse desk scale (two-layer sparse-block update)
# ---------------------------------------------------------------------------

# inner rounds on the sparse block for criteria 5 and 10b; 20 rounds
# leave criterion 5's worst residual at 1.07e-5, just above its bar
SPARSE_INNER_ROUNDS = 30


def test_criterion_5_anomaly_desk_scale():
    begin = time.monotonic()
    inst = generate_anomaly_instance(100, 200, 200, rank=3, density=0.05,
                                     noise_var=1e-4, seed=0)
    sweeps = 200
    state0 = initial_state(inst, seed=1)
    cfg = SolverConfig(max_outer_iterations=3 * sweeps, stop_tol=0.0, seed=1,
                       inner_iterations=SPARSE_INNER_ROUNDS)
    sequential = run_anomaly_bsca(inst, cfg, state0=state0)
    problem = anomaly_problem(inst)
    parallel_cfg = SolverConfig(max_outer_iterations=sweeps, stop_tol=0.0,
                                seed=1, inner_iterations=SPARSE_INNER_ROUNDS)
    parallel = run_parallel_sca(problem, anomaly_solver(inst, parallel_cfg),
                                parallel_cfg, state_to_vector(state0))
    elapsed = time.monotonic() - begin
    agreement = (abs(sequential.final_objective - parallel.final_objective)
                 / max(1.0, abs(sequential.final_objective)))
    # residuals of the one-round map, whatever the rounds of the runs
    residual_map = anomaly_solver(inst)
    worst_residual = 0.0
    for trace in (sequential, parallel):
        x = trace.final_point.values
        res = block_residuals(problem, residual_map, x, cfg)
        for k in range(3):
            rel = res[k] / (1.0 + np.linalg.norm(problem.block_of(x, k)))
            worst_residual = max(worst_residual, rel)
    ok = agreement <= 1e-6 and worst_residual <= 1e-5 and elapsed < 60.0
    report(5, ok, f"objective agreement {agreement:.2e} (<=1e-6), "
                  f"worst per-block residual {worst_residual:.2e} (<=1e-5), "
                  f"{elapsed:.1f}s (<60s), 200 sweeps, "
                  f"{SPARSE_INNER_ROUNDS} inner sparse rounds")
    assert agreement <= 1e-6, (
        "sequential and parallel runs disagree beyond tolerance after 200 "
        f"sweeps with {SPARSE_INNER_ROUNDS} inner rounds on the sparse block")
    assert worst_residual <= 1e-5, (
        "a block is not at its one-round fixed point after 200 sweeps with "
        f"{SPARSE_INNER_ROUNDS} inner rounds on the sparse block")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6 + 7. phase-retrieval desk scale grid
# ---------------------------------------------------------------------------

GRID_SEEDS = tuple(range(10))
GRID_VARIANTS = tuple((K, tau) for K in (1, 2, 10) for tau in (1, 10))


@pytest.fixture(scope="module")
def pr_grid():
    # one shared initial point per seed, warm enough that every variant
    # works in the same basin: cold starts on this small nonconvex
    # landscape either scatter across stationary points or collapse to
    # the origin, neither of which is the variant-consistency phenomenon
    # probed here
    runs = {}
    begin = time.monotonic()
    for seed in GRID_SEEDS:
        inst = generate_pr_instance(400, 100, density=0.01, num_blocks=1,
                                    seed=seed)
        noise = np.random.default_rng(1000 + seed).standard_normal(400)
        noise /= np.linalg.norm(noise)
        x0 = inst.signal + 0.2 * noise
        per_seed = {"instance": inst, "x0": x0, "traces": {}}
        for K, tau in GRID_VARIANTS:
            cfg = SolverConfig(max_outer_iterations=3000 * K, stop_tol=0.0,
                               inner_iterations=tau, seed=seed)
            per_seed["traces"][("bsca", K, tau)] = run_phase_retrieval(
                with_blocks(inst, K), cfg, x0)
        for K in (2, 10):
            cfg = SolverConfig(max_outer_iterations=3000 * K, stop_tol=0.0,
                               curvature=1e-4, seed=seed)
            per_seed["traces"][("bgd", K, 0)] = run_bgd(
                pr_problem(with_blocks(inst, K)), cfg, x0)
        per_seed["traces"][("bpgd", 1, 0)] = run_bpgd(
            inst, BregmanBaselineSpec(),
            SolverConfig(max_outer_iterations=3000, stop_tol=0.0), x0)
        runs[seed] = per_seed
    runs["elapsed"] = time.monotonic() - begin
    return runs


def test_criterion_6_pr_variants_agree(pr_grid):
    worst = 0.0
    for seed in GRID_SEEDS:
        finals = np.array([pr_grid[seed]["traces"][("bsca", K, tau)].final_objective
                           for K, tau in GRID_VARIANTS])
        spread = float((finals.max() - finals.min())
                       / max(abs(finals.min()), 1e-300))
        worst = max(worst, spread)
    elapsed = pr_grid["elapsed"]
    ok = worst <= 1e-4 and elapsed < 120.0
    report(6, ok, f"worst relative spread {worst:.2e} (<=1e-4) over "
                  f"{len(GRID_SEEDS)} seeds x 6 variants, grid {elapsed:.1f}s (<120s)")
    assert worst <= 1e-4
    assert elapsed < 120.0


def _sweeps_to_tolerance(trace, num_blocks, target):
    for i, h in enumerate(trace.objectives):
        if h <= target:
            return max(1, int(np.ceil(i / num_blocks)))
    return None


def test_criterion_7_iteration_count_ordering(pr_grid):
    bsca_sweeps = {2: [], 10: []}
    bgd_sweeps = {2: [], 10: []}
    bpgd_sweeps = []
    for seed in GRID_SEEDS:
        traces = pr_grid[seed]["traces"]
        href = min(t.final_objective for t in traces.values())
        target = href * (1.0 + 1e-9) + 1e-12
        for K in (2, 10):
            got = _sweeps_to_tolerance(traces[("bsca", K, 10)], K, target)
            bsca_sweeps[K].append(got if got is not None else 3000)
            got = _sweeps_to_tolerance(traces[("bgd", K, 0)], K, target)
            bgd_sweeps[K].append(got if got is not None else 3000)
        got = _sweeps_to_tolerance(traces[("bpgd", 1, 0)], 1, target)
        bpgd_sweeps.append(got if got is not None else 3000)
    ordering_ok = all(np.median(bsca_sweeps[K]) <= np.median(bgd_sweeps[K])
                      for K in (2, 10))
    bsca_median = np.median(bsca_sweeps[2] + bsca_sweeps[10])
    bpgd_ok = np.median(bpgd_sweeps) >= 5.0 * bsca_median
    report(7, ordering_ok and bpgd_ok,
           f"median sweeps bsca K=2/10: {np.median(bsca_sweeps[2])}/"
           f"{np.median(bsca_sweeps[10])}, bgd: {np.median(bgd_sweeps[2])}/"
           f"{np.median(bgd_sweeps[10])}, bpgd: {np.median(bpgd_sweeps)} "
           f"(>= 5x {bsca_median})")
    assert ordering_ok
    assert bpgd_ok


# ---------------------------------------------------------------------------
# 8. inexact inner chain
# ---------------------------------------------------------------------------

def test_criterion_8_inner_chain():
    gen = np.random.default_rng(808)
    strict_violations = 0
    worst_gap = 0.0
    for trial in range(50):
        n = int(gen.integers(4, 10))
        basis, _ = np.linalg.qr(gen.standard_normal((n, n)))
        eigs = gen.uniform(1.0, 3.0, n)
        spd = (basis * eigs) @ basis.T
        spd = 0.5 * (spd + spd.T)
        b = gen.standard_normal(n)
        anchor = gen.standard_normal(n)
        model = SurrogateModel(
            kind="quad_form", block=0, anchor=anchor,
            value_fn=lambda v, spd=spd, b=b: float(0.5 * v @ (spd @ v) - v @ b),
            grad_fn=lambda v, spd=spd, b=b: spd @ v - b,
            grad_anchor=spd @ anchor - b, quad_matrix=spd, quad_linear=b)
        # strict decrease of the surrogate-plus-regularizer chain
        reg = L1Norm(0.3)
        x_tau = anchor.copy()
        values = [model.value(x_tau) + reg.value(x_tau)]
        from bsca.core import Unconstrained
        for _ in range(8):
            target = inner_best_response_step(model, x_tau, reg, Unconstrained())
            if np.linalg.norm(target - x_tau) <= 1e-12 * (1 + np.linalg.norm(x_tau)):
                break
            gamma = inner_exact_stepsize(model, x_tau, target, reg)
            if gamma <= 0.0:
                break
            x_tau = x_tau + gamma * (target - x_tau)
            values.append(model.value(x_tau) + reg.value(x_tau))
        if not all(b_ < a_ for a_, b_ in zip(values, values[1:])):
            strict_violations += 1
        # 50 inner rounds against the dense reference solve (no l1 term)
        x_tau = anchor.copy()
        for _ in range(50):
            target = inner_best_response_step(model, x_tau, Zero(), Unconstrained())
            gamma = inner_exact_stepsize(model, x_tau, target, Zero())
            if gamma <= 0.0:
                break
            x_tau = x_tau + gamma * (target - x_tau)
        exact = dense_spd_solve(spd, b)
        worst_gap = max(worst_gap, float(np.linalg.norm(x_tau - exact))
                        / (1.0 + float(np.linalg.norm(exact))))
    ok = strict_violations == 0 and worst_gap <= 1e-8
    report(8, ok, f"{strict_violations} non-strict chains, worst gap to the "
                  f"dense solve {worst_gap:.2e} (<=1e-8) over 50 instances")
    assert strict_violations == 0
    assert worst_gap <= 1e-8


# ---------------------------------------------------------------------------
# 9. determinism and feasibility
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_feasibility():
    # identical traces on both applications under the random rule
    inst_a = generate_anomaly_instance(20, 15, 12, rank=2, density=0.1, seed=3)
    cfg = SolverConfig(max_outer_iterations=45, block_rule="random", seed=17,
                       stop_tol=0.0)
    t1 = run_anomaly_bsca(inst_a, cfg)
    t2 = run_anomaly_bsca(inst_a, cfg)
    anomaly_same = (np.array_equal(t1.objectives, t2.objectives)
                    and np.array_equal(t1.stepsizes, t2.stepsizes)
                    and [e.block for e in t1.entries] == [e.block for e in t2.entries])
    inst_p = generate_pr_instance(30, 20, density=0.1, num_blocks=3, seed=5)
    x0 = np.random.default_rng(99).standard_normal(30)
    cfgp = SolverConfig(max_outer_iterations=60, block_rule="random", seed=23,
                        inner_iterations=3, stop_tol=0.0)
    p1 = run_phase_retrieval(inst_p, cfgp, x0)
    p2 = run_phase_retrieval(inst_p, cfgp, x0)
    pr_same = (np.array_equal(p1.objectives, p2.objectives)
               and np.array_equal(p1.final_point.values, p2.final_point.values))
    # every iterate feasible under box constraints
    gen = np.random.default_rng(909)
    seen = []
    problem, _, _ = random_quadratic_problem(gen, [3, 3], l1_gain=0.05,
                                             box_halfwidth=0.3)
    spying = CompositeProblem(
        problem.partition,
        lambda x: (seen.append(x.copy()), problem.smooth_value(x))[1],
        problem.block_gradient, problem.nonsmooth, problem.constraints,
        problem.line_profile)
    run_bsca(spying, quadratic_solver(1.0),
             SolverConfig(max_outer_iterations=40, curvature=1.0),
             np.zeros(6))
    feasible = all(np.all(np.abs(x) <= 0.3 + 1e-12) for x in seen)
    ok = anomaly_same and pr_same and feasible
    report(9, ok, f"anomaly identical {anomaly_same}, pr identical {pr_same}, "
                  f"{len(seen)} box iterates feasible {feasible}")
    assert anomaly_same and pr_same and feasible


# ---------------------------------------------------------------------------
# 10. fixed point on restart
# ---------------------------------------------------------------------------

def test_criterion_10a_pr_restarts_are_no_ops(pr_grid):
    bad = []
    # two-layer solver restarts, from the cached grid
    for seed in GRID_SEEDS[:3]:
        inst = pr_grid[seed]["instance"]
        for key in (("bsca", 2, 10), ("bsca", 10, 1)):
            trace = pr_grid[seed]["traces"][key]
            if trace.termination_reason != "tolerance":
                bad.append(f"{key} seed {seed}: not tolerance-terminated")
                continue
            K = key[1]
            cfg = SolverConfig(max_outer_iterations=K, stop_tol=0.0,
                               inner_iterations=key[2], seed=seed)
            restart = run_phase_retrieval(with_blocks(inst, K), cfg,
                                          trace.final_point.values)
            if not np.all(restart.stepsizes == 0.0):
                bad.append(f"{key} seed {seed}: effective step on restart")
    # gradient-descent and parallel restarts on one instance
    seed = GRID_SEEDS[0]
    inst = pr_grid[seed]["instance"]
    x0 = pr_grid[seed]["x0"]
    for K in (2,):
        cfg = SolverConfig(max_outer_iterations=3000 * K, stop_tol=0.0,
                           curvature=1e-4)
        first = run_bgd(pr_problem(with_blocks(inst, K)), cfg, x0)
        if first.termination_reason != "tolerance":
            bad.append(f"bgd K={K}: not tolerance-terminated")
        else:
            restart = run_bgd(pr_problem(with_blocks(inst, K)),
                              SolverConfig(max_outer_iterations=K,
                                           stop_tol=0.0, curvature=1e-4),
                              first.final_point.values)
            if not np.all(restart.stepsizes == 0.0):
                bad.append(f"bgd K={K}: effective step on restart")
    solver = make_surrogate_solver(
        lambda problem, x, k: pr_outer_model(inst, x, k, 1e-4),
        inner=InnerSolve(max_iterations=500, tol=1e-13))
    first = run_parallel_sca(pr_problem(inst), solver,
                             SolverConfig(max_outer_iterations=3000,
                                          stop_tol=0.0), x0)
    if first.termination_reason != "tolerance":
        bad.append("parallel: not tolerance-terminated")
    else:
        restart = run_parallel_sca(pr_problem(inst), solver,
                                   SolverConfig(max_outer_iterations=1,
                                                stop_tol=0.0),
                                   first.final_point.values)
        if not np.all(restart.stepsizes == 0.0):
            bad.append("parallel: effective step on restart")
    report("10a", not bad, f"{len(bad)} restart violations on the "
                           f"phase-retrieval family: {bad}")
    assert not bad


def test_criterion_10b_anomaly_restart_is_no_op():
    # the engine promises a no-op restart only after an all-skip sweep, so
    # the first run stops on that rule alone (stop_tol=0, as in 10a).
    # Measured: with the rounds of criterion 5 no sweep within the budget
    # is all skips; the sparse block still takes unit steps worth ~2e-9
    # relative objective per sweep, so this test fails and the restart
    # moves the sparse block
    inst = generate_anomaly_instance(100, 200, 200, rank=3, density=0.05,
                                     noise_var=1e-4, seed=0)
    cfg = SolverConfig(max_outer_iterations=600, stop_tol=0.0, seed=1,
                       inner_iterations=SPARSE_INNER_ROUNDS)
    first = run_anomaly_bsca(inst, cfg, state0=initial_state(inst, seed=1))
    tolerance_terminated = first.termination_reason == "tolerance"
    x = first.final_point.values
    restart = run_anomaly_bsca(
        inst, SolverConfig(max_outer_iterations=3, stop_tol=0.0, seed=1,
                           inner_iterations=SPARSE_INNER_ROUNDS),
        state0=vector_to_state(inst, x))
    all_skips = bool(np.all(restart.stepsizes == 0.0))
    last = first.objectives[-4:]
    sweep_decrease = (last[0] - last[-1]) / max(1.0, abs(last[0]))
    problem = anomaly_problem(inst)
    sparse = problem.block_of(x, 2)
    sparse_residual = (block_residuals(problem, anomaly_solver(inst), x, cfg)[2]
                       / (1.0 + np.linalg.norm(sparse)))
    ok = tolerance_terminated and all_skips
    cause = (f"first run ended by {first.termination_reason} after "
             f"{first.iterations} iterations, last-sweep relative decrease "
             f"{sweep_decrease:.2e}, last stepsizes "
             f"{first.stepsizes[-3:].tolist()}, sparse one-round residual "
             f"{sparse_residual:.2e}; restart stepsizes "
             f"{restart.stepsizes[1:].tolist()}")
    report("10b", ok, f"tolerance-terminated {tolerance_terminated}, "
                      f"restart all-skip {all_skips} ({cause})")
    assert tolerance_terminated, f"no all-skip sweep within the budget: {cause}"
    assert all_skips, f"restart performed effective steps: {cause}"
