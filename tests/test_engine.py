import dataclasses
import weakref
from collections import Counter

import numpy as np
import pytest

from bsca.anomaly import (
    anomaly_problem,
    anomaly_solver,
    generate_anomaly_instance,
    initial_state,
    state_to_vector,
)
from bsca import engine
from bsca.core import (
    Box,
    CompositeProblem,
    L1Norm,
    SolverConfig,
    TrackedProducts,
    Unconstrained,
    Zero,
    make_partition,
    objective,
)
from bsca.engine import (
    BlockSolution,
    block_residuals,
    bregman_constant,
    bregman_step,
    bsca_step,
    inexact_inner_loop,
    inexact_solver,
    quadratic_solver,
    run_bgd,
    run_bpgd,
    run_bsca,
    run_parallel_sca,
)
from bsca.errors import (
    ConfigError,
    FeasibilityError,
    InvalidArgumentError,
    ProfileMismatchError,
)
from bsca.linesearch import (
    StepResult,
    cubic_real_roots,
    descent_quantity,
    quadratic_profile,
)
from bsca.phase_retrieval import (
    generate_pr_instance,
    pr_outer_model,
    pr_problem,
    run_phase_retrieval,
)
from bsca.surrogates import make_quadratic_surrogate

from conftest import (
    carried_gradient_drift,
    fresh_inner_step,
    fresh_inner_stepsize,
    model_value,
    random_quadratic_problem,
    small_pr_instance,
    spd_model,
    tracing,
)
from oracles import dense_spd_solve


def scalar_problem():
    part = make_partition([1])
    return CompositeProblem(
        part,
        lambda x: float(0.5 * (x[0] - 1.0) ** 2),
        lambda x, k: np.array([x[0] - 1.0]),
        (Zero(),),
        line_profile=lambda x, d, block=None: quadratic_profile(
            float(d[0] * d[0]), float((x[0] - 1.0) * d[0])))


class TestSelectBlock:
    def test_cyclic_order(self):
        select = engine._block_selector(SolverConfig(max_outer_iterations=1), 3)
        assert [select(t) for t in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_cyclic_matches_modular_rule(self):
        select = engine._block_selector(SolverConfig(max_outer_iterations=1), 3)
        for t in (0, 5, 17):
            assert select(t) == t % 3

    def test_seeded_rule_is_deterministic(self):
        cfg = SolverConfig(max_outer_iterations=1, block_rule="random", seed=7)
        a = engine._block_selector(cfg, 4)
        b = engine._block_selector(cfg, 4)
        seq_a = [a(t) for t in range(50)]
        assert seq_a == [b(t) for t in range(50)]
        # the categorical draw with uniform weights, from a generator
        # seeded with the config's seed, so random-rule traces keep their bits
        rng = np.random.default_rng(7)
        assert seq_a == [int(rng.choice(4, p=np.full(4, 0.25))) for _ in range(50)]


class TestBscaStep:
    def test_hand_example(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=1, curvature=1.0)
        x1, step, d = bsca_step(problem, quadratic_solver(1.0),
                                np.array([0.0]), 0, cfg)
        assert d == pytest.approx(-1.0)
        assert step.gamma == pytest.approx(1.0)
        assert x1 == pytest.approx([1.0])

    def test_fixed_point_skipped(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=1, curvature=1.0)
        x1, step, d = bsca_step(problem, quadratic_solver(1.0),
                                np.array([1.0]), 0, cfg)
        assert step.gamma == 0.0 and d == 0.0
        assert x1 == pytest.approx([1.0])

    def test_one_sweep_of_best_responses_solves_separable(self, rng):
        # separable f: each exact block minimization lands on the optimum
        part = make_partition([2, 3, 1])
        weights = np.exp(rng.uniform(-1, 1, 6))
        center = rng.standard_normal(6)
        problem = CompositeProblem(
            part,
            lambda x: float(0.5 * (weights * (x - center)) @ (x - center)),
            lambda x, k: (weights * (x - center))[part.slice_of(k)],
            (Zero(), Zero(), Zero()))
        def exact_solver(p, x, k):
            sl = part.slice_of(k)
            return BlockSolution(center[sl], is_global_upper_bound=True)

        cfg = SolverConfig(max_outer_iterations=3)
        x = rng.standard_normal(6)
        for t in range(3):
            x, _, _ = bsca_step(problem, exact_solver, x, t, cfg)
        assert np.allclose(x, center, atol=1e-12)


class TestRunBsca:
    def test_toy_converges_in_one_iteration(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=10, curvature=1.0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg, np.array([0.0]))
        assert trace.objectives[1] == pytest.approx(0.0, abs=1e-16)
        assert trace.termination_reason == "tolerance"

    def test_zero_iterations_gives_initial_row_only(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg, np.array([0.0]))
        assert len(trace.entries) == 1
        assert trace.entries[0].objective == pytest.approx(0.5)

    def test_invalid_config_rejected_before_iterating(self):
        problem = scalar_problem()
        with pytest.raises(ConfigError):
            run_bsca(problem, quadratic_solver(1.0),
                     SolverConfig(max_outer_iterations=5, curvature=-1.0),
                     np.array([0.0]))

    def test_monotone_and_strictly_decreasing_on_effective_steps(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 2, 4], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=60, curvature=0.5, stop_tol=0.0)
        trace = run_bsca(problem, quadratic_solver(0.5), cfg,
                         rng.standard_normal(9))
        objs = trace.objectives
        steps = trace.stepsizes
        assert np.all(np.diff(objs) <= 0.0)
        for i in range(1, len(objs)):
            if steps[i] > 0.0:
                assert objs[i] < objs[i - 1] + 1e-15

    def test_infeasible_start_rejected(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3], box_halfwidth=0.5)
        with pytest.raises(FeasibilityError):
            run_bsca(problem, quadratic_solver(1.0),
                     SolverConfig(max_outer_iterations=3), np.full(3, 2.0))

    def test_box_iterates_stay_feasible(self, rng):
        seen = []
        problem, hessian, target = random_quadratic_problem(
            rng, [3, 3], l1_gain=0.05, box_halfwidth=0.4)
        spying = CompositeProblem(
            problem.partition,
            lambda x: (seen.append(x.copy()), problem.smooth_value(x))[1],
            problem.block_gradient, problem.nonsmooth, problem.constraints,
            problem.line_profile)
        cfg = SolverConfig(max_outer_iterations=40, curvature=1.0)
        trace = run_bsca(spying, quadratic_solver(1.0), cfg, np.zeros(6))
        assert all(np.all(np.abs(x) <= 0.4 + 1e-12) for x in seen)
        assert np.all(np.abs(trace.final_point.values) <= 0.4 + 1e-12)

    def test_generic_profile_audit_accepts_honest_profiles(self, rng):
        # a hook with a line has every exact step audited through it;
        # the audit changes no bit of the run
        plain, _, _ = random_quadratic_problem(rng, [3, 2, 4], l1_gain=0.1)
        hook = LinedProducts(plain)
        cfg = SolverConfig(max_outer_iterations=9, curvature=0.5, stop_tol=0.0)
        x0 = rng.standard_normal(9)
        got = run_bsca(dataclasses.replace(plain, products=hook),
                       quadratic_solver(0.5), cfg, x0)
        reference = run_bsca(plain, quadratic_solver(0.5), cfg, x0)
        assert hook.calls.count("line") >= np.count_nonzero(got.stepsizes) > 0
        assert got.objectives.tobytes() == reference.objectives.tobytes()
        assert got.final_point.values.tobytes() == reference.final_point.values.tobytes()

    def test_generic_profile_audit_rejects_wrong_coefficients(self, rng):
        problem, hessian, target = random_quadratic_problem(rng, [4])
        lying = CompositeProblem(
            problem.partition, problem.smooth_value, problem.block_gradient,
            problem.nonsmooth, problem.constraints,
            lambda x, d, block=None: quadratic_profile(1.0, -1.0))
        cfg = SolverConfig(max_outer_iterations=3, curvature=0.5)
        x0 = rng.standard_normal(4)
        run_bsca(lying, quadratic_solver(0.5), cfg, x0)    # no line: no audit
        with pytest.raises(ProfileMismatchError):
            run_bsca(dataclasses.replace(lying, products=LinedProducts(lying)),
                     quadratic_solver(0.5), cfg, x0)

    def test_exact_search_without_a_profile_scans_f(self, rng):
        # no line_profile: the exact search scans f along the step with a
        # grid and golden section, and lands on the closed-form stepsize
        problem, _, _ = random_quadratic_problem(rng, [3, 2], l1_gain=0.1)
        bare = dataclasses.replace(problem, line_profile=None)
        cfg = SolverConfig(max_outer_iterations=1, curvature=0.2)
        x = rng.standard_normal(5)
        for k in range(2):
            _, exact, _ = bsca_step(problem, quadratic_solver(0.2), x, k, cfg)
            _, scanned, _ = bsca_step(bare, quadratic_solver(0.2), x, k, cfg)
            assert 0.0 < exact.gamma < 1.0
            assert scanned.gamma == pytest.approx(exact.gamma, abs=1e-9)

    def test_deterministic_random_rule(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [2, 2, 2], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=50, block_rule="random",
                           seed=123, curvature=1.0, stop_tol=0.0)
        x0 = rng.standard_normal(6)
        a = run_bsca(problem, quadratic_solver(1.0), cfg, x0)
        b = run_bsca(problem, quadratic_solver(1.0), cfg, x0)
        assert np.array_equal(a.objectives, b.objectives)
        assert [e.block for e in a.entries] == [e.block for e in b.entries]

    def test_stationarity_at_tolerance_termination(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [4, 4], l1_gain=0.2)
        cfg = SolverConfig(max_outer_iterations=5000, curvature=1.0,
                           stop_tol=0.0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg,
                         rng.standard_normal(8))
        assert trace.termination_reason == "tolerance"
        x = trace.final_point.values
        res = block_residuals(problem, quadratic_solver(1.0), x)
        for k in range(problem.num_blocks):
            xk = problem.block_of(x, k)
            assert res[k] <= 1e-5 * (1.0 + np.linalg.norm(xk))

    def test_cyclic_fixed_point_is_random_fixed_point(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.15)
        cfg = SolverConfig(max_outer_iterations=5000, curvature=1.0, stop_tol=0.0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg,
                         rng.standard_normal(6))
        x = trace.final_point.values
        cfg_rand = SolverConfig(max_outer_iterations=20, block_rule="random",
                                seed=5, curvature=1.0)
        restart = run_bsca(problem, quadratic_solver(1.0), cfg_rand, x)
        assert np.all(restart.stepsizes == 0.0)


class LoggedProducts(TrackedProducts):
    """A minimal product hook, whose product is a copy of the point,
    that logs the calls the engine makes and the points it names."""

    def __init__(self, partition):
        super().__init__()
        self.partition = partition
        self.calls = []
        self.points = []

    def fresh(self, x):
        return (x.copy(),)

    def carried(self, held, x_new, block, gamma, direction):
        return (held[0] + gamma * self.partition.embed(block, direction),)

    def drift_scale(self, held, fresh):
        return 1.0 + float(np.linalg.norm(fresh[0]))

    def track(self, x):
        self.calls.append("track")
        self.points.append(x)
        return super().track(x)

    def update(self, x, x_new, block, gamma, direction):
        self.calls.append("update")
        self.points.append(x_new)
        super().update(x, x_new, block, gamma, direction)

    def keep(self, x):
        self.calls.append("keep")
        super().keep(x)

    def release(self):
        self.calls.append("release")
        super().release()


class LinedProducts(LoggedProducts):
    """A ``LoggedProducts`` that gives a line, f at an array of stepsizes
    along the step from fresh evaluations, and logs each line it gives."""

    def __init__(self, problem):
        super().__init__(problem.partition)
        self.smooth_value = problem.smooth_value

    def line(self, x, direction, block):
        self.calls.append("line")
        full = direction if block is None else self.partition.embed(block, direction)
        return lambda gammas: np.array([self.smooth_value(x + gamma * full)
                                        for gamma in gammas])


@pytest.mark.parametrize("run", ["bsca", "parallel", "bpgd"])
def test_a_run_holds_no_reference_to_its_start(rng, monkeypatch, run):
    # a caller may pass the start as a temporary: once the run has
    # copied it, the run's frames no longer hold it
    inst = generate_pr_instance(30, 60, density=0.1, num_blocks=3, seed=4)
    problem = pr_problem(inst)
    cfg = SolverConfig(max_outer_iterations=6, stop_tol=0.0)
    starts, alive = [], []
    honest = engine._RunBook.advance

    def advance(book, *args):
        alive.append(starts[0]() is not None)
        return honest(book, *args)

    def temporary():
        x0 = rng.standard_normal(30)
        starts.append(weakref.ref(x0))
        return x0

    monkeypatch.setattr(engine._RunBook, "advance", advance)
    if run == "bpgd":
        run_bpgd(inst, cfg, temporary())
    else:
        runner = run_bsca if run == "bsca" else run_parallel_sca
        runner(problem, quadratic_solver(1.0), cfg, temporary())
    assert len(alive) == 6 and not any(alive)


class TestProductHookCalls:
    def test_the_run_keeps_one_point_between_steps(self, rng, monkeypatch):
        plain, hessian, target = random_quadratic_problem(rng, [3, 2, 4])
        hook = LoggedProducts(plain.partition)
        problem = dataclasses.replace(plain, products=hook)
        base = quadratic_solver(1.0)
        visits = []

        def solver(prob, x, k):
            visits.append(k)
            if len(visits) % 4:
                return base(prob, x, k)
            # three times the block minimizer's move at a unit step: the
            # objective rises, so the guard demotes it
            sl = prob.partition.slice_of(k)
            move = -np.linalg.solve(hessian[sl, sl], (hessian @ x - target)[sl])
            return BlockSolution(x[sl] + 3.0 * move, is_global_upper_bound=True)

        honest = engine._RunBook.advance

        def checked(book, x_prev, x_new, *args):
            kept, stop = honest(book, x_prev, x_new, *args)
            held = {id(p) for p in hook.points if hook.held(p) is not None}
            assert held == {id(kept)}
            return kept, stop

        monkeypatch.setattr(engine._RunBook, "advance", checked)
        cfg = SolverConfig(max_outer_iterations=24, stop_tol=0.0)
        trace = run_bsca(problem, solver, cfg, rng.standard_normal(9))
        assert trace.iterations == 24
        # release, track, then per iteration (update) keep, and a track
        # at each sweep end; the run's end releases
        calls = hook.calls
        assert calls[:2] == ["release", "track"] and calls[-1] == "release"
        groups, group = [], []
        for call in calls[2:-1]:
            if call == "track":
                groups[-1].append(call)
                continue
            group.append(call)
            if call == "keep":
                groups.append(group)
                group = []
        assert group == [] and len(groups) == 24
        for t, got in enumerate(groups):
            stepped = got[0] == "update"
            assert got == ["update"] * stepped + ["keep"] + ["track"] * ((t + 1) % 3 == 0)
            assert stepped or trace.stepsizes[t + 1] == 0.0
        updates = sum(got[0] == "update" for got in groups)
        assert updates > np.count_nonzero(trace.stepsizes)    # some were demoted
        assert trace.product_drift <= 1e-12


    @pytest.mark.parametrize("search", ["armijo", "exact", "scanned"])
    def test_a_hook_without_a_line_searches_as_no_hook(self, rng, search):
        # the hook gives no line, so f is evaluated afresh along each step
        # and no profile is audited, as for the problem without a hook
        plain, _, _ = random_quadratic_problem(rng, [3, 2, 4], l1_gain=0.1)
        if search == "scanned":
            plain = dataclasses.replace(plain, line_profile=None)
        hook = LoggedProducts(plain.partition)
        assert hook.line(np.zeros(9), np.ones(3), 0) is None
        cfg = SolverConfig(max_outer_iterations=24, stop_tol=0.0, curvature=0.5,
                           line_search="successive" if search == "armijo" else "exact")
        x0 = rng.standard_normal(9)
        got = run_bsca(dataclasses.replace(plain, products=hook),
                       quadratic_solver(0.5), cfg, x0)
        reference = run_bsca(plain, quadratic_solver(0.5), cfg, x0)
        assert "update" in hook.calls
        assert got.objectives.tobytes() == reference.objectives.tobytes()
        assert got.stepsizes.tobytes() == reference.stepsizes.tobytes()
        assert got.final_point.values.tobytes() == reference.final_point.values.tobytes()
        if search == "armijo":
            assert any(e.armijo_exponent > 0 for e in got.entries)


@dataclasses.dataclass(frozen=True)
class CountedL1(L1Norm):
    """An l1 regularizer that logs each value it gives."""

    log: list = dataclasses.field(default_factory=list, compare=False)

    def value(self, v):
        self.log.append("value")
        return super().value(v)


class CountedConstraint:
    """A constraint that logs each membership test."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def contains(self, v):
        self.log.append("contains")
        return self.inner.contains(v)

    def clip(self, v):
        return self.inner.clip(v)


class TestGuard:
    K = 50
    BOX = 7    # the one boxed block

    def problem(self, rng, log):
        plain, _, _ = random_quadratic_problem(rng, [2] * self.K, l1_gain=0.05)
        constraints = [CountedConstraint(Unconstrained(), log) for _ in range(self.K)]
        constraints[self.BOX] = CountedConstraint(Box(np.full(2, -0.5), np.full(2, 0.5)),
                                                  log)
        return dataclasses.replace(
            plain, nonsmooth=tuple(CountedL1(0.05, log) for _ in range(self.K)),
            constraints=tuple(constraints))

    def test_a_block_step_evaluates_its_own_block_alone(self, rng, monkeypatch):
        # the start checks and evaluates every block, and each sweep end
        # checks every block and, with no product hook whose products it
        # re-forms, evaluates none; a step checks and evaluates the block
        # it moved, and the objective it sums has the bits of
        # core.objective
        log, sums = [], []
        problem = self.problem(rng, log)
        K = self.K
        honest_sum = engine.composite_value

        def summed(*args):
            sums.append(honest_sum(*args))
            return sums[-1]

        honest_init = engine._RunBook.__init__
        honest_advance = engine._RunBook.advance
        seen = Counter()

        def init(book, problem, config, x, sweep_len):
            log.clear()
            honest_init(book, problem, config, x, sweep_len)
            assert Counter(log) == Counter(contains=K, value=K)
            assert sums == [objective(problem, x)]

        def advance(book, x_prev, x_new, t, block, step):
            log.clear()
            sums.clear()
            kept, stop = honest_advance(book, x_prev, x_new, t, block, step)
            calls = Counter(log)
            effective, sweep_end = step.gamma != 0.0, (t + 1) % K == 0
            assert calls == Counter(contains=effective + K * sweep_end,
                                    value=effective), t
            assert sums == [objective(book.problem, x_new)] * effective, t
            if sweep_end:
                assert book.objective == objective(book.problem, kept), t
            seen["steps" if effective else "skips"] += 1
            return kept, stop

        base = quadratic_solver(1.0)

        def solver(problem, x, k):
            # every fifth visit finds its block stationary: a skip
            seen["visits"] += 1
            if seen["visits"] % 5 == 0:
                return BlockSolution(problem.block_of(x, k).copy())
            return base(problem, x, k)

        monkeypatch.setattr(engine, "composite_value", summed)
        monkeypatch.setattr(engine._RunBook, "__init__", init)
        monkeypatch.setattr(engine._RunBook, "advance", advance)
        x0 = np.clip(rng.standard_normal(2 * K), -0.5, 0.5)
        cfg = SolverConfig(max_outer_iterations=3 * K, curvature=1.0, stop_tol=0.0)
        trace = run_bsca(problem, solver, cfg, x0)
        assert trace.iterations == 3 * K
        assert seen["steps"] > K and seen["skips"] >= 3 * K // 5

    def test_a_step_out_of_its_box_names_the_iteration(self, rng):
        log = []
        problem = self.problem(rng, log)
        x = np.zeros(2 * self.K)
        book = engine._RunBook(problem, SolverConfig(max_outer_iterations=1), x,
                               self.K)
        x_new = x.copy()
        x_new[problem.partition.slice_of(self.BOX)] = [0.25, 0.75]
        with pytest.raises(FeasibilityError, match="t=12$"):
            book.advance(x, x_new, 12, self.BOX, StepResult(1.0))

    @staticmethod
    def boxed_pair():
        # f = ||x - 2||^2 / 2 over two blocks of two entries, the second
        # boxed in [-1, 1]
        partition = make_partition([2, 2])
        return CompositeProblem(
            partition, lambda x: float(0.5 * (x - 2.0) @ (x - 2.0)),
            lambda x, k: x[partition.slice_of(k)] - 2.0, (Zero(), Zero()),
            (Unconstrained(), Box(np.full(2, -1.0), np.full(2, 1.0))))

    def test_a_joint_step_out_of_a_box_names_the_iteration(self):
        # the step's own check fires, not the sweep end's that follows
        def solver(problem, x, k):
            return BlockSolution(np.full(2, 2.0), is_global_upper_bound=True)

        with pytest.raises(FeasibilityError, match="at t=0$"):
            run_parallel_sca(self.boxed_pair(), solver,
                             SolverConfig(max_outer_iterations=3), np.zeros(4))

    def test_the_sweep_end_checks_the_blocks_a_step_does_not_name(self):
        # a step that names block 0 and moves block 1 out of its box
        # passes its own check, which reads block 0's box alone
        book = engine._RunBook(self.boxed_pair(), SolverConfig(max_outer_iterations=4),
                               np.zeros(4), 2)

        def step(x, k):
            if x[2] != 0.0:
                return x, StepResult(0.0)
            return np.array([0.0, 0.0, 1.5, 1.5]), StepResult(1.0)

        with pytest.raises(FeasibilityError, match="by t=1$"):
            book.run(lambda t: 0, step)

    def test_a_sweep_end_evaluates_in_full_only_where_it_re_formed_products(
            self, rng, monkeypatch):
        # without a hook, and where the kept products are fresh (low-rank +
        # sparse, Bregman), the kept objective already has the bits of a
        # full evaluation; carried phase-retrieval products are re-formed
        problem, _, _ = random_quadratic_problem(rng, [3, 2, 4], l1_gain=0.1)
        values = []

        def smooth_value(x):
            values.append(1)
            return problem.smooth_value(x)

        counted = dataclasses.replace(problem, smooth_value=smooth_value)
        cfg = SolverConfig(max_outer_iterations=10, curvature=1.0, stop_tol=0.0)
        trace = run_parallel_sca(counted, quadratic_solver(1.0), cfg,
                                 rng.standard_normal(9))
        assert np.count_nonzero(trace.stepsizes) == 10
        assert len(values) == 11    # the start and each step's guard

        full = []
        honest = engine._RunBook._evaluate_all
        monkeypatch.setattr(engine._RunBook, "_evaluate_all",
                            lambda book, x: full.append(1) or honest(book, x))

        def evaluations(run, iterations):
            full.clear()
            trace = run(SolverConfig(max_outer_iterations=iterations, stop_tol=0.0))
            assert trace.iterations == iterations
            return len(full)

        inst = generate_anomaly_instance(12, 8, 6, rank=2, density=0.3, seed=5)
        x0 = state_to_vector(initial_state(inst, seed=1))
        assert evaluations(lambda cfg: run_bsca(
            anomaly_problem(inst), anomaly_solver(inst, cfg), cfg, x0), 90) == 1
        pr = small_pr_instance(rng, [4, 4, 4])
        start = rng.standard_normal(12)
        assert evaluations(lambda cfg: run_bpgd(pr, cfg, start), 10) == 1
        # the start and each of the 10 sweep ends
        assert evaluations(lambda cfg: run_phase_retrieval(pr, cfg, start), 30) == 11


class TestParallelSca:
    def test_single_block_bitwise_identical_to_bsca(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [5], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=30, curvature=0.7, stop_tol=0.0)
        x0 = rng.standard_normal(5)
        seq = run_bsca(problem, quadratic_solver(0.7), cfg, x0)
        par = run_parallel_sca(problem, quadratic_solver(0.7), cfg, x0)
        assert np.array_equal(seq.objectives, par.objectives)
        assert np.array_equal(seq.final_point.values, par.final_point.values)

    def test_separable_parallel_step_equals_bsca_sweep(self, rng):
        part = make_partition([2, 2])
        weights = np.exp(rng.uniform(-1, 1, 4))
        center = rng.standard_normal(4)
        def line_profile(x, d, block=None):
            if block is not None:
                d = part.embed(block, d)
            return quadratic_profile(float((weights * d) @ d),
                                     float((weights * (x - center)) @ d))

        problem = CompositeProblem(
            part,
            lambda x: float(0.5 * (weights * (x - center)) @ (x - center)),
            lambda x, k: (weights * (x - center))[part.slice_of(k)],
            (Zero(), Zero()),
            line_profile=line_profile)

        def solver(p, x, k):
            # exact separable block minimizer in closed form
            return BlockSolution(center[part.slice_of(k)].copy())

        x0 = rng.standard_normal(4)
        cfg = SolverConfig(max_outer_iterations=2, stop_tol=0.0)
        par = run_parallel_sca(problem, solver, cfg, x0)
        sweep = run_bsca(problem, solver,
                         SolverConfig(max_outer_iterations=2, stop_tol=0.0), x0)
        assert par.objectives[1] == pytest.approx(sweep.objectives[2], rel=1e-12)
        assert np.allclose(par.final_point.values, center, atol=1e-12)

    def test_joint_descent_quantity_negative_property(self, rng):
        for _ in range(20):
            problem, _, _ = random_quadratic_problem(rng, [2, 3], l1_gain=0.1)
            x = rng.standard_normal(5)
            solver = quadratic_solver(1.0)
            d_total = 0.0
            moved = False
            for k in range(2):
                sol = solver(problem, x, k)
                xk = problem.block_of(x, k)
                delta = sol.minimizer - xk
                if np.linalg.norm(delta) <= 1e-9:
                    continue
                moved = True
                reg = problem.nonsmooth[k]
                d_total += float(delta @ problem.block_gradient(x, k)) \
                    + reg.value(sol.minimizer) - reg.value(xk)
            if moved:
                assert d_total < 0.0


def proximal_linear(curvature):
    """The proximal-linear outer model (D = cI) as an outer factory."""
    return lambda problem, x, k: make_quadratic_surrogate(problem, x, k, curvature)


class TestInexact:
    def _quad_outer(self, rng, n=6):
        m = rng.standard_normal((n, n))
        spd = m @ m.T / n + np.diag(np.full(n, 2.0))
        b = rng.standard_normal(n)
        return spd_model(spd, b, rng.standard_normal(n)), spd, b

    def test_inner_loop_reaches_exact_minimizer(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [6])
        for _ in range(10):
            model, spd, b = self._quad_outer(rng)
            cfg = SolverConfig(max_outer_iterations=1, inner_iterations=50)
            approx = inexact_inner_loop(model, problem, 0, cfg)
            exact = dense_spd_solve(spd, b)
            assert np.linalg.norm(approx - exact) <= 1e-8 * (1 + np.linalg.norm(exact))

    def test_carried_inner_gradient_does_not_drift(self, rng, monkeypatch):
        # an ill-conditioned dense SPD model with l1 that keeps the loop
        # moving for all rounds; the gradient entering round 201 has
        # been carried through 200 updates
        n = 30
        problem, _, _ = random_quadratic_problem(rng, [n], l1_gain=0.2)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spd = (basis * np.geomspace(1e-2, 1e2, n)) @ basis.T
        spd = 0.5 * (spd + spd.T)
        model = spd_model(spd, rng.standard_normal(n), rng.standard_normal(n))
        rounds, drift = carried_gradient_drift(monkeypatch, model, problem, 201)
        assert rounds == 201
        assert drift <= 1e-12

    def test_inner_chain_monotone_in_surrogate_objective(self, rng):
        # strict decrease holds until progress reaches the rounding floor
        problem, _, _ = random_quadratic_problem(rng, [6], l1_gain=0.2)
        model, _, _ = self._quad_outer(rng)
        reg = problem.nonsmooth[0]
        x_tau = model.anchor.copy()
        values = [model_value(model, x_tau) + reg.value(x_tau)]
        for _ in range(10):
            target = fresh_inner_step(model, x_tau, reg, problem.constraints[0])
            if np.linalg.norm(target - x_tau) <= 1e-13 * (1 + np.linalg.norm(x_tau)):
                break
            gamma = fresh_inner_stepsize(model, x_tau, target, reg)
            if gamma <= 0.0:
                break
            x_tau = x_tau + gamma * (target - x_tau)
            values.append(model_value(model, x_tau) + reg.value(x_tau))
        assert len(values) > 5
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_single_inner_iteration_still_decreases_outer(self, rng):
        for _ in range(10):
            problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.1)
            cfg = SolverConfig(max_outer_iterations=2, inner_iterations=1,
                               curvature=0.8, stop_tol=0.0)
            x0 = rng.standard_normal(6)
            trace = run_bsca(problem, inexact_solver(
                proximal_linear(0.8), cfg), cfg, x0)
            assert trace.objectives[1] < trace.objectives[0]

    def test_skip_when_block_already_optimal(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [4], l1_gain=0.3)
        cfg = SolverConfig(max_outer_iterations=4000, inner_iterations=5,
                           curvature=1.0, stop_tol=0.0)
        trace = run_bsca(problem, inexact_solver(proximal_linear(1.0), cfg),
                         cfg, rng.standard_normal(4))
        assert trace.termination_reason == "tolerance"
        restart_cfg = SolverConfig(max_outer_iterations=1, inner_iterations=5,
                                   curvature=1.0)
        restart = run_bsca(problem, inexact_solver(proximal_linear(1.0),
                                                   restart_cfg),
                           restart_cfg, trace.final_point.values)
        assert np.all(restart.stepsizes == 0.0)

    def test_box_constraints_respected_throughout(self, rng):
        seen = []
        problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.05,
                                                 box_halfwidth=0.25)
        spying = CompositeProblem(
            problem.partition,
            lambda x: (seen.append(x.copy()), problem.smooth_value(x))[1],
            problem.block_gradient, problem.nonsmooth, problem.constraints,
            problem.line_profile)
        cfg = SolverConfig(max_outer_iterations=30, inner_iterations=4,
                           curvature=1.0)
        trace = run_bsca(spying, inexact_solver(proximal_linear(1.0), cfg),
                         cfg, np.zeros(6))
        assert all(np.all(np.abs(x) <= 0.25 + 1e-12) for x in seen)
        assert np.all(np.abs(trace.final_point.values) <= 0.25 + 1e-12)


class TestGradientHandOff:
    """A model-based solver hands the engine the block gradient its model
    was built with; only solvers without one leave it to the problem."""

    @staticmethod
    def counted(problem):
        calls = []
        honest = problem.block_gradient

        def spy(x, k):
            calls.append(k)
            return honest(x, k)

        return dataclasses.replace(problem, block_gradient=spy), calls

    def test_inexact_solver_is_never_asked_again(self, rng):
        inst = generate_pr_instance(24, 60, density=0.1, num_blocks=2, seed=3)
        problem, calls = self.counted(pr_problem(inst))
        cfg = SolverConfig(max_outer_iterations=1, inner_iterations=3)
        solver = inexact_solver(
            lambda prob, x, k: pr_outer_model(prob, x, k, 1e-2), cfg)
        x = rng.standard_normal(24)
        for k in range(2):
            _, step, d = bsca_step(problem, solver, x, k, cfg)
            assert d < 0.0 and step.gamma > 0.0
        assert calls == []

    def test_surrogate_solver_keeps_the_bits_of_the_problem_gradient(self, rng):
        honest, _, _ = random_quadratic_problem(rng, [3, 4], l1_gain=0.2)
        problem, calls = self.counted(honest)
        cfg = SolverConfig(max_outer_iterations=1)
        solver = quadratic_solver(0.8)
        x = rng.standard_normal(7)
        for k in range(2):
            calls.clear()
            _, _, d = bsca_step(problem, solver, x, k, cfg)
            assert calls == [k]    # the surrogate factory's own call
            xk = honest.block_of(x, k)
            minimizer = solver(honest, x, k).minimizer
            reg = honest.nonsmooth[k]
            expected = descent_quantity(honest.block_gradient(x, k), minimizer, xk,
                                        reg.value(minimizer), reg.value(xk))
            assert d < 0.0 and d == expected

    def test_anomaly_solver_hands_over_the_sparse_gradient_alone(self):
        # the factor solves form no gradient; the sparse solve forms D'E
        inst = generate_anomaly_instance(5, 8, 6, rank=2, density=0.3, seed=5)
        problem, calls = self.counted(anomaly_problem(inst))
        cfg = SolverConfig(max_outer_iterations=1)
        x = state_to_vector(initial_state(inst, seed=0))
        for k in range(3):
            _, step, _ = bsca_step(problem, anomaly_solver(inst), x, k, cfg)
            assert step.gamma > 0.0
        assert calls == [0, 1]
        handed = anomaly_solver(inst)(problem, x, 2).gradient
        assert np.array_equal(handed, problem.block_gradient(x, 2))


class TestBgd:
    def test_alias_of_bsca_with_quadratic_surrogate(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=40, curvature=0.3, stop_tol=0.0)
        x0 = rng.standard_normal(6)
        assert np.array_equal(
            run_bgd(problem, cfg, x0).objectives,
            run_bsca(problem, quadratic_solver(0.3), cfg, x0).objectives)

    def test_one_dimensional_single_step(self):
        part = make_partition([1])
        problem = CompositeProblem(
            part, lambda x: float(0.5 * x[0] ** 2),
            lambda x, k: np.array([x[0]]), (Zero(),),
            line_profile=lambda x, d, block=None: quadratic_profile(
                float(d[0] ** 2), float(x[0] * d[0])))
        cfg = SolverConfig(max_outer_iterations=3, curvature=1.0)
        trace = run_bgd(problem, cfg, np.array([1.0]))
        assert trace.objectives[1] == pytest.approx(0.0, abs=1e-30)

    def test_large_gain_one_step_to_zero(self):
        part = make_partition([1])
        problem = CompositeProblem(
            part, lambda x: float(0.5 * x[0] ** 2),
            lambda x, k: np.array([x[0]]), (L1Norm(10.0),),
            line_profile=lambda x, d, block=None: quadratic_profile(
                float(d[0] ** 2), float(x[0] * d[0])))
        cfg = SolverConfig(max_outer_iterations=3, curvature=0.5)
        trace = run_bgd(problem, cfg, np.array([1.0]))
        assert trace.final_point.values == pytest.approx([0.0], abs=1e-30)

    def test_follows_the_configured_line_search(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=20, curvature=0.3, stop_tol=0.0,
                           line_search="successive")
        x0 = rng.standard_normal(6)
        trace = run_bgd(problem, cfg, x0)
        # Armijo rows record their backtracking exponent; exact ones -1
        assert any(e.armijo_exponent >= 0 for e in trace.entries[1:])
        assert np.array_equal(
            trace.objectives, run_bsca(problem, quadratic_solver(0.3), cfg, x0).objectives)


class TestBpgd:
    def test_zero_prox_input_maps_to_zero(self):
        got = bregman_step(np.zeros(3), np.zeros(3), 1.0, 5.0)
        assert np.array_equal(got, np.zeros(3))

    def test_unit_norm_cubic_root(self):
        # theta (theta^2 + 1) = 1 at ||v|| = 1
        roots = cubic_real_roots(1.0, 0.0, 1.0, -1.0)
        assert roots[-1] == pytest.approx(0.682327803828019, abs=1e-12)
        x = np.array([3.0, 4.0]) / 5.0
        # choose gradient so p = v has unit norm: grad = L*(omega'(x) - x)
        grad = (float(x @ x) + 1.0) * x - x
        got = bregman_step(x, grad, 1.0, 0.0)
        assert np.allclose(got, roots[-1] * x, rtol=1e-12)

    def test_cubic_root_over_every_squared_norm(self):
        # the theta that bregman_step takes: the positive root of
        # ||v||^2 t^3 + t - 1, for ||v||^2 = 10^k over the float range
        for k in range(-323, 309):
            v_sq = 10.0 ** k
            theta = float(cubic_real_roots(v_sq, 0.0, 1.0, -1.0)[-1])
            assert 0.0 < theta <= 1.0, k
            assert abs(v_sq * theta ** 3 + theta - 1.0) <= 1e-12, k

    def test_zero_gradient_zero_gain_fixed_point(self, rng):
        x = rng.standard_normal(4)
        got = bregman_step(x, np.zeros(4), 2.5, 0.0)
        assert np.allclose(got, x, rtol=1e-10)

    def test_paper_constant_monotone_descent(self, rng):
        inst = generate_pr_instance(30, 60, density=0.1, num_blocks=1, seed=4)
        x0 = rng.standard_normal(30)
        x0 /= np.linalg.norm(x0)
        cfg = SolverConfig(max_outer_iterations=300, stop_tol=0.0)
        trace = run_bpgd(inst, cfg, x0)
        assert np.all(np.diff(trace.objectives) <= 1e-12)
        assert bregman_constant(inst) > 0

    def test_each_candidate_forms_one_product(self, rng):
        # the guard's objective forms A'x at the candidate, and the
        # sweep-end check reads it there instead of forming it again:
        # one pass over A at the start and one per iteration, plus each
        # iteration's gradient A (u * (u^2 - y)); passes are counted as
        # the counting view's flops over those of one product with A
        plain = generate_pr_instance(400, 1000, density=0.01, seed=7)
        counts = Counter()
        inst = dataclasses.replace(
            plain, sampling=tracing.counting_view(plain.sampling, counts))
        x0 = rng.standard_normal(400)
        trace = run_bpgd(inst, SolverConfig(max_outer_iterations=10, stop_tol=0.0), x0)
        assert trace.iterations == 10
        assert np.count_nonzero(trace.stepsizes) == 10
        assert counts["flops"] == 21 * 2 * plain.sampling.size
        assert counts["full_products"] == 21
        assert trace.product_drift == 0.0
        reference = run_bpgd(plain, SolverConfig(max_outer_iterations=10, stop_tol=0.0),
                             x0)
        assert trace.objectives.tobytes() == reference.objectives.tobytes()

    @pytest.mark.parametrize("constant", [0.0, -1.0])
    def test_a_bregman_step_needs_a_positive_constant(self, constant):
        with pytest.raises(InvalidArgumentError, match="positive"):
            bregman_step(np.ones(3), np.ones(3), constant, 0.1)

    def test_a_stationary_start_skips_without_a_guard_evaluation(self, monkeypatch):
        # at the origin A'x = 0, so the gradient and the candidate are 0:
        # the step is skipped before the guard and the all-skip rule stops
        evaluated = []
        honest = engine._RunBook._evaluate
        monkeypatch.setattr(engine._RunBook, "_evaluate",
                            lambda book, *args: evaluated.append(args) or honest(book, *args))
        inst = generate_pr_instance(40, 60, density=0.05, seed=3)
        trace = run_bpgd(inst, SolverConfig(max_outer_iterations=5), np.zeros(40))
        assert trace.iterations == 1
        assert trace.termination_reason == "tolerance"
        assert trace.stepsizes.tolist() == [0.0, 0.0]
        assert evaluated == []

    def test_rejects_nonpositive_constant(self, rng):
        inst = generate_pr_instance(10, 20, density=0.2, num_blocks=1, seed=0)
        with pytest.raises(InvalidArgumentError):
            run_bpgd(inst, SolverConfig(max_outer_iterations=1), np.ones(10),
                     discount=-1.0)

    @pytest.mark.parametrize("bad", [dict(max_outer_iterations=-1),
                                     dict(line_search="bogus"),
                                     dict(inner_iterations=0)])
    def test_rejects_an_invalid_config(self, bad):
        inst = generate_pr_instance(10, 20, density=0.2, num_blocks=1, seed=0)
        cfg = SolverConfig(**{"max_outer_iterations": 5, **bad})
        with pytest.raises(ConfigError):
            run_bpgd(inst, cfg, np.ones(10))
