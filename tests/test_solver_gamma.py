"""Source-level fixed points of the two-part access scheme."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from relaystop import (
    EstimatorConfig,
    FixedGain,
    PolicyKind,
    SolverFailureError,
    full_csi_rate_sampler,
    solve_full_csi_lambda,
    solve_main_gamma_intuitive,
    solve_main_gamma_optimal,
    solve_sub_layer_batch,
    solve_sub_w_batch,
    success_prob,
)
from relaystop import channel, solver
from relaystop.policies import intuitive_main_decide
from .conftest import (
    ENGINE_FAILURE,
    L1_EST,
    hook_params,
    l1_policy_value,
    l1_reference,
    make_params,
    reference_sub_lambda,
    reference_w,
    stress_params,
)

EST = EstimatorConfig(mc_samples=1000, quad_points=64, seed=1, tol=1e-9)
# K = L = 1 with p0 = p1 = 0.5 and constant rate 1 (F = 3, g = 2)
HOOK = hook_params()
HOOK_HOPS = dict(first_hop=FixedGain(3.0), second_hop=FixedGain(2.0))
# gamma* = (T r / 2) / (T + tau/(2 p_r) + tau/(2 p_s)) = 1 / 2.4
HOOK_GAMMA = 1.0 / 2.4
STRESS = stress_params()


def test_intuitive_deterministic_closed_form():
    sol = solve_main_gamma_intuitive(HOOK, EST, **HOOK_HOPS)
    assert sol.value == pytest.approx(HOOK_GAMMA, abs=1e-8)
    assert abs(sol.residual) <= EST.tol


def test_optimal_deterministic_closed_form():
    sol = solve_main_gamma_optimal(HOOK, EST, **HOOK_HOPS)
    assert sol.value == pytest.approx(HOOK_GAMMA, abs=1e-8)
    assert abs(sol.residual) <= EST.tol


def _intuitive_residual(params, est, gamma):
    rows = np.random.default_rng(est.seed).exponential(
        params.first_hop_mean_gain, (est.mc_samples, params.num_relays))
    stats = solve_sub_layer_batch(params, rows, est)[0]
    p_s = success_prob(params.num_sources, params.source_prob)
    half_t = 0.5 * params.data_time
    bits = stats.threshold * stats.expected_time
    gain = np.maximum(bits - gamma * stats.expected_time - gamma * half_t, 0.0).mean()
    return gain - gamma * params.slot_time / (2.0 * p_s)


def _optimal_residual(params, est, gamma):
    rows = np.random.default_rng(est.seed).exponential(
        params.first_hop_mean_gain, (est.mc_samples, params.num_relays))
    w = solve_sub_w_batch(params, rows, gamma, est)[0]
    p_s = success_prob(params.num_sources, params.source_prob)
    half_t = 0.5 * params.data_time
    return np.maximum(w - half_t * gamma, 0.0).mean() \
        - gamma * params.slot_time / (2.0 * p_s)


def test_intuitive_residual_positive_at_zero():
    assert _intuitive_residual(make_params(), EST, 0.0) > 0.0


def test_intuitive_exponential_contract():
    params = make_params()
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_intuitive(params, est)
    assert abs(sol.residual) <= est.tol
    assert _intuitive_residual(params, est, sol.value) == pytest.approx(sol.residual, abs=1e-12)


def test_optimal_exponential_contract():
    params = make_params()
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(params, est)
    assert abs(sol.residual) <= est.tol
    assert _optimal_residual(params, est, sol.value) == pytest.approx(sol.residual, abs=2e-7)


def test_reward_rule_dominates_intuitive_rule():
    # both rules are priced on the same realization set, where the coupled
    # rule is optimal over a class that contains the intuitive rule
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=3, tol=1e-6)
    for params in (make_params(),
                   make_params(num_relays=4, relay_prob=0.25, second_hop_mean_gain=0.25),
                   make_params(num_sources=4, source_prob=0.25, slot_time=0.4)):
        g_int = solve_main_gamma_intuitive(params, est)
        g_opt = solve_main_gamma_optimal(params, est)
        assert g_opt.value >= g_int.value - 10.0 * est.tol
        # independent of the coupled solver's start: priced by the batch W solves
        assert _optimal_residual(params, est, g_int.value) >= -est.tol


def test_optimal_residual_decreasing_with_root_at_gamma_star():
    params = make_params()
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(params, est)
    grid = np.linspace(0.2 * sol.value, 1.8 * sol.value, 9)
    values = [_optimal_residual(params, est, g) for g in grid]
    assert np.all(np.diff(values) < 0.0)
    assert values[0] > 0.0 > values[-1]
    # the sign-change cell meets the solver's certified enclosure: both hold the root
    signs = np.sign(values)
    flip = int(np.argmax(np.diff(signs) != 0))
    assert grid[flip] <= sol.bracket[1] and sol.bracket[0] <= grid[flip + 1]


def test_gamma_uniqueness_scan():
    params = make_params()
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    for residual in (_intuitive_residual, _optimal_residual):
        grid = np.linspace(0.0, 3.0, 100)
        signs = np.sign([residual(params, est, g) for g in grid])
        nonzero = signs[signs != 0]
        assert int(np.sum(np.diff(nonzero) != 0)) == 1


def test_gamma_monotone_in_second_hop_gain():
    # a stochastically better second hop can only raise the optimum
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=6, tol=1e-6)
    by_gain = [
        solve_main_gamma_optimal(make_params(second_hop_mean_gain=s), est).value
        for s in (0.5, 1.0, 2.0)
    ]
    assert by_gain[0] <= by_gain[1] <= by_gain[2]


def test_gamma_not_monotone_in_relay_count():
    # Adding relays dilutes the uniform-winner relay contention: the winner
    # cannot be steered to the best relay, so relay count can lower the
    # two-part optimum even with per-relay contention spread and cheap slots.
    # Pinned counterexample; relay diversity does monotonically help the
    # full-CSI threshold (covered in the full-CSI tests and the CLI sweep).
    est = EstimatorConfig(mc_samples=4000, quad_points=64, seed=6, tol=1e-6)
    one = solve_main_gamma_optimal(
        make_params(num_relays=1, relay_prob=1.0, slot_time=0.02), est).value
    two = solve_main_gamma_optimal(
        make_params(num_relays=2, relay_prob=0.5, slot_time=0.02), est).value
    assert two < one - 0.05


def test_time_unit_invariance_bilevel():
    base_int = solve_main_gamma_intuitive(HOOK, EST, **HOOK_HOPS)
    base_opt = solve_main_gamma_optimal(HOOK, EST, **HOOK_HOPS)
    scaled = hook_params(slot_time=0.2 * 2.5, data_time=2.0 * 2.5)
    assert solve_main_gamma_intuitive(scaled, EST, **HOOK_HOPS).value == pytest.approx(
        base_int.value, abs=5e-9)
    assert solve_main_gamma_optimal(scaled, EST, **HOOK_HOPS).value == pytest.approx(
        base_opt.value, abs=5e-9)


def solve_sampled_full_csi(params, est):
    """The full-CSI solve on the seed's sample: the path of an explicit rate_sampler."""
    return solve_full_csi_lambda(params, est, full_csi_rate_sampler(params))


# every outer solve: the exact full-CSI one, the sampled one, and both bi-level ones
OUTER_SOLVES = (solve_full_csi_lambda, solve_sampled_full_csi, solve_main_gamma_intuitive,
                solve_main_gamma_optimal)


def _outer_residuals(monkeypatch, solve, params, est):
    """Solve, and keep each (evaluate, cost) the solve passed to the outer engine."""
    engine = solver._solve_convex
    seen = []

    def spy(evaluate, cost, *args, **kwargs):
        seen.append((evaluate, cost))
        return engine(evaluate, cost, *args, **kwargs)

    monkeypatch.setattr(solver, "_solve_convex", spy)
    sol = solve(params, est)
    monkeypatch.undo()
    return sol, seen


@pytest.mark.parametrize("params", [make_params(), STRESS], ids=["base", "stress"])
def test_outer_slopes_match_finite_differences(monkeypatch, params):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-12)
    for solve in OUTER_SOLVES:
        sol, seen = _outer_residuals(monkeypatch, solve, params, est)
        evaluate, _ = seen[-1]
        # the sampled lambda* and the intuitive residual are piecewise linear,
        # so h only has to beat rounding, as it does for the exact lambda*'s
        # smooth one; the coupled one is smooth between kinks, and h keeps the
        # inner solves' error (tol / h) small
        h = 1e-5 if solve is solve_main_gamma_optimal else 1e-7
        for x in (0.5 * sol.value, sol.value, 1.2 * sol.value):
            residual, slope, _ = evaluate(x)
            backward = (residual - evaluate(x - h)[0]) / h
            forward = (evaluate(x + h)[0] - residual) / h
            # a convex residual's right derivative lies between the one-sided
            # differences, also when a kink of the sample average is in between
            slack = 1e-6 * abs(slope)
            assert backward - slack <= slope <= forward + slack, (solve.__name__, x)
            assert forward - backward <= 1e-3 * abs(slope), (solve.__name__, x)


def test_outer_newton_from_right_of_the_root(monkeypatch):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    for solve in OUTER_SOLVES:
        sol, seen = _outer_residuals(monkeypatch, solve, STRESS, est)
        evaluate, cost = seen[-1]
        assert evaluate(1.5 * sol.value)[0] < 0.0
        again = solver._solve_convex(evaluate, cost, est, "restart", start=1.5 * sol.value)
        assert again.value == pytest.approx(sol.value, abs=2.0 * est.tol)
        assert again.bracket[0] <= again.value <= again.bracket[1]
        assert abs(again.residual) <= est.tol


def _coupled_started_at(monkeypatch, est, move):
    """The coupled stress solve with its intuitive start moved to ``move(start)``."""
    intuitive = solver._intuitive_gamma

    def moved(*args):
        start = intuitive(*args)
        return dataclasses.replace(start, value=move(start.value))

    monkeypatch.setattr(solver, "_intuitive_gamma", moved)
    again = solve_main_gamma_optimal(STRESS, est)
    monkeypatch.undo()
    return again


def test_coupled_fallback_when_start_is_right_of_the_root(monkeypatch):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(STRESS, est)
    # every row is inactive at 1.5x the start: the slope is -cost and the
    # tangent root is 0, so the solve climbs back from there
    again = _coupled_started_at(monkeypatch, est, lambda start: 1.5 * start)
    assert again.iterations > sol.iterations
    assert again.value == pytest.approx(sol.value, abs=2.0 * est.tol)
    assert again.bracket[0] <= again.value <= again.bracket[1]
    assert abs(again.residual) <= est.tol


def test_coupled_start_just_right_of_the_root_steps_back(monkeypatch):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(STRESS, est)
    # a start a hair right of the root, as when gamma_int is within noise of
    # gamma_opt: the tangent step lands just left of the root
    again = _coupled_started_at(monkeypatch, est, lambda start: sol.value + 4e-4)
    assert again.iterations <= 4
    assert again.value == pytest.approx(sol.value, abs=2.0 * est.tol)
    assert again.bracket[0] <= again.value <= again.bracket[1]
    assert abs(again.residual) <= est.tol


def test_coupled_root_inside_residual_sign_change_on_stress_config():
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    sol = solve_main_gamma_optimal(STRESS, est)
    assert sol.bracket[0] <= sol.value <= sol.bracket[1]
    assert _optimal_residual(STRESS, est, sol.value - 10.0 * est.tol) > 0.0
    assert _optimal_residual(STRESS, est, sol.value + 10.0 * est.tol) < 0.0


@pytest.mark.parametrize("params", [make_params(), STRESS], ids=["base", "stress"])
def test_coupled_start_is_the_intuitive_solution(params):
    # the coupled solve returns the intuitive solve it started from, field for
    # field; neither the intuitive nor the full-CSI solution has a start
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    intuitive = solve_main_gamma_intuitive(params, est)
    assert solve_main_gamma_optimal(params, est).start == intuitive
    assert intuitive.start is None and solve_full_csi_lambda(params, est).start is None


def test_inner_iterations_are_counted():
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    assert solve_full_csi_lambda(STRESS, est).inner_iterations == 0
    intuitive = solve_main_gamma_intuitive(STRESS, est)
    coupled = solve_main_gamma_optimal(STRESS, est)
    assert intuitive.inner_iterations > 0
    # the coupled count includes the intuitive start and one W solve per evaluation
    assert coupled.inner_iterations > intuitive.inner_iterations + coupled.iterations


@pytest.mark.parametrize("params, hops", [(make_params(), {}), (STRESS, {}),
                                          (make_params(), dict(second_hop=FixedGain(0.8)))],
                         ids=["base", "stress", "fixed"])
def test_coupled_evaluations_are_warm_started(monkeypatch, params, hops):
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=3, tol=1e-6)
    engine = solver._newton_rows
    calls = []

    def spy(kernel, cost_slope, targets, est_, theta_scale, start=None):
        out = engine(kernel, cost_slope, targets, est_, theta_scale, start)
        calls.append((kernel, cost_slope, targets, theta_scale, start, out))
        return out

    monkeypatch.setattr(solver, "_newton_rows", spy)
    sol = solve_main_gamma_optimal(params, est, **hops)
    monkeypatch.undo()
    coupled = [c for c in calls if c[1] == 0.0]
    assert len(coupled) == sol.iterations
    assert coupled[0][4] is None
    assert all(start is not None for *_, start, _ in coupled[1:])
    for kernel, cost_slope, targets, theta_scale, start, out in coupled[1:]:
        assert out[3] <= 3
        cold = engine(kernel, cost_slope, targets, est, theta_scale)
        tol = est.tol * max(1.0, theta_scale * float(np.abs(cold[0]).max()))
        np.testing.assert_allclose(theta_scale * out[0], theta_scale * cold[0],
                                   rtol=0.0, atol=2.0 * tol)
    assert sol.inner_iterations == sum(c[5][3] for c in calls)
    assert sol.kernel_rows == sum(c[5][4] for c in calls)


W_ROWS = np.random.default_rng(11).exponential(STRESS.first_hop_mean_gain, (300, 4))
CAP_CASES = {
    "full-csi": (lambda est: solve_full_csi_lambda(STRESS, est), "full-CSI throughput"),
    "intuitive": (lambda est: solve_main_gamma_intuitive(STRESS, est),
                  r"two-part throughput \(intuitive rule\): relay-level rows"),
    "coupled": (lambda est: solve_main_gamma_optimal(STRESS, est),
                r"two-part throughput \(coupled rule\) at 0\.7\d+: relay-level rows"),
    "w": (lambda est: solve_sub_w_batch(STRESS, W_ROWS, 0.7, est), "relay-level rows"),
}


@pytest.mark.parametrize("name", list(CAP_CASES))
def test_iteration_cap_failure_names_the_solve(monkeypatch, name):
    solve, where = CAP_CASES[name]
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=1, tol=1e-6)
    if name == "coupled":
        # its intuitive start, solved under the full cap, is injected, so
        # that the coupled solve's own rows hit the cap
        start = solve_main_gamma_intuitive(STRESS, est)
        monkeypatch.setattr(solver, "_intuitive_gamma", lambda *args: start)
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    worst = "0" if name == "full-csi" else r"\d+"
    with pytest.raises(SolverFailureError,
                       match=f"^{where}: " + ENGINE_FAILURE.format(2, worst, r"\S+")):
        solve(est)


def test_stress_solve_work_budget():
    # The evaluations the solves take on the stress config at seed 1, as
    # upper bounds: an engine change that costs evaluations fails here.
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=1, tol=1e-6)
    budgets = {solve_full_csi_lambda: (5, 0, 0),
               solve_main_gamma_intuitive: (4, 6, 40_004),
               solve_main_gamma_optimal: (4, 21, 120_048)}
    for solve, budget in budgets.items():
        sol = solve(STRESS, est)
        work = (sol.iterations, sol.inner_iterations, sol.kernel_rows)
        assert all(used <= most for used, most in zip(work, budget)), (solve.__name__, work)


def test_coupled_solve_with_a_subnormal_stop_probability_raises_no_warning():
    # 1037 sources, the most SystemParams accepts at p_s = 0.5: gamma* is about
    # 4.3e-308, and where a row's relay stop probability P is subnormal its
    # outer slope term k / P overflows; that infinite slope makes the outer
    # Newton bisect, as at P = 0, and must not warn
    params = dataclasses.replace(STRESS, num_sources=1037)
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=0, tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_main_gamma_optimal(params, est)
    assert 0.0 < sol.value < 1e-307 and abs(sol.residual) <= est.tol


def test_engine_raises_at_once_when_the_enclosure_holds_no_float_inside():
    # a residual 1e-3 above tol everywhere, with a slope bound so steep that the
    # upper end x + f / cost rounds back to x: [1, 1] holds no other float
    def residual(x, rows):
        return np.full(x.size, 1e-3), np.full(x.size, np.inf)

    with pytest.raises(SolverFailureError,
                       match=r"^row: " + ENGINE_FAILURE.format(1, 0, r"0\.001")):
        solver._newton(residual, np.ones(1), np.zeros(1), np.full(1, np.inf), np.zeros(1),
                       1e-6, 1.0, "row", 1e300)


@pytest.mark.parametrize("num_sources, seed, lower", [(1037, 1, 4.3232098961815346e-308),
                                                      (1030, 2, 5.458734183053888e-306)])
def test_coupled_solve_at_the_edge_raises_once_its_enclosure_closes(num_sources, seed, lower):
    # past the edge of the stress config the outer residual stays above tol while
    # bisection closes the enclosure onto one float (1037 sources) or two adjacent
    # ones (1030): the solve raises there, naming it, and does not evaluate the
    # same gamma again until MAX_ITER
    params = dataclasses.replace(STRESS, num_sources=num_sources)
    est = EstimatorConfig(mc_samples=2000, quad_points=64, seed=seed, tol=1e-6)
    with pytest.raises(SolverFailureError, match=ENGINE_FAILURE.format(
            r"(\d+)", 0, r"\S+")) as err:
        solve_main_gamma_optimal(params, est)
    iters, lo, hi = re.search(r"after (\d+) .* enclosure \[(\S+), (\S+)\]",
                              str(err.value)).groups()
    assert int(iters) < solver.MAX_ITER
    assert float(lo) == lower and np.nextafter(float(lo), np.inf) >= float(hi)


# --- the exact reference at L = 1 ---------------------------------------------

L1 = make_params(num_relays=1, relay_prob=1.0)  # the two-part base with one relay
BILEVEL = [PolicyKind.INTUITIVE_BILEVEL, PolicyKind.OPTIMAL_BILEVEL]


@pytest.fixture(scope="module")
def l1_refs():
    """Each bi-level rule's L = 1 reference at 60 and at 120 nodes."""
    return {kind: [l1_reference(L1, kind, nodes) for nodes in (60, 120)] for kind in BILEVEL}


@pytest.mark.parametrize("kind, gamma", zip(BILEVEL, [1.144911936937, 1.165030850021]),
                         ids=["intuitive", "coupled"])
def test_l1_reference_converges_as_the_nodes_double(l1_refs, kind, gamma):
    coarse, fine = l1_refs[kind]
    assert abs(coarse.gamma - fine.gamma) <= 1e-12
    assert abs(fine.gamma - gamma) <= 1e-12


def test_l1_reference_nodes_match_the_bisection_references(l1_refs):
    # the sum's relay-level values at a few nodes, from the batch solvers,
    # against the scalar bisections on the single-realization positive part
    est = EstimatorConfig(tol=1e-12)
    for kind in BILEVEL:
        ref = l1_refs[kind][0]
        f = ref.nodes[[0, 3, 10, 25]]
        if kind is PolicyKind.INTUITIVE_BILEVEL:
            got = solve_sub_layer_batch(L1, f[:, None], L1_EST)[0].threshold
            want = [reference_sub_lambda(L1, [x], est) for x in f]
        else:
            got = solve_sub_w_batch(L1, f[:, None], ref.gamma, L1_EST)[0]
            want = [reference_w(L1, [x], ref.gamma, est) for x in f]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11, err_msg=kind.name)


def test_l1_solvers_are_unbiased_within_their_sampling_error(l1_refs):
    # Seeds 1-5 at 50k samples, fixed before the first run. Each sampled root
    # has sd ref.sd / sqrt(n) (delta method), so the mean of k roots lies
    # within 4 ref.sd / sqrt(k n) of gamma* but for a 6e-5 chance; 1e-5
    # bounds the O(1/n) bias of a sampled root (CHANGES.md has both).
    seeds, n = range(1, 6), 50_000
    roots = {kind: [] for kind in BILEVEL}
    for seed in seeds:
        est = EstimatorConfig(mc_samples=n, seed=seed, tol=1e-9)
        coupled = solve_main_gamma_optimal(L1, est)
        roots[PolicyKind.INTUITIVE_BILEVEL].append(coupled.start.value)
        roots[PolicyKind.OPTIMAL_BILEVEL].append(coupled.value)
    for kind, ref in ((kind, l1_refs[kind][1]) for kind in BILEVEL):
        bound = 4.0 * ref.sd / np.sqrt(len(seeds) * n) + 1e-5
        assert abs(np.mean(roots[kind]) - ref.gamma) <= bound, (kind.name, roots[kind], bound)


# --- each rule's policy value V(gamma') at L = 1 -------------------------------
#
# At an imposed rate gamma' each rule defines a complete policy: the source
# stops where the rule's gain is >= 0, and the relay at R >= lam(f)
# (intuitive) or R >= gamma' + W/(T/2) (coupled). Its throughput V(gamma')
# exceeds gamma' by R(gamma') / (expected cycle time), R the rule's
# source-level residual (Dinkelbach), so V(gamma') >= gamma' exactly when
# gamma' <= gamma*, and V(gamma*) = gamma*: a scan of V finds gamma* with no
# root search of the solver's.

L1_STARS = {PolicyKind.INTUITIVE_BILEVEL: 1.1449119369370,
            PolicyKind.OPTIMAL_BILEVEL: 1.1650308500211}


@pytest.fixture(scope="module")
def l1_scans(l1_refs):
    """Each rule's V on 21 points 0.005 apart, the middle one its gamma*."""
    scans = {}
    for kind in BILEVEL:
        grid = l1_refs[kind][1].gamma + 0.005 * np.arange(-10, 11)
        scans[kind] = grid, np.array([l1_policy_value(L1, kind, g) for g in grid])
    return scans


@pytest.mark.parametrize("kind", BILEVEL, ids=["intuitive", "coupled"])
def test_l1_policy_value_peaks_at_the_rules_own_gamma(l1_scans, kind):
    grid, value = l1_scans[kind]
    assert abs(value[10] - grid[10]) <= 1e-12
    assert abs(value[10] - L1_STARS[kind]) <= 1e-12
    assert int(np.argmax(value)) == 10
    away = np.arange(grid.size) != 10
    np.testing.assert_array_equal((value >= grid)[away], (grid <= grid[10])[away])


def test_l1_coupled_policy_beats_the_intuitive_one_at_its_rate(l1_refs):
    # even at the intuitive rule's own rate the coupled policy earns more
    # than the best intuitive policy, V_int(gamma_int) = gamma_int
    gamma_int = l1_refs[PolicyKind.INTUITIVE_BILEVEL][1].gamma
    value = l1_policy_value(L1, PolicyKind.OPTIMAL_BILEVEL, gamma_int)
    assert value == pytest.approx(1.16468, abs=5e-6)
    assert value > gamma_int


# --- the source-level stop sets along one first-hop gain ------------------------
#
# The coupled rule stops the source iff W >= (T/2) gamma*, and W is
# nondecreasing in each first-hop gain: at fixed theta the kernel's excess
# rises in each a_j = Ps f_j. So its stop set is a threshold in W and an upper
# set of first-hop gains. The intuitive rule's gain (lam(f) - gamma) time(f)
# - gamma T/2 is not monotone at L >= 2, so its stop set is not.


def _gain_lines(params, rng, lines: int, points: int) -> np.ndarray:
    """First-hop rows along ``lines`` lines, each varying the gain of relay
    line % L over [0, 80] at ``points`` points, the others at one draw."""
    num_relays = params.num_relays
    rows = np.repeat(rng.exponential(params.first_hop_mean_gain, (lines, 1, num_relays)),
                     points, axis=1)
    rows[np.arange(lines), :, np.arange(lines) % num_relays] = np.linspace(0.0, 80.0, points)
    return rows.reshape(-1, num_relays)


def _assert_w_rises_along_lines(params, gamma: float, lines: int = 60, points: int = 800):
    tol = 1e-12
    rows = _gain_lines(params, np.random.default_rng(13), lines, points)
    w = solve_sub_w_batch(params, rows, gamma, EstimatorConfig(tol=tol))[0].reshape(lines, points)
    # each W is within tol max(1, (T/2) theta) of its root, (T/2) theta = W + (T/2) gamma
    err = tol * np.maximum(1.0, np.abs(w + 0.5 * params.data_time * gamma))
    falls = np.diff(w, axis=1) < -(err[:, 1:] + err[:, :-1])
    assert not falls.any(), (f"W falls on {falls.any(axis=1).sum()} of {lines} lines, "
                             f"by up to {-np.diff(w, axis=1).max()}")


class _FlippedRelayKernel:
    """A defective second-hop kernel: relay 1's excess and tail enter the
    relay mean with the wrong sign."""

    def __init__(self, params, rows, second_hop=None):
        self.full, self.one = (channel.second_hop_kernel(params, r, second_hop)
                               for r in (rows, rows[:, :1]))
        self.flip = 2.0 / rows.shape[1]
        self.rows, self.sat_top = rows, self.full.sat_top
        self.e0 = self.full.e0 - self.flip * self.one.e0

    def excess_tail(self, thetas, idx=slice(None)):
        (excess, tail), (one_excess, one_tail) = (k.excess_tail(thetas, idx)
                                                  for k in (self.full, self.one))
        return excess - self.flip * one_excess, tail - self.flip * one_tail


def _solved_coupled_gamma(params) -> float:
    return solve_main_gamma_optimal(params, EstimatorConfig(mc_samples=2000, seed=1)).value


@pytest.mark.parametrize("params", [make_params(), STRESS], ids=["base", "stress"])
def test_coupled_gain_rises_in_each_first_hop_gain(params):
    _assert_w_rises_along_lines(params, _solved_coupled_gamma(params))


def test_a_kernel_with_one_relay_flipped_fails_the_rise(monkeypatch):
    params = make_params()
    gamma = _solved_coupled_gamma(params)
    monkeypatch.setattr(solver, "second_hop_kernel", _FlippedRelayKernel)
    with pytest.raises(AssertionError, match="W falls on"):
        _assert_w_rises_along_lines(params, gamma)


def test_intuitive_stop_set_is_not_an_upper_set():
    # make_params() at gamma 1.0176 with f2 = 1.2853, along f1: the rule
    # accepts f1 <= 0.2715, rejects [0.272, 0.361], and accepts from 0.3615 on;
    # its gain dips to -0.00908 at f1 = 0.307
    params = make_params()
    gamma, f1 = 1.0176, np.linspace(0.0, 1.0, 2001)
    stats = solve_sub_layer_batch(params, np.column_stack([f1, np.full_like(f1, 1.2853)]),
                                  EstimatorConfig(tol=1e-12))[0]
    stop = intuitive_main_decide(gamma, stats, params.data_time)
    assert stop[0] and stop[-1]
    assert f1[1:][stop[1:] != stop[:-1]] == pytest.approx([0.272, 0.3615], abs=1e-12)
    gain = (stats.threshold * stats.expected_time
            - gamma * (stats.expected_time + 0.5 * params.data_time))
    assert f1[np.argmin(gain)] == pytest.approx(0.307, abs=1e-12)
    assert gain.min() == pytest.approx(-0.00908, abs=5e-6)
    assert np.abs(gain).min() > 1e-6  # every decision is far from the solver tol


# --- the diversity claim as exact relations on one fixed sample -----------------
#
# No-wait (accept every source winner, and then the first relay) is one policy
# of each optimum's problem, so lambda* and the coupled gamma* are at least its
# throughput. The intuitive gamma* is not an optimum of its sample problem, so
# no-wait bounds nothing for it. At p = 1/N the sources are exchangeable: the
# first-hop rows do not depend on N, which enters each solve only through its
# contention cost tau / p_s, and p_s = (1 - 1/N)^(N - 1) falls in N, so each
# root falls. Each root is good to the solver's tol, and each relation allows
# that and no other margin.

DIVERSITY_EST = EstimatorConfig(mc_samples=2000, seed=1, tol=1e-9)
SOURCE_COUNTS = (1, 2, 4, 8, 16)


def _assert_optima_beat_no_wait(params, est=DIVERSITY_EST):
    t, tau = params.data_time, params.slot_time
    p_s = success_prob(params.num_sources, params.source_prob)
    p_r = success_prob(params.num_relays, params.relay_prob)
    lam = solve_full_csi_lambda(params, est).value
    no_wait = 0.5 * t * channel.best_relay_excess_tail(params, 0.0)[0] / (t + tau / p_s)
    assert lam >= no_wait - est.tol, ("lambda*", lam, no_wait)
    # the coupled solve's own rows, and their mean relay rates e0
    rows = channel.sample_first_hop_rows(params, np.random.default_rng(est.seed),
                                         est.mc_samples)
    e0 = channel.second_hop_kernel(params, rows).e0
    gamma = solve_main_gamma_optimal(params, est).value
    no_wait = 0.5 * t * e0.mean() / (t + tau / (2.0 * p_s) + tau / (2.0 * p_r))
    assert gamma >= no_wait - est.tol, ("coupled gamma*", gamma, no_wait)


def _assert_roots_fall_in_sources(params, est=DIVERSITY_EST):
    flat = []  # each solve whose roots do not fall, with its roots
    for solve in (solve_full_csi_lambda, solve_main_gamma_intuitive, solve_main_gamma_optimal):
        roots = [solve(dataclasses.replace(params, num_sources=n, source_prob=1.0 / n), est).value
                 for n in SOURCE_COUNTS]
        if not np.all(np.diff(roots) < -2.0 * est.tol):
            flat.append((solve.__name__, roots))
    assert not flat, "; ".join(f"{name}: {roots}" for name, roots in flat)


@pytest.mark.parametrize("params", [make_params(), STRESS], ids=["base", "stress"])
def test_optima_beat_the_no_wait_policy(params):
    _assert_optima_beat_no_wait(params)


def test_every_root_falls_in_the_source_count():
    _assert_roots_fall_in_sources(make_params())


def _rate_law_in_nats(params, theta):
    """A defective best-relay law: rates in nats, not bits (ln 2 times as large)."""
    excess, tail = channel.best_relay_excess_tail(params, theta / channel.LN2)
    return channel.LN2 * excess, tail


class _KernelInNats:
    """A defective second-hop kernel: rates in nats, not bits."""

    def __init__(self, params, rows, second_hop=None):
        self.bits = channel.second_hop_kernel(params, rows, second_hop)
        self.rows, self.sat_top = rows, channel.LN2 * self.bits.sat_top
        self.e0 = channel.LN2 * self.bits.e0

    def excess_tail(self, thetas, idx=slice(None)):
        excess, tail = self.bits.excess_tail(np.asarray(thetas) / channel.LN2, idx)
        return channel.LN2 * excess, tail


# Each relation with a defect planted in the solver, and the solve it names:
# lambda* and the coupled gamma* on rates in nats, 0.69 times the rates in
# bits, and every solve on a contention cost that ignores p_s (p_s = 1 at
# every N). The no-wait relations catch only errors this gross: the coupled
# gamma* in nats fails by 1.2%.
DIVERSITY_DEFECTS = {
    "lambda-no-wait": (_assert_optima_beat_no_wait, "best_relay_excess_tail",
                       _rate_law_in_nats, r"lambda\*"),
    "coupled-no-wait": (_assert_optima_beat_no_wait, "second_hop_kernel", _KernelInNats,
                        "coupled gamma"),
    "source-count": (_assert_roots_fall_in_sources, "success_prob", lambda n, p: 1.0,
                     "solve_full_csi_lambda.*solve_main_gamma_intuitive.*"
                     "solve_main_gamma_optimal"),
}


@pytest.mark.parametrize("relation, name, defect, message", DIVERSITY_DEFECTS.values(),
                         ids=DIVERSITY_DEFECTS.keys())
def test_a_planted_defect_fails_each_diversity_relation(monkeypatch, relation, name, defect,
                                                        message):
    monkeypatch.setattr(solver, name, defect)
    with pytest.raises(AssertionError, match=message):
        relation(make_params())
