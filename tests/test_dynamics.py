"""Tests for integration, Poincare maps, fixed points, Floquet analysis,
the testbed systems and the Lambert-W exact planar graph."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import lambertw as scipy_lambertw

from ssmfrac import dynamics, examples
from ssmfrac.errors import (BadParams, EvaluationBudget, InputError,
                            NoConvergence, NonFinite, NotPeriodic,
                            NumericalError, OutOfDomain, StepUnderflow,
                            UnknownTestbed, WrongShape)

FORCED_PARAMS = {"c": 0.03, "A": 0.11, "Omega": 1.07}
FORCED_T = 2 * math.pi / 1.07


def forced_system():
    return dynamics.testbed("shaw_pierre", FORCED_PARAMS)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_linear_decay():
    sys = dynamics.FlowSystem(dim=1, f=lambda t, x: -x)
    traj = dynamics.integrate(sys, [1.0], (0.0, 2.0), tol=1e-10)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-2.0), abs=1e-9)


def test_integrate_rejects_bad_tol():
    sys = dynamics.FlowSystem(dim=1, f=lambda t, x: -x)
    with pytest.raises(InputError):
        dynamics.integrate(sys, [1.0], (0.0, 1.0), tol=1e-2)


def test_integrate_rejects_nonfinite_ic():
    sys = dynamics.FlowSystem(dim=1, f=lambda t, x: -x)
    with pytest.raises(NonFinite):
        dynamics.integrate(sys, [np.nan], (0.0, 1.0))


def test_integrate_blowup_raises():
    sys = dynamics.FlowSystem(dim=1, f=lambda t, x: x ** 2)
    with pytest.raises((NonFinite, StepUnderflow)):
        dynamics.integrate(sys, [1.0], (0.0, 5.0), tol=1e-9)


@pytest.mark.parametrize("solve", [
    lambda sys: dynamics.integrate(sys, [1.0], (0.0, 10.0)),
    lambda sys: dynamics.flow_map(sys, [1.0], 10.0)],
    ids=["integrate", "flow_map"])
def test_stiff_system_exhausts_the_evaluation_budget(solve, monkeypatch):
    """x' = -1e7 x keeps an explicit Runge-Kutta pair at steps of about
    3e-7, so [0, 10] would take some 2e8 evaluations; the budget stops it
    with a numerical error (CLI exit 3). The budget is lowered to 6,000
    evaluations so that the same raise path runs in a fraction of a
    second."""
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 6_000)
    stiff = dynamics.FlowSystem(dim=1, f=lambda t, x: -1e7 * x,
                                jac=lambda t, x: np.array([[-1e7]]))
    assert issubclass(EvaluationBudget, NumericalError)
    with pytest.raises(EvaluationBudget, match=str(dynamics.MAX_RHS_EVALS)):
        solve(stiff)


def test_energy_conserved_without_damping():
    sys = dynamics.testbed("shaw_pierre", {"c": 0.0})
    ic = [0.3, 0.0, -0.2, 0.1]
    e0 = dynamics.shaw_pierre_energy(ic, m=1.0, k=1.0, gamma=0.5)
    drifts = []
    for tol in (1e-6, 1e-9):
        traj = dynamics.integrate(sys, ic, (0.0, 50.0), tol=tol)
        e1 = dynamics.shaw_pierre_energy(traj.states[-1], m=1.0, k=1.0,
                                         gamma=0.5)
        drifts.append(abs(e1 - e0))
    assert drifts[1] < drifts[0]
    assert drifts[1] < 1e-7


def test_integrate_samples_at_t_eval():
    sys = dynamics.FlowSystem(dim=1, f=lambda t, x: -x)
    times = 0.5 * np.arange(7)
    traj = dynamics.integrate(sys, [1.0], (0.0, 3.0), tol=1e-10,
                              t_eval=times)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-times), atol=1e-8)


DECAY = dynamics.FlowSystem(dim=1, f=lambda t, x: -x,
                            jac=lambda t, x: np.array([[-1.0]]))


@pytest.mark.parametrize("solve", [
    lambda: dynamics.integrate(DECAY, [1.0], (1.0, 1.0), t_eval=[1.0, 1.0]),
    lambda: dynamics.integrate(DECAY, [1.0], (0.0, 1.0), t_eval=[0.5, 2.0]),
    lambda: dynamics.integrate(DECAY, [1.0], (0.0, 1.0), t_eval=[np.nan]),
    lambda: dynamics.integrate(DECAY, [1.0], (0.0, np.nan)),
    lambda: dynamics.integrate(DECAY, [1.0], (0.0, np.inf)),
    lambda: dynamics.flow_map(DECAY, [1.0], np.nan),
    lambda: dynamics.flow_map(DECAY, [1.0], np.inf),
    lambda: dynamics.integrate(DECAY, [1.0], (0.0, 1.0), t_eval=[0.5, 0.2]),
    lambda: dynamics.integrate(DECAY, [1.0], (1.0, 0.0),
                               t_eval=[0.2, 0.5]),
    lambda: dynamics.integrate(DECAY, [1.0], (0.0, 1.0), t_eval=[])],
    ids=["zero_length", "t_eval_past_end", "t_eval_nan", "nan_end",
         "infinite_end", "flow_map_nan", "flow_map_infinite",
         "t_eval_unsorted", "t_eval_against_reversed_span", "t_eval_empty"])
def test_degenerate_span_is_input_error(solve):
    """A span with a non-finite end, a zero-length span, or sample times
    that are empty, outside the span or not strictly in its direction are
    bad input (CLI exit 2), raised before the solver runs."""
    with pytest.raises(InputError):
        solve()


SYSTEMS = {"mixed3d": dynamics.testbed("mixed3d"), "forced": forced_system(),
           "decay": DECAY}


@pytest.mark.parametrize("name, solve", [
    ("mixed3d", lambda sys: dynamics.integrate(sys, [0.1, 0.0], (0.0, 1.0))),
    ("mixed3d", lambda sys: dynamics.integrate(sys, [[0.1, 0.0, 0.0]],
                                               (0.0, 1.0))),
    ("decay", lambda sys: dynamics.integrate(sys, [], (0.0, 1.0))),
    ("mixed3d", lambda sys: dynamics.flow_map(sys, [0.1, 0.0], 1.0)),
    ("forced", lambda sys: dynamics.newton_fixed_point(
        sys, dynamics.FORCED_SEEDS["middle"][:3])),
    ("forced", lambda sys: dynamics.floquet(
        sys, dynamics.FORCED_SEEDS["middle"][:3])),
    ("decay", lambda sys: dynamics.integrate(sys, [1.0], (0.0, 1.0),
                                             t_eval=[[0.2, 0.5]])),
    ("decay", lambda sys: dynamics.integrate(sys, [1.0], (0.0, 1.0),
                                             t_eval=0.5))],
    ids=["ic_too_short", "ic_2d", "ic_empty", "flow_map_x0_too_short",
         "newton_guess_too_short", "floquet_point_too_short", "t_eval_2d",
         "t_eval_0d"])
def test_wrong_shape_is_refused_before_any_evaluation(name, solve):
    """A start that is not a vector of the system's dimension, or sample
    times that are not a 1-D array, are bad input (exit 2), raised before
    the vector field is evaluated once."""
    calls = []
    sys = SYSTEMS[name]
    counted = dataclasses.replace(
        sys, f=lambda t, x: calls.append(t) or sys.f(t, x))
    with pytest.raises(WrongShape):
        solve(counted)
    assert calls == []


def test_every_solve_reads_solve_ivp_at_call_time(monkeypatch):
    """integrate and flow_map call the module attribute ``solve_ivp`` as it
    stands at the call, so a counting replacement (as the benchmark's
    tracer installs) sees every solve, and its nfev counts every
    evaluation of the vector field."""
    solve, nfev = dynamics.solve_ivp, []

    def counting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol
    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    calls = []
    sys = dataclasses.replace(DECAY, f=lambda t, x: calls.append(t) or -x)
    dynamics.integrate(sys, [1.0], (0.0, 1.0))
    dynamics.flow_map(sys, [1.0], 1.0)
    dynamics.integrate(sys, [1.0], (0.0, 1.0), t_eval=[0.5, 1.0])
    assert len(nfev) == 3 and sum(nfev) == len(calls) > 0


def test_scipy_functions_bind_at_first_use(fresh_interpreter):
    """``import ssmfrac`` binds neither scipy function; after a first
    integration and a first Lambert W value both module attributes are
    scipy's own functions, not stand-ins."""
    status, loaded = fresh_interpreter(
        "from ssmfrac import dynamics\n"
        "before = sorted({'solve_ivp', 'lambertw'} & set(vars(dynamics)))\n"
        "dynamics.integrate(dynamics.FlowSystem(dim=1, f=lambda t, x: -x),\n"
        "                   [1.0], (0.0, 1.0))\n"
        "dynamics.lambert_w0(0.5)\n"
        "import scipy.integrate, scipy.special\n"
        "status = [before, dynamics.solve_ivp is scipy.integrate.solve_ivp,\n"
        "          dynamics.lambertw is scipy.special.lambertw]")
    assert status == [[], True, True]


@pytest.mark.parametrize("t_eval", [None, [0.8, 0.2]],
                         ids=["steps", "descending_t_eval"])
def test_reversed_span_is_refused_before_any_evaluation(t_eval):
    """integrate runs forward in time only: a reversed span is bad input,
    refused before the vector field is evaluated once."""
    calls = []
    sys = dynamics.FlowSystem(dim=1, f=lambda t, x: calls.append(t) or -x)
    with pytest.raises(InputError, match="forward"):
        dynamics.integrate(sys, [1.0], (1.0, 0.0), t_eval=t_eval)
    assert calls == []


def test_flow_map_over_zero_time_is_the_identity():
    x, phi, trace = dynamics.flow_map(DECAY, [0.7], 0.0)
    assert x.tolist() == [0.7] and phi.tolist() == [[1.0]] and trace == 0.0


# ---------------------------------------------------------------------------
# fixed points of the forced oscillator chain
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def forced_fixed_points():
    """Newton results on the forced chain's period map (flow tol 1e-10),
    by seed label."""
    return {name: dynamics.newton_fixed_point(forced_system(), seed, tol=1e-9)
            for name, seed in dynamics.FORCED_SEEDS.items()}


def test_forced_chain_has_three_distinct_fixed_points(forced_fixed_points):
    results = forced_fixed_points
    locs = [r.location for r in results.values()]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(locs[i] - locs[j]) > 0.05
    assert results["middle"].classification == "saddle"
    for name in ("low", "high"):
        assert np.all(np.abs(results[name].multipliers) < 1.0)
    # Liouville: the multiplier product equals exp(-3 c T / m)
    for r in results.values():
        prod = np.prod(r.multipliers).real
        assert prod == pytest.approx(math.exp(-3 * 0.03 * FORCED_T),
                                     rel=1e-3)


def count_flow_maps(monkeypatch):
    """The argument tuples of every ``dynamics.flow_map`` call from here
    on."""
    calls, solve = [], dynamics.flow_map
    monkeypatch.setattr(dynamics, "flow_map",
                        lambda *args, **kw: calls.append(args)
                        or solve(*args, **kw))
    return calls


@pytest.mark.parametrize("params, T", [
    (FORCED_PARAMS, 0.0), (FORCED_PARAMS, -1.0), (FORCED_PARAMS, math.nan),
    (FORCED_PARAMS, math.inf), ({}, None)],
    ids=["zero", "negative", "nan", "inf", "no-period"])
def test_period_map_needs_a_finite_positive_period(params, T, monkeypatch):
    """The time-0 map fixes every point and a negative T runs the flow
    backward, so Newton and floquet refuse a missing, non-finite or
    non-positive period as bad input (exit 2), before any integration."""
    calls = count_flow_maps(monkeypatch)
    sys = dynamics.testbed("shaw_pierre", params)
    seed = dynamics.FORCED_SEEDS["middle"]
    with pytest.raises(InputError):
        dynamics.newton_fixed_point(sys, seed, T=T)
    with pytest.raises(InputError):
        dynamics.floquet(sys, seed, T=T)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_newton_refuses_a_tolerance_that_is_not_positive(tol, monkeypatch):
    calls = count_flow_maps(monkeypatch)
    with pytest.raises(InputError):
        dynamics.newton_fixed_point(forced_system(),
                                    dynamics.FORCED_SEEDS["middle"], tol=tol,
                                    flow_tol=1e-11)
    assert calls == []


@pytest.mark.parametrize("max_iter", [-1, 2.5, True])
def test_newton_refuses_a_max_iter_that_is_not_a_count(max_iter,
                                                       monkeypatch):
    """A negative, fractional or boolean iteration count is bad input (exit
    2), refused before any integration."""
    calls = count_flow_maps(monkeypatch)
    with pytest.raises(InputError):
        dynamics.newton_fixed_point(forced_system(),
                                    dynamics.FORCED_SEEDS["middle"],
                                    max_iter=max_iter)
    assert calls == []


def test_newton_below_round_off_stops_at_a_failed_line_search(monkeypatch):
    """tol 1e-16 lies below the middle orbit's round-off floor (a residual
    of about 3.5e-16 at flow tol 1e-11). Newton raises NoConvergence once
    the 21 trial points of one step, down to 2^-20 of it, find no lower
    residual; accepting the last trial instead went on for 991 solves."""
    calls = count_flow_maps(monkeypatch)
    with pytest.raises(NoConvergence):
        dynamics.newton_fixed_point(forced_system(),
                                    dynamics.FORCED_SEEDS["middle"],
                                    tol=1e-16, flow_tol=1e-11)
    assert len(calls) <= 25


def test_forced_example_newton_work(monkeypatch):
    """Each of the forced example's orbits converges in one Newton
    iteration from its seed, so its six flow_map solves are one at each
    seed and one at each full step: no line search halves a step."""
    calls = count_flow_maps(monkeypatch)
    orbits = examples.shaw_pierre_forced().orbits
    assert [res.iterations for res, _ in orbits.values()] == [1, 1, 1]
    assert len(calls) == 6


def test_unforced_linear_map_multipliers():
    A = dynamics.shaw_pierre_matrix()
    sys = dynamics.FlowSystem(dim=4, f=lambda t, x: A @ x,
                              jac=lambda t, x: A, period=2.0)
    res = dynamics.floquet(sys, np.zeros(4), T=2.0, periodicity_tol=1e-8)
    expected = np.exp(np.linalg.eigvals(A) * 2.0)
    got = np.sort_complex(res.multipliers)
    np.testing.assert_allclose(got, np.sort_complex(expected), atol=1e-8)
    assert res.determinant_check == pytest.approx(1.0, abs=1e-9)


def test_floquet_liouville_on_forced_orbits(forced_fixed_points):
    sys = forced_system()
    for fp in forced_fixed_points.values():
        res = dynamics.floquet(sys, fp.location, T=FORCED_T,
                               periodicity_tol=1e-5)
        assert res.determinant_check == pytest.approx(1.0, abs=1e-6)
        prod = np.prod(res.multipliers).real
        assert prod == pytest.approx(math.exp(-3 * 0.03 * FORCED_T),
                                     rel=1e-6)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.1, 1.0), st.floats(0.5, 4.0),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_floquet_product_is_liouville_determinant(c, gamma, T, x0):
    """tr J = -3c/m at every state of the oscillator chain, so the
    multiplier product over any time T is exp(-3cT/m), from any start."""
    sys = dynamics.testbed("shaw_pierre", {"c": c, "gamma": gamma})
    res = dynamics.floquet(sys, x0, T, periodicity_tol=np.inf)
    liouville = math.exp(-3.0 * c * T / sys.params["m"])
    assert np.prod(res.multipliers).real == pytest.approx(liouville,
                                                          rel=1e-8)


def test_newton_multipliers_are_floquet_multipliers(forced_fixed_points):
    """Newton's converged monodromy is the Floquet result at its location,
    and the classification reads those multipliers."""
    sys = forced_system()
    for res in forced_fixed_points.values():
        fl = dynamics.floquet(sys, res.location, FORCED_T, tol=1e-10)
        np.testing.assert_allclose(res.multipliers, fl.multipliers,
                                   rtol=0, atol=1e-9)
        assert res.classification == \
            dynamics.classify_multipliers(fl.multipliers)
        assert res.floquet.determinant_check == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", list(dynamics.FORCED_SEEDS))
def test_flow_map_work_on_the_forced_chain(seed):
    """One period of the variational flow map from each Newton seed, at the
    forced example's tol 1e-11, takes at most 1,500 evaluations of the
    vector field: the 8th-order pair makes 626 to 842, the 5th-order pair
    it replaced 3,548 to 3,884."""
    calls = []
    sys = forced_system()
    counted = dataclasses.replace(
        sys, f=lambda t, x: calls.append(t) or sys.f(t, x))
    dynamics.flow_map(counted, dynamics.FORCED_SEEDS[seed], FORCED_T,
                      tol=1e-11)
    assert 0 < len(calls) <= 1_500


@pytest.mark.parametrize("seed", list(dynamics.FORCED_SEEDS))
def test_flow_map_matches_a_tight_tolerance_solve(seed):
    """x_T and Phi_T at tol 1e-10 lie within 1e-10 relative (Frobenius
    norm) of an independent DOP853 solve of x' = f, Phi' = J Phi at
    rtol 1e-13 over one period. Measured: at most 2.9e-12 for x_T and
    2.8e-11 for Phi_T over the three seeds, so the bound, the requested
    tolerance, leaves a margin of 3.5x on Phi_T."""
    sys = forced_system()
    x0 = dynamics.FORCED_SEEDS[seed]

    def variational(t, y):
        x, Phi = y[:4], y[4:].reshape(4, 4)
        return np.concatenate([sys.f(t, x),
                               (sys.jacobian(t, x) @ Phi).ravel()])

    ref = solve_ivp(variational, (0.0, FORCED_T),
                    np.concatenate([x0, np.eye(4).ravel()]), method="DOP853",
                    rtol=1e-13, atol=1e-16).y[:, -1]
    xT, Phi, _ = dynamics.flow_map(sys, x0, FORCED_T, tol=1e-10)
    assert np.linalg.norm(xT - ref[:4]) <= 1e-10 * np.linalg.norm(ref[:4])
    assert np.linalg.norm(Phi.ravel() - ref[4:]) <= \
        1e-10 * np.linalg.norm(ref[4:])


def test_forced_example_liouville_product_to_1e11():
    """The forced example's multiplier products match exp(-3 c T / m) to
    1e-11 relative, the worst_relative_error its checks.json reports:
    2.7e-12 with the 8th-order flow map, 2.1e-11 with the 5th-order one."""
    liouville, = [check for check in examples.shaw_pierre_forced().checks
                  if check["name"].startswith("Liouville")]
    assert liouville["detail"]["worst_relative_error"] <= 1e-11


def test_jacobian_without_jac_is_input_error():
    sys = dynamics.FlowSystem(dim=1, f=lambda t, x: -x)
    with pytest.raises(InputError):
        sys.jacobian(0.0, [1.0])


@settings(max_examples=6, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.1, 1.0), st.floats(0.0, 0.3),
       st.floats(0.3, 1.5),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_flow_map_jacobian_matches_central_differences(c, gamma, A, T, x0):
    """Phi_T is the jacobian of the state map: central differences of
    separately integrated states agree to 1e-6 relative."""
    sys = dynamics.testbed("shaw_pierre", {"c": c, "gamma": gamma, "A": A,
                                           "Omega": 1.07})
    _, Phi, _ = dynamics.flow_map(sys, x0, T, tol=1e-12)
    h = 1e-4
    fd = np.empty((4, 4))
    for j in range(4):
        step = h * np.eye(4)[j]
        ends = [dynamics.integrate(sys, np.add(x0, sgn * step), (0.0, T),
                                   tol=1e-12).states[-1] for sgn in (1, -1)]
        fd[:, j] = (ends[0] - ends[1]) / (2 * h)
    assert np.linalg.norm(Phi - fd) <= 1e-6 * np.linalg.norm(Phi)


@settings(max_examples=10, deadline=None)
@given(st.floats(0.1, 3.0),
       st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2))
def test_flow_map_determinant_is_exp_trace_integral(T, x0):
    """On the planar testbed tr J = (y - b) + c (x - a) changes along the
    orbit; det Phi_T = exp(int tr J) (Liouville) to 1e-8 relative."""
    sys = dynamics.testbed("planar")
    _, Phi, trace_integral = dynamics.flow_map(sys, x0, T)
    assert np.linalg.det(Phi) == pytest.approx(math.exp(trace_integral),
                                               rel=1e-8)


def test_floquet_rejects_nonperiodic_point():
    sys = forced_system()
    with pytest.raises(NotPeriodic):
        dynamics.floquet(sys, [2.0, 2.0, 2.0, 2.0], T=FORCED_T)


def test_classify_multipliers():
    assert dynamics.classify_multipliers([0.5, 0.2]) == "stable node"
    assert dynamics.classify_multipliers([0.5 + 0.4j, 0.5 - 0.4j]) \
        == "stable spiral"
    assert dynamics.classify_multipliers([1.5, 0.5]) == "saddle"
    assert dynamics.classify_multipliers([-2.0 + 0j, -3.0 + 0j]) \
        == "unstable node"
    assert dynamics.classify_multipliers([-1.0, 2.0], kind="flow") \
        == "saddle"


# ---------------------------------------------------------------------------
# testbeds
# ---------------------------------------------------------------------------

def test_testbed_unknown_name():
    with pytest.raises(UnknownTestbed):
        dynamics.testbed("lorenz")


def test_testbed_unknown_param():
    with pytest.raises(BadParams):
        dynamics.testbed("planar", {"d": 1.0})


def test_testbed_bad_param_value():
    with pytest.raises(BadParams):
        dynamics.testbed("planar", {"a": -1.0})


def test_mixed3d_graph_invariance():
    """x3 = 0.5 x1^2 is invariant for the 3D mixed example."""
    sys = dynamics.testbed("mixed3d")
    x1, x2 = 0.4, -0.1
    ic = [x1, x2, 0.5 * x1 ** 2]
    traj = dynamics.integrate(sys, ic, (0.0, 10.0), tol=1e-11)
    gap = np.abs(traj.states[:, 2] - 0.5 * traj.states[:, 0] ** 2)
    assert np.max(gap) < 1e-8


def test_planar_graph_invariance_under_flow():
    """Trajectories started on the through-saddle graph stay on it."""
    sys = dynamics.testbed("planar")
    x0 = 0.4
    y0 = dynamics.exact_graph_planar(1.0, 1.0, 2.5, "through-saddle", x0)
    traj = dynamics.integrate(sys, [x0, y0], (0.0, 3.0), tol=1e-11)
    for x, y in traj.states:
        h = dynamics.exact_graph_planar(1.0, 1.0, 2.5, "through-saddle", x)
        assert y == pytest.approx(h, abs=1e-8)


# ---------------------------------------------------------------------------
# Lambert W and the exact planar graph
# ---------------------------------------------------------------------------

def test_lambert_w0_matches_scipy():
    z = np.concatenate([np.linspace(-1 / math.e + 1e-6, 3.0, 200),
                        np.logspace(1, 6, 20)])
    ours = dynamics.lambert_w0(z)
    ref = scipy_lambertw(z).real
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_lambert_w0_special_values():
    assert dynamics.lambert_w0(0.0) == 0.0
    assert dynamics.lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
    assert dynamics.lambert_w0(-1.0 / math.e) == pytest.approx(-1.0,
                                                              abs=1e-6)


def test_lambert_w0_out_of_domain():
    with pytest.raises(OutOfDomain):
        dynamics.lambert_w0(-0.5)


def test_lambert_w0_exact_at_branch_point_zero_and_e():
    w = dynamics.lambert_w0(np.array([-1 / math.e, 0.0, math.e]))
    assert not np.any(np.isnan(w))
    np.testing.assert_array_equal(w, [-1.0, 0.0, 1.0])
    assert dynamics.lambert_w0(-1 / math.e) == -1.0


def test_lambert_w0_out_of_domain_just_below_branch_point():
    with pytest.raises(OutOfDomain):
        dynamics.lambert_w0(np.array([0.5, -1 / math.e - 1e-12]))


def test_lambert_w0_residual_guard(monkeypatch):
    """A branch value off by 1e-9 fails the w e^w = z residual check."""
    monkeypatch.setattr(dynamics, "lambertw",
                        lambda z, k: scipy_lambertw(z, k) + 1e-9)
    with pytest.raises(NoConvergence):
        dynamics.lambert_w0(np.array([0.5, 2.0]))


@pytest.mark.parametrize("a, b, c", [(1.0, 1.0, 2.5), (2.0, 1.0, 2.5),
                                     (1.0, 2.0, 0.5), (0.7, 1.3, 3.0)])
def test_exact_graph_planar_through_origin_and_saddle(a, b, c):
    h = dynamics.exact_graph_planar(a, b, c, "through-saddle",
                                    np.array([0.0, a]))
    assert h[0] == 0.0
    # W is sqrt-sensitive at the branch point: one rounding of the
    # argument moves W by about 1e-8
    assert h[1] == pytest.approx(b, rel=1e-7)


def test_exact_graph_planar_default_saddle_is_exact():
    """At the default parameters the argument at x = a rounds to float(-1/e)
    itself, which maps to W = -1 exactly."""
    assert dynamics.exact_graph_planar(1.0, 1.0, 2.5, "through-saddle",
                                       1.0) == 1.0


def test_exact_graph_planar_values():
    h = lambda x: dynamics.exact_graph_planar(1.0, 1.0, 2.5,
                                              "through-saddle", x)
    assert h(0.0) == 0.0
    assert h(1.0) == pytest.approx(1.0, abs=1e-12)
    assert h(0.5) == pytest.approx(0.3092443215648233, abs=1e-12)


def test_exact_graph_satisfies_invariance_ode():
    """dh/dx = c h (x - a) / (x (h - b)) away from the saddle."""
    a, b, c = 1.0, 1.0, 2.5
    h = lambda x: dynamics.exact_graph_planar(a, b, c, "through-saddle", x)
    for x in (0.2, 0.45, 0.7):
        eps = 1e-6
        dh = (h(x + eps) - h(x - eps)) / (2 * eps)
        rhs = c * h(x) * (x - a) / (x * (h(x) - b))
        assert dh == pytest.approx(rhs, rel=1e-5)


def test_exact_reduced_planar_matches_full_flow():
    a, b, c = 1.0, 1.0, 2.5
    vf = dynamics.exact_reduced_planar(a, b, c)
    sys = dynamics.testbed("planar")
    for x in (0.2, 0.5, 0.9):
        y = dynamics.exact_graph_planar(a, b, c, "through-saddle", x)
        full = sys.f(0.0, np.array([x, y]))
        assert vf(x) == pytest.approx(full[0], rel=1e-12)
    assert vf(a) == pytest.approx(0.0, abs=1e-12)


def oracle_graph(a, b, c, x):
    """The closed-form graph as one numpy array expression, scipy's W applied
    to the whole array: the formula the per-point kernel replaced. Returns
    h and W's argument."""
    C = b * math.log(b * math.exp(-1.0) * a ** (-c * a / b)) + c * a
    arg = -(1.0 / b) * np.exp(-c * x / b + C / b) * x ** (c * a / b)
    return -b * oracle_w0(np.maximum(arg, -1 / math.e)), arg


def oracle_w0(z):
    return np.where(z <= -1 / math.e, -1.0, scipy_lambertw(z).real)


@pytest.mark.parametrize("a, b, c", [(1.0, 1.0, 2.5), (2.0, 1.0, 2.5),
                                     (1.0, 2.0, 0.5), (0.7, 1.3, 3.0)])
def test_exact_graph_planar_matches_array_oracle(a, b, c):
    """1e-14 relative, times W's condition number 1/(1 + W) at the
    argument: numpy's vectorised exp and math.exp may differ in the last
    bit, and near the branch point W magnifies that by 1/(1 + W)."""
    x = np.concatenate([np.linspace(0.0, a, 2001),
                        a * (1 - np.array([1e-6, 1e-7, 1e-8, 1e-9]))])
    ref, arg = oracle_graph(a, b, c, x)
    assert np.min(arg[-4:] + 1 / math.e) < 1e-12    # near the branch point
    got = dynamics.exact_graph_planar(a, b, c, "through-saddle", x)
    assert got[0] == ref[0] == 0.0
    cond = 1.0 / np.maximum(1.0 - ref / b, 1e-300)
    np.testing.assert_array_less(np.abs(got - ref),
                                 1e-14 * np.maximum(1.0, cond) * np.abs(ref)
                                 + 1e-300)


def test_lambert_w0_matches_array_oracle():
    bp = -1 / math.e
    z = np.concatenate([[bp - 1e-15, bp, 0.0, math.e],
                        bp + np.array([1e-16, 1e-15, 1e-14, 1e-13, 1e-12]),
                        np.linspace(bp + 1e-9, 5.0, 2001),
                        np.logspace(1, 300, 60)])
    ref = oracle_w0(z)
    got = dynamics.lambert_w0(z)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
    assert got[0] == got[1] == -1.0


@pytest.mark.parametrize("values", [0.4, np.float64(0.4), np.array(0.4),
                                    np.array([0.2, 0.4, 0.6]),
                                    np.array([[0.2, 0.4], [0.6, 0.8]]),
                                    np.array([]), np.zeros((2, 0))],
                         ids=["float", "float64", "0-d", "(n,)", "(n, m)",
                              "empty", "(2, 0)"])
def test_exact_planar_shape_contract(values):
    """A float or 0-d input gives a float; an array gives an array of its
    shape, each entry the float kernel's value at that point."""
    vf = dynamics.exact_reduced_planar(1.0, 1.0, 2.5)
    fns = [dynamics.lambert_w0,
           lambda v: dynamics.exact_graph_planar(1.0, 1.0, 2.5,
                                                 "through-saddle", v),
           vf]
    for fn in fns:
        out = fn(values)
        if np.ndim(values) == 0:
            assert type(out) is float
            continue
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert out.shape == np.shape(values)
        for idx, v in np.ndenumerate(values):
            assert out[idx] == fn(float(v))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_planar_rejects_non_finite(bad):
    vf = dynamics.exact_reduced_planar(1.0, 1.0, 2.5)
    calls = [lambda: dynamics.lambert_w0(bad),
             lambda: dynamics.lambert_w0(np.array([0.5, bad])),
             lambda: dynamics.exact_graph_planar(1.0, 1.0, 2.5,
                                                 "through-saddle", bad),
             lambda: dynamics.exact_graph_planar(1.0, 1.0, 2.5,
                                                 "through-saddle",
                                                 np.array([0.5, bad])),
             lambda: vf(np.array([bad])),
             lambda: vf(bad)]
    for call in calls:
        with pytest.raises(OutOfDomain):
            call()


@pytest.mark.parametrize("a, b, c, C", [
    (1.0, -1.0, 2.5, 0.0), (1.0, 0.0, 2.5, 0.0),
    (-1.0, 1.0, 2.5, "through-saddle"), (math.nan, 1.0, 2.5,
                                         "through-saddle"),
    (1.0, 1.0, 0.0, "through-saddle"), (1.0, math.inf, 2.5, 0.0),
    (1.0, 1.0, 2.5, math.nan), (1.0, 1.0, 2.5, math.inf)])
def test_exact_planar_bad_params_raise_when_built(a, b, c, C):
    """BadParams from building the kernel, before any point is evaluated."""
    with pytest.raises(BadParams):
        dynamics.exact_reduced_planar(a, b, c, C)
    with pytest.raises(BadParams):
        dynamics.exact_graph_planar(a, b, c, C, np.array([]))
    if isinstance(C, str):
        with pytest.raises(BadParams):
            dynamics.planar_saddle_constant(a, b, c)


@pytest.mark.parametrize("a, b, c, C", [
    (100.0, 0.01, 100.0, -36051.757911582776),
    (0.5, 0.001, 100.0, 84.64945127271828)],
    ids=["100.0-0.01-100.0-through-saddle", "0.5-0.001-100.0-through-saddle"])
def test_planar_saddle_constant_in_log_form(a, b, c, C):
    """b (log b - 1) - c a log a + c a stays finite where the product
    b log(b e^-1 a^(-ca/b)) under- or overflows (a^(-ca/b) = 0 or inf)."""
    assert dynamics.planar_saddle_constant(a, b, c) == \
        pytest.approx(C, rel=1e-15)
    dynamics.exact_reduced_planar(a, b, c)


@pytest.mark.parametrize("C, x", [(800.0, 0.0), (0.0, 1e300)],
                         ids=["exp(C/b)", "x^(ca/b)"])
def test_exact_graph_planar_factors_out_of_range_alone(C, x):
    """The graph's argument is one exp of the summed logs, so factors
    exp(C/b) or x^(ca/b) out of float range leave h = +0.0 where the
    argument itself is 0 (at x = 0) or underflows (at x = 1e300)."""
    h = dynamics.exact_graph_planar(1.0, 1.0, 2.5, C, x)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


@pytest.mark.parametrize("a, b, c, C, x", [
    (1.0, 1.0, 2.5, 800.0, 0.5), (1000.0, 1.0, 1.0, 0.0, 1000.0)],
    ids=["exp(C/b)", "x^(ca/b)"])
def test_exact_graph_planar_overflow_is_out_of_domain(a, b, c, C, x):
    """The argument itself leaves float range: exp(800 - 1.25 + 2.5 log
    0.5), and exp(1000 log 1000 - 1000) at x = a."""
    with pytest.raises(OutOfDomain):
        dynamics.exact_graph_planar(a, b, c, C, x)


def test_exact_graph_planar_beyond_the_branch_is_out_of_domain():
    """Above the saddle's constant (1.5 here) the argument at x = a falls
    below -1/e, off the principal branch."""
    assert dynamics.exact_graph_planar(1.0, 1.0, 2.5, 2.0, 0.1) > 0
    with pytest.raises(OutOfDomain):
        dynamics.exact_graph_planar(1.0, 1.0, 2.5, 2.0, 1.0)


def test_testbed_planar_rejects_non_finite_params():
    for key in ("a", "b", "c"):
        with pytest.raises(BadParams):
            dynamics.testbed("planar", {key: math.inf})
        with pytest.raises(BadParams):
            dynamics.testbed("planar", {key: math.nan})


@settings(deadline=None)
@given(a=st.floats(0.3, 3.0), b=st.floats(0.3, 3.0), c=st.floats(0.3, 3.0),
       frac=st.floats(0.01, 0.99))
def test_exact_graph_planar_on_its_level_set(a, b, c, frac):
    """h - b log h + C = c x - c a log x, with no use of W. The bound, 8 eps
    of the sum of |terms|, counts the nine roundings of forming both sides
    (eps/2 each) plus a few ulps of W; over 20,000 seeded draws the largest
    residual measured was 1.84 eps of that sum."""
    x = frac * a
    C = dynamics.planar_saddle_constant(a, b, c)
    h = dynamics.exact_graph_planar(a, b, c, "through-saddle", x)
    terms = (h, b * math.log(h), C, c * x, c * a * math.log(x))
    resid = (h - b * math.log(h) + C) - (c * x - c * a * math.log(x))
    assert abs(resid) <= 8 * np.finfo(float).eps * sum(map(abs, terms))


def test_exact_reduced_planar_calls_lambert_w0_once_per_point(monkeypatch):
    """The field evaluates W0 through the module attribute, once per point,
    so a wrapper of ``dynamics.lambert_w0`` sees every evaluation."""
    calls = []
    inner = dynamics.lambert_w0

    def counting(z):
        calls.append(z)
        return inner(z)
    vf = dynamics.exact_reduced_planar(1.0, 1.0, 2.5)
    monkeypatch.setattr(dynamics, "lambert_w0", counting)
    vf(np.array([0.4]))
    assert len(calls) == 1
    vf(np.linspace(0.1, 0.9, 7))
    assert len(calls) == 8


# error_table.csv of ``ssmfrac reproduce planar`` as recorded for the
# benchmark: ic, fractional, integer, dmd and pod mean relative errors
PLANAR_ERROR_TABLE = [
    (0.3, 1.196297e-05, 3.311392e-05, 3.010347e-01, 8.284113e-02),
    (0.45, 5.243661e-06, 2.216989e-05, 2.860584e-01, 7.806679e-02),
    (0.6, 2.312880e-06, 1.895971e-05, 2.608112e-01, 7.546057e-02),
    (0.75, 7.994034e-07, 1.423267e-05, 2.161654e-01, 7.580696e-02),
    (0.9, 1.006097e-07, 1.446981e-05, 1.313165e-01, 8.543223e-02),
]


def test_planar_example_error_table_is_pinned():
    """Each entry within 2e-6 relative of the recorded table, the tolerance
    of numbers printed with 7 significant digits."""
    _, rows = examples.planar().tables["error_table.csv"]
    assert len(rows) == len(PLANAR_ERROR_TABLE)
    for got, want in zip(rows, PLANAR_ERROR_TABLE):
        np.testing.assert_allclose(got, want, rtol=2e-6, atol=0)
