"""Tests for graph and reduced-dynamics least-squares fits, prediction,
error metrics and the POD/DMD baselines."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmfrac import dictionary, dynamics, fit, spectrum
from ssmfrac.errors import (BadParams, Diverged, InputError, InsufficientData,
                            LengthMismatch, NumericalError, OutOfRadius,
                            RankDeficient, StepTooCoarse, WrongShape)
from ssmfrac.trajectory import Trajectory

COUETTE_MASTER_LOG = -0.035068
COUETTE_SLAVED_LOGS = (-0.069776, -0.073369, -0.140274, -0.168877)


def planar_spec():
    return spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))


def couette_dict(K=5):
    spec = spectrum.SpectralPartition.from_map_logs(
        [COUETTE_MASTER_LOG], COUETTE_SLAVED_LOGS)
    d = dictionary.dictionary_map_1d(spec, K)
    return dictionary.prune_near_integer(d, tol=0.05)


def graph_traj(xs, h):
    states = np.column_stack([xs, h(xs)])
    return Trajectory(times=np.arange(len(xs), dtype=float), states=states,
                      kind="flow")


# ---------------------------------------------------------------------------
# core solver
# ---------------------------------------------------------------------------

def test_scaled_lstsq_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(50, 4))
    y = rng.normal(size=(50, 2))
    coeffs, rms, cond = fit._scaled_lstsq(A, y, ridge=0.0)
    ref, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    np.testing.assert_allclose(coeffs, ref, atol=1e-10)
    resid = y - A @ ref
    np.testing.assert_allclose(rms, np.sqrt(np.mean(resid ** 2, axis=0)),
                               atol=1e-12)
    assert cond < 10


def test_scaled_lstsq_ridge_matches_normal_equations():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    ridge = 0.7
    coeffs, _, _ = fit._scaled_lstsq(A, y, ridge=ridge)
    ref = np.linalg.solve(A.T @ A + ridge * np.eye(3), A.T @ y)
    np.testing.assert_allclose(coeffs[:, 0], ref, atol=1e-10)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("ridge", [1e-8, 0.7])
def test_scaled_lstsq_long_double_ridge_matches_double(cplx, ridge):
    """Long-double design and targets go through the double factorization
    with a ridge folded in, and agree with the solve of their double
    roundings."""
    rng = np.random.default_rng(2)
    design = rng.normal(size=(60, 5)) * 10.0 ** np.arange(-2, 3)
    targets = rng.normal(size=(60, 2))
    if cplx:
        design = design + 1j * rng.normal(size=design.shape)
        targets = targets + 1j * rng.normal(size=targets.shape)
    ld = np.clongdouble if cplx else np.longdouble
    wiggle = 1.0 + np.longdouble(1e-18) * rng.normal(size=design.shape)
    design_ld = design.astype(ld) * wiggle
    targets_ld = targets.astype(ld) * wiggle[:, :2]
    got, rms, cond = fit._scaled_lstsq(design_ld, targets_ld, ridge=ridge)
    ref, ref_rms, ref_cond = fit._scaled_lstsq(design, targets, ridge=ridge)
    assert np.all(np.isfinite(got))
    assert np.linalg.norm(np.asarray(got, dtype=ref.dtype) - ref) <= \
        1e-12 * np.linalg.norm(ref)
    np.testing.assert_allclose(np.asarray(rms, dtype=float), ref_rms,
                               rtol=1e-12)
    assert cond == pytest.approx(ref_cond, rel=1e-12)


def test_scaled_lstsq_long_double_design_beyond_double_range():
    """Column scaling brings a long-double design that over- or underflows
    double into range; targets beyond that range are an input error."""
    rng = np.random.default_rng(4)
    base = rng.normal(size=(20, 2)).astype(np.longdouble)
    true = np.array([1.0, 2.0], dtype=np.longdouble)
    for size in ("1e400", "1e-400"):
        s = np.longdouble(size)
        got, _, _ = fit._scaled_lstsq(base * s, base @ true, ridge=0.0)
        np.testing.assert_allclose(np.asarray(got[:, 0] * s, dtype=float),
                                   np.asarray(true, dtype=float), rtol=1e-12)
    with pytest.raises(InputError), np.errstate(over="ignore"):
        fit._scaled_lstsq(base, base @ true * np.longdouble("1e400"),
                          ridge=0.0)


def test_scaled_lstsq_rank_deficient():
    A = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(RankDeficient):
        fit._scaled_lstsq(A, np.ones(10), ridge=0.0)


@pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
def test_scaled_lstsq_rejects_nonfinite_or_negative_ridge(ridge):
    """NaN compares false both ways, so it must not slip past the ridge and
    rank checks on a rank-deficient design."""
    A = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(InputError):
        fit._scaled_lstsq(A, np.ones(10), ridge=ridge)


def test_scaled_lstsq_insufficient_rows():
    with pytest.raises(InsufficientData):
        fit._scaled_lstsq(np.ones((2, 3)), np.ones(2), ridge=0.0)


@st.composite
def scaled_problems(draw):
    """A full-rank real or complex design with column scales spanning 1e-6
    to 1e6, one or two target channels, and the unit-RMS scaled design that
    _scaled_lstsq solves with."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(n, 40 * n))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exps = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=n,
                                  max_size=n)))
    design = rng.normal(size=(m, n))
    targets = rng.normal(size=(m, draw(st.integers(1, 2))))
    if cplx:
        design = design + 1j * rng.normal(size=design.shape)
        targets = targets + 1j * rng.normal(size=targets.shape)
    design = design * 10.0 ** exps
    scale = np.sqrt(np.mean(np.abs(design) ** 2, axis=0))
    scaled = design / scale
    cond = np.linalg.cond(scaled)
    assume(cond < 1e4)
    return design, targets, scale, scaled, cond


def assert_close_lstsq(got, ref, cond):
    """Two backward-stable least-squares solutions agree to eps * cond^2."""
    tol = 1e-14 * (1.0 + cond) ** 2
    assert np.linalg.norm(got - ref) <= tol * max(np.linalg.norm(ref), 1.0)


@given(scaled_problems())
@settings(max_examples=60, deadline=None)
def test_scaled_lstsq_matches_scipy_and_reports_design_condition(problem):
    design, targets, scale, scaled, cond = problem
    coeffs, rms, got_cond = fit._scaled_lstsq(design, targets, ridge=0.0)
    ref, _, _, _ = scipy.linalg.lstsq(scaled, targets)
    assert_close_lstsq(coeffs * scale[:, None], ref, cond)
    assert got_cond == pytest.approx(cond, rel=1e-10)
    resid = targets - design @ coeffs
    np.testing.assert_allclose(rms, np.sqrt(np.mean(np.abs(resid) ** 2,
                                                    axis=0)))


@given(scaled_problems(), st.floats(-10.0, 0.0))
@settings(max_examples=60, deadline=None)
def test_scaled_lstsq_ridge_matches_augmented_solve(problem, log_ridge):
    design, targets, scale, scaled, cond = problem
    ridge = 10.0 ** log_ridge
    coeffs, _, got_cond = fit._scaled_lstsq(design, targets, ridge=ridge)
    aug = np.vstack([scaled, np.sqrt(ridge) * np.diag(1.0 / scale)])
    rhs = np.vstack([targets, np.zeros((len(scale), targets.shape[1]))])
    ref, _, _, _ = scipy.linalg.lstsq(aug, rhs)
    assert_close_lstsq(coeffs * scale[:, None], ref, np.linalg.cond(aug))
    # the reported condition number is that of the unaugmented design
    assert got_cond == pytest.approx(cond, rel=1e-10)


@given(scaled_problems(), st.data())
@settings(max_examples=40, deadline=None)
def test_scaled_lstsq_duplicated_column_is_rank_deficient(problem, data):
    design, targets, _, _, _ = problem
    m, n = design.shape
    assume(m > n)
    j = data.draw(st.integers(0, n - 1))
    factor = 10.0 ** data.draw(st.floats(-6.0, 6.0))
    at = data.draw(st.integers(0, n))
    design = np.insert(design, at, factor * design[:, j], axis=1)
    with pytest.raises(RankDeficient):
        fit._scaled_lstsq(design, targets, ridge=0.0)


@given(scaled_problems(), st.data())
@settings(max_examples=40, deadline=None)
def test_scaled_lstsq_non_finite_values_are_input_errors(problem, data):
    design, targets, _, _, _ = problem
    where = data.draw(st.sampled_from(["design", "targets"]))
    arr = (design if where == "design" else targets).copy()
    i = data.draw(st.integers(0, arr.shape[0] - 1))
    j = data.draw(st.integers(0, arr.shape[1] - 1))
    arr[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if where == "design":
        design = arr
    else:
        targets = arr
    ridge = data.draw(st.sampled_from([0.0, 1e-6]))
    with pytest.raises(InputError):
        fit._scaled_lstsq(design, targets, ridge=ridge)


@given(scaled_problems(), st.sampled_from([1, 2, 3, 8]),
       st.sampled_from([0.0, 1e-6, 0.7]))
@settings(max_examples=60, deadline=None)
def test_scaled_lstsq_row_blocks_match_one_block(problem, block_rows, ridge):
    """Row blocks of a few rows, the last often shorter than the design is
    wide, give the one-block solve and the scipy oracle. The per-channel
    RMS residuals agree to what a backward-stable solve promises, a small
    multiple of eps * cond * RMS(targets) (Higham, Accuracy and Stability,
    Thm. 20.1, whose residual bound is linear in cond): on a square design
    both residuals are round-off, so no fixed absolute tolerance holds."""
    design, targets, scale, scaled, cond = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fit, "BLOCK_ROWS", block_rows)
        got, got_rms, got_cond = fit._scaled_lstsq(design, targets, ridge)
        mp.setattr(fit, "BLOCK_ROWS", len(design))
        ref, ref_rms, ref_cond = fit._scaled_lstsq(design, targets, ridge)
    aug = np.vstack([scaled, np.sqrt(ridge) * np.diag(1.0 / scale)])
    rhs = np.vstack([targets, np.zeros((len(scale), targets.shape[1]))])
    oracle, _, _, _ = scipy.linalg.lstsq(aug, rhs)
    aug_cond = np.linalg.cond(aug)
    assert_close_lstsq(got * scale[:, None], ref * scale[:, None], aug_cond)
    assert_close_lstsq(got * scale[:, None], oracle, aug_cond)
    rms_targets = np.sqrt(np.mean(np.abs(targets) ** 2, axis=0))
    promised = 8 * np.finfo(float).eps * aug_cond * rms_targets
    assert np.all(np.abs(got_rms - ref_rms) <= promised)
    assert got_cond == pytest.approx(ref_cond, rel=1e-10)
    assert got_cond == pytest.approx(cond, rel=1e-10)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("ridge", [0.0, 1e-3])
def test_scaled_lstsq_row_blocks_long_double(monkeypatch, cplx, ridge):
    """Long-double design and targets in blocks of 8 rows over 12 columns,
    the last block holding 5 rows, solve as in one block and as their
    double roundings do; a duplicated column stays rank deficient."""
    rng = np.random.default_rng(6)
    design = rng.normal(size=(53, 12)) * 10.0 ** np.linspace(-3, 3, 12)
    targets = rng.normal(size=(53, 2))
    if cplx:
        design = design + 1j * rng.normal(size=design.shape)
        targets = targets + 1j * rng.normal(size=targets.shape)
    ld = np.clongdouble if cplx else np.longdouble
    wiggle = 1.0 + np.longdouble(1e-18) * rng.normal(size=design.shape)
    design_ld = design.astype(ld) * wiggle
    targets_ld = targets.astype(ld) * wiggle[:, :2]
    monkeypatch.setattr(fit, "BLOCK_ROWS", len(design))
    ref, ref_rms, ref_cond = fit._scaled_lstsq(design_ld, targets_ld, ridge)
    monkeypatch.setattr(fit, "BLOCK_ROWS", 8)
    got, rms, cond = fit._scaled_lstsq(design_ld, targets_ld, ridge)
    rounded, _, _ = fit._scaled_lstsq(design, targets, ridge)
    assert got.dtype == ref.dtype == ld
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(np.asarray(got, dtype=rounded.dtype) - rounded) <= \
        1e-12 * np.linalg.norm(rounded)
    np.testing.assert_allclose(np.asarray(rms, dtype=float),
                               np.asarray(ref_rms, dtype=float), rtol=1e-12)
    assert cond == pytest.approx(ref_cond, rel=1e-12)
    if ridge == 0.0:
        with pytest.raises(RankDeficient):
            fit._scaled_lstsq(np.insert(design_ld, 4, 1e3 * design_ld[:, 9],
                                        axis=1), targets_ld, ridge)


@st.composite
def residual_problems(draw):
    """A design of 1-12 columns, real, complex or real under complex
    targets, in double or long double; 1-3 target channels; a long-double
    solution x; and row blocks whose last one is short."""
    block = draw(st.integers(2, 9))
    m = draw(st.integers(0, 5)) * block + draw(st.integers(1, block - 1))
    n, channels = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["real", "complex", "real design"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    design = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3, 3, n)
    targets = rng.normal(size=(m, channels))
    x = rng.normal(size=(n, channels))
    if mode != "real":
        targets = targets + 1j * rng.normal(size=targets.shape)
        x = x + 1j * rng.normal(size=x.shape)
    if mode == "complex":
        design = design + 1j * rng.normal(size=design.shape)
    ld = np.clongdouble if mode != "real" else np.longdouble
    if draw(st.booleans()):
        design = design.astype(ld) * (
            1.0 + np.longdouble(1e-17) * rng.normal(size=design.shape))
        targets = targets.astype(ld)
    blocks = [slice(lo, lo + block) for lo in range(0, m, block)]
    return design, targets, x.astype(ld), blocks


@given(residual_problems())
@settings(max_examples=100, deadline=None)
def test_long_double_residual_is_numpys(problem):
    """The refinement residual, formed channel by channel with einsum over
    the row blocks, is numpy's long-double targets - design @ x: bit for
    bit when x is complex, and for real data within the difference of two
    summation orders, (n - 1) ulps of sum_j |a_ij| |x_j| plus one of the
    result, since einsum's real loop adds in its own order."""
    design, targets, x, blocks = problem
    got = fit._long_double_residual(design, targets, x, blocks)
    ref = targets.astype(x.dtype) - design.astype(x.dtype) @ x
    assert got.dtype == ref.dtype == x.dtype
    if np.iscomplexobj(x):
        np.testing.assert_array_equal(got, ref)
        return
    eps = np.finfo(np.longdouble).eps
    bound = (design.shape[1] - 1) * eps * (np.abs(design) @ np.abs(x)) + \
        eps * np.abs(ref)
    assert np.all(np.abs(got - ref) <= bound)


# ---------------------------------------------------------------------------
# graph fits
# ---------------------------------------------------------------------------

def test_fit_graph_recovers_fractional_power_law():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    xs = np.linspace(-1.0, 1.0, 41)
    traj = graph_traj(xs, lambda x: 0.7 * np.abs(x) ** 2.5)
    g = fit.fit_graph(traj, d, master_coords=(0,), slaved_coords=(1,))
    target = d.multi_indices.index((0, 1))
    for i, c in enumerate(g.coefficients[:, 0]):
        expect = 0.7 if i == target else 0.0
        assert c == pytest.approx(expect, abs=1e-10)
    assert np.max(g.residuals) < 1e-12


def test_fit_graph_zero_data_gives_zero_coefficients():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    xs = np.linspace(-1.0, 1.0, 41)
    traj = graph_traj(xs, lambda x: 0.0 * x)
    g = fit.fit_graph(traj, d, master_coords=(0,), slaved_coords=(1,))
    np.testing.assert_allclose(g.coefficients, 0.0, atol=1e-12)


def test_fit_graph_rejects_overlapping_selectors():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    traj = graph_traj(np.linspace(0.1, 1.0, 30), lambda x: x ** 2)
    with pytest.raises(InputError):
        fit.fit_graph(traj, d, master_coords=(0,), slaved_coords=(0, 1))


def test_fit_graph_mixed3d_quadratic():
    """Trajectories on the invariant surface give x3 = 0.5 x1^2."""
    sys = dynamics.testbed("mixed3d")
    trajs = []
    for x1, x2 in ((0.5, 0.0), (-0.4, 0.3)):
        ic = [x1, x2, 0.5 * x1 ** 2]
        trajs.append(dynamics.integrate(sys, ic, (0.0, 20.0), tol=1e-11,
                                        t_eval=np.linspace(0.0, 20.0, 201)))
    d = dictionary.integer_dictionary(2, 3)
    g = fit.fit_graph(trajs, d, master_coords=(0, 1), slaved_coords=(2,))
    idx = d.multi_indices.index((2, 0))
    assert g.coefficients[idx, 0] == pytest.approx(0.5, abs=1e-3)
    others = np.delete(g.coefficients[:, 0], idx)
    assert np.max(np.abs(others)) < 1e-3


def test_graph_fit_json_round_trip(tmp_path):
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    traj = graph_traj(np.linspace(-1.0, 1.0, 41),
                      lambda x: 0.7 * np.abs(x) ** 2.5)
    g = fit.fit_graph(traj, d, master_coords=(0,), slaved_coords=(1,))
    path = tmp_path / "model.json"
    g.to_json(path)
    clone = fit.model_from_json(path)
    np.testing.assert_allclose(clone.coefficients, g.coefficients,
                               atol=1e-14)
    assert clone.master_coords == (0,) and clone.slaved_coords == (1,)
    pts = np.array([[0.3], [-0.8]])
    np.testing.assert_allclose(clone.predict_slaved(pts),
                               g.predict_slaved(pts), atol=1e-14)


@pytest.mark.parametrize("case", ["1d", "2d", "integer"])
def test_predict_slaved_reads_master_state_rows(case):
    """Every family reads (n, width) rows of the master columns; flat
    arrays and complex samples are not state rows."""
    xs = np.linspace(-0.5, 0.5, 21)
    if case == "1d":
        d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
        states = np.column_stack([xs, 0.7 * xs ** 2])
    else:
        if case == "2d":
            spec = spectrum.SpectralPartition(kind="flow",
                                              alpha_omega=((-0.1, 1.0),))
            d = dictionary.dictionary_flow_2d(spec, K=3)
        else:
            d = dictionary.integer_dictionary(2, 3)
        ys = np.cos(3.0 * xs)
        states = np.column_stack([xs, ys, 0.5 * xs * ys])
    traj = Trajectory(times=np.arange(len(xs), dtype=float), states=states)
    g = fit.fit_graph(traj, d, master_coords=range(d.width),
                      slaved_coords=(d.width,))
    rows = states[:5, :d.width]
    np.testing.assert_allclose(g.predict_slaved(rows), states[:5, d.width:],
                               atol=1e-8)
    for bad in (rows[:, 0], rows[:, 0] + 1j * rows[:, -1],
                np.zeros((5, d.width + 1))):
        with pytest.raises(WrongShape):
            g.predict_slaved(bad)


# ---------------------------------------------------------------------------
# reduced map fits
# ---------------------------------------------------------------------------

def map_traj(values):
    values = np.asarray(values)
    if values.dtype != np.longdouble:
        values = values.astype(float)
    return Trajectory(times=np.arange(len(values), dtype=float),
                      states=values[:, None], kind="map")


def test_fit_reduced_map_linear():
    vals = 0.9 ** np.arange(20)
    d = dictionary.integer_dictionary(1, 5)
    m = fit.fit_reduced_map(map_traj(vals), d)
    idx = d.multi_indices.index((1,))
    assert m.coefficients[idx, 0] == pytest.approx(0.9, abs=1e-10)
    others = np.delete(m.coefficients[:, 0], idx)
    assert np.max(np.abs(others)) < 1e-10


def iterate_model_data(d, coeffs, x0, steps, dtype=np.float64):
    vals = [dtype(x0)]
    for _ in range(steps):
        nxt = d.evaluate(np.array([vals[-1]], dtype=dtype))[0] \
            @ coeffs.astype(dtype)
        vals.append(nxt)
    return map_traj(np.array(vals, dtype=dtype))


def test_fit_reduced_map_round_trip_extended_precision():
    """Self-consistency: data iterated in long double refits to the exact
    coefficients despite a 1e10 design condition number."""
    d = couette_dict()
    true = np.zeros(len(d))
    true[d.multi_indices.index((1, 0, 0, 0, 0))] = 0.95
    true[d.multi_indices.index((2, 0, 0, 0, 0))] = 0.4
    true[d.multi_indices.index((0, 0, 1, 0, 0))] = -0.3
    trajs = [iterate_model_data(d, true, x0, 40, dtype=np.longdouble)
             for x0 in (0.05, 0.1, 0.2)]
    m = fit.fit_reduced_map(trajs, d)
    np.testing.assert_allclose(np.asarray(m.coefficients[:, 0], dtype=float),
                               true, atol=1e-7)


def test_fit_reduced_map_round_trip_double():
    """The float64 version of the same round trip is limited by the stored
    data's rounding amplified through the conditioning."""
    d = couette_dict()
    true = np.zeros(len(d))
    true[d.multi_indices.index((1, 0, 0, 0, 0))] = 0.95
    true[d.multi_indices.index((2, 0, 0, 0, 0))] = 0.4
    true[d.multi_indices.index((0, 0, 1, 0, 0))] = -0.3
    traj = iterate_model_data(d, true, 0.1, 40)
    m = fit.fit_reduced_map(traj, d)
    np.testing.assert_allclose(m.coefficients[:, 0], true, atol=1e-2)


def test_duplicate_trajectories_leave_fit_unchanged():
    d = couette_dict(K=3)
    true = np.zeros(len(d))
    true[d.multi_indices.index((1, 0, 0, 0, 0))] = 0.9
    true[d.multi_indices.index((0, 0, 1, 0, 0))] = 0.2
    traj = iterate_model_data(d, true, 0.15, 30)
    single = fit.fit_reduced_map(traj, d)
    double = fit.fit_reduced_map([traj, traj], d)
    np.testing.assert_allclose(double.coefficients, single.coefficients,
                               atol=1e-9)


def map_2d_library(K):
    mu, sigma = 0.9 * np.exp(0.7j), 0.9 ** 1.3 * np.exp(1.9j)
    spec = spectrum.SpectralPartition(
        kind="map", alpha_omega=((mu.real, mu.imag),),
        beta_nu=((sigma.real, sigma.imag),))
    return dictionary.dictionary_map_2d(spec, K)


def annulus_trajectories(rng, lengths):
    """Map trajectories of the given lengths whose complex master samples
    are drawn with amplitude in [0.05, 0.3] and uniform phase."""
    trajs = []
    for n in lengths:
        z = (0.05 + 0.25 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        trajs.append(Trajectory(times=np.arange(n, dtype=float),
                                states=np.column_stack([z.real, z.imag]),
                                kind="map"))
    return trajs


def test_multi_trajectory_map_fit_matches_stacked_blocks():
    """One evaluation over every trajectory's samples fits what the design
    built per trajectory and stacked fits."""
    d = map_2d_library(3)
    trajs = annulus_trajectories(np.random.default_rng(7), (40, 57, 33))
    vals = [d.masters(t.states) for t in trajs]
    design = np.vstack([d.evaluate(v[:-1]) for v in vals])
    targets = np.concatenate([v[1:] for v in vals])
    ref, ref_rms, ref_cond = fit._scaled_lstsq(design, targets, 0.0)
    m = fit.fit_reduced_map(trajs, d)
    assert np.linalg.norm(m.coefficients - ref) <= \
        1e-12 * np.linalg.norm(ref)
    np.testing.assert_allclose(m.residuals, ref_rms, rtol=1e-12)
    assert m.condition_number == pytest.approx(ref_cond, rel=1e-12)


def test_fit_reduced_map_peak_memory():
    """Traced peak allocation of a 20 x 600 sample map fit over a 70-term
    map_2d library, against the 13.4 MB of its complex design: measured
    4.77x when each trajectory had its own design block, stacked into a
    second copy and scaled into a third for the pivoted QR, and 2.79x with
    one evaluation and the row-blocked QR, which holds the design and its
    reflectors."""
    d = map_2d_library(5)
    assert len(d) == 70
    trajs = annulus_trajectories(np.random.default_rng(8), [600] * 20)
    design_bytes = 20 * 599 * len(d) * np.dtype(complex).itemsize
    fit.fit_reduced_map(trajs, d)
    tracemalloc.start()
    try:
        fit.fit_reduced_map(trajs, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * design_bytes


def test_integer_only_dictionary_fits_fractional_data_worse():
    spec = planar_spec()
    full = dictionary.dictionary_flow_1d(spec, K=3)
    xs = np.linspace(0.05, 1.0, 60)
    nxt = 0.9 * xs + 0.3 * xs ** 2.5
    frac_traj = Trajectory(times=np.arange(61, dtype=float),
                           states=np.concatenate([xs, [nxt[-1]]])[:, None],
                           kind="map")
    design_full = full.evaluate(xs)
    integer_cols = [i for i, m in enumerate(full.monomials) if m.is_integer]
    c_full, r_full, _ = fit._scaled_lstsq(design_full, nxt, ridge=0.0)
    c_int, r_int, _ = fit._scaled_lstsq(design_full[:, integer_cols], nxt,
                                        ridge=0.0)
    assert r_int[0] > 10 * r_full[0]


def test_nested_dictionary_residual_monotone():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.05, 1.0, 80)
    ys = np.sin(3.0 * xs)
    spec = planar_spec()
    prev = np.inf
    for K in (2, 3, 4):
        d = dictionary.dictionary_flow_1d(spec, K)
        _, rms, _ = fit._scaled_lstsq(d.evaluate(xs), ys, ridge=0.0)
        assert rms[0] <= prev + 1e-12
        prev = rms[0]


def test_fit_reduced_map_needs_two_samples():
    d = couette_dict()
    with pytest.raises(InsufficientData):
        fit.fit_reduced_map(map_traj([0.1]), d)


@pytest.mark.parametrize("fit_reduced", [fit.fit_reduced_map,
                                         fit.fit_reduced_flow])
def test_reduced_fits_reject_empty_training_data(fit_reduced):
    with pytest.raises(InputError):
        fit_reduced([], couette_dict())


def linear_map_rows(matrix, starts, steps=12):
    """Map trajectories x(i+1) = matrix x(i) from each start row."""
    trajs = []
    for x in starts:
        rows = [np.asarray(x, dtype=float)]
        for _ in range(steps):
            rows.append(matrix @ rows[-1])
        trajs.append(Trajectory(times=np.arange(steps + 1, dtype=float),
                                states=np.array(rows), kind="map"))
    return trajs


@pytest.mark.parametrize("case", ["1d", "2d", "integer"])
def test_rhs_maps_state_rows_to_state_rows(case):
    """A map model fitted on linear data sends each state row to the next
    one; a 2D model's complex channel comes back as (Re, Im) columns."""
    if case == "1d":
        d, matrix = couette_dict(), np.array([[0.9]])
        starts = [[0.5], [0.3]]           # the positive-only branch
    elif case == "2d":
        spec = spectrum.SpectralPartition(kind="map",
                                          alpha_omega=((0.6, 0.5),))
        d = dictionary.dictionary_map_2d(spec, 2)
        matrix = np.array([[0.6, -0.5], [0.5, 0.6]])
        starts = [[0.3, 0.1], [-0.2, 0.25]]
    else:
        d = dictionary.integer_dictionary(2, 2)
        matrix = np.array([[0.8, 0.1], [-0.2, 0.7]])
        starts = [[0.3, 0.1], [-0.2, 0.25], [0.1, -0.3]]
    trajs = linear_map_rows(matrix, starts)
    m = fit.fit_reduced_map(trajs, d, ridge=1e-12)
    for traj in trajs:
        out = m.rhs(traj.states[:-1])
        assert out.shape == traj.states[1:].shape
        np.testing.assert_allclose(out, traj.states[1:], atol=1e-8)
        pred = fit.predict(m, traj.states[0], np.arange(len(traj)))
        np.testing.assert_allclose(pred.states, traj.states, atol=1e-8)
    with pytest.raises(WrongShape):
        m.rhs(np.zeros((3, d.width + 1)))
    with pytest.raises(WrongShape):
        fit.predict(m, np.zeros(d.width + 1), np.arange(4))


# ---------------------------------------------------------------------------
# reduced flow fits
# ---------------------------------------------------------------------------

def flow_traj(ts, xs):
    return Trajectory(times=np.asarray(ts, dtype=float),
                      states=np.asarray(xs, dtype=float)[:, None],
                      kind="flow")


def test_fit_reduced_flow_linear_decay():
    ts = np.linspace(0.0, 4.0, 81)
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    m = fit.fit_reduced_flow(flow_traj(ts, np.exp(-ts)), d)
    idx = d.multi_indices.index((1, 0))
    h = ts[1] - ts[0]
    assert m.coefficients[idx, 0] == pytest.approx(-1.0, abs=10 * h ** 4)
    assert m.kind == "flow"


def test_multi_trajectory_flow_fit_matches_stacked_blocks():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    trajs = []
    for amp, n in ((0.3, 61), (0.8, 45), (0.5, 80)):
        ts = 0.05 * np.arange(n)
        trajs.append(flow_traj(ts, amp * np.exp(-ts)
                               + 0.4 * amp ** 2.5 * np.exp(-2.5 * ts)))
    design, targets = [], []
    for t in trajs:
        vals = d.masters(t.states)
        design.append(d.evaluate(vals[2:-2]))
        targets.append(fit._central_differences(vals, t.uniform_step)[0])
    ref, _, ref_cond = fit._scaled_lstsq(np.vstack(design),
                                         np.concatenate(targets), 0.0)
    m = fit.fit_reduced_flow(trajs, d)
    assert np.linalg.norm(m.coefficients - ref) <= \
        1e-12 * np.linalg.norm(ref)
    assert m.condition_number == pytest.approx(ref_cond, rel=1e-12)


def test_training_amplitude_counts_every_last_sample():
    """The largest master amplitude is each trajectory's last sample, which
    enters no design row of a map fit (the last two enter none of a flow
    fit); it still sets the trust region."""
    d = dictionary.integer_dictionary(1, 3)
    maps = [map_traj(x0 * 1.05 ** np.arange(20)) for x0 in (0.2, 0.3, 0.1)]
    m = fit.fit_reduced_map(maps, d)
    assert m.training_amplitude == pytest.approx(0.3 * 1.05 ** 19, rel=1e-15)
    ts = 0.05 * np.arange(40)
    flows = [flow_traj(ts, x0 * np.exp(0.2 * ts)) for x0 in (0.2, 0.3, 0.1)]
    m = fit.fit_reduced_flow(flows, d)
    assert m.training_amplitude == pytest.approx(0.3 * np.exp(0.2 * ts[-1]),
                                                 rel=1e-15)


def test_fit_reduced_flow_coarse_sampling_raises():
    ts = np.linspace(0.0, 5.0, 7)
    d = dictionary.dictionary_flow_1d(planar_spec(), K=2)
    with pytest.raises(StepTooCoarse):
        fit.fit_reduced_flow(flow_traj(ts, np.cos(3.0 * ts)), d)


def test_fit_reduced_flow_needs_uniform_sampling():
    ts = np.array([0.0, 0.1, 0.3, 0.35, 0.6, 0.8])
    d = dictionary.dictionary_flow_1d(planar_spec(), K=2)
    with pytest.raises(InputError):
        fit.fit_reduced_flow(flow_traj(ts, np.exp(-ts)), d)


def test_fit_reduced_flow_needs_five_samples():
    ts = np.linspace(0.0, 0.3, 4)
    d = dictionary.dictionary_flow_1d(planar_spec(), K=2)
    with pytest.raises(InsufficientData):
        fit.fit_reduced_flow(flow_traj(ts, np.exp(-ts)), d)


def test_reduced_fit_kind_must_match_its_library():
    """A fractional library's spectrum fixes the model kind: a map over
    the planar flow library, or a flow over the Couette map library, is bad
    input. An integer library's columns do not depend on the kind, so it
    fits either."""
    ts = np.linspace(0.0, 4.0, 161)
    flow_1d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    with pytest.raises(InputError, match="reduced map model over a flow_1d"):
        fit.fit_reduced_map(map_traj(np.exp(-ts)), flow_1d)
    with pytest.raises(InputError, match="reduced flow model over a map_1d"):
        fit.fit_reduced_flow(flow_traj(ts, np.exp(-ts)), couette_dict())
    integer = dictionary.integer_dictionary(1, 3)
    assert fit.fit_reduced_map(map_traj(np.exp(-ts)), integer).kind == "map"
    assert fit.fit_reduced_flow(flow_traj(ts, np.exp(-ts)),
                                integer).kind == "flow"


# ---------------------------------------------------------------------------
# prediction and error metrics
# ---------------------------------------------------------------------------

def linear_map_model(rate=0.9, amp=1.0):
    d = couette_dict()
    vals = amp * rate ** np.arange(25)
    return fit.fit_reduced_map(map_traj(vals), d, ridge=1e-10)


def test_predict_map_decays():
    m = linear_map_model()
    traj = fit.predict(m, [0.5], np.arange(11))
    assert len(traj) == 11
    np.testing.assert_allclose(traj.states[:, 0],
                               0.5 * 0.9 ** np.arange(11), atol=1e-6)
    assert traj.left_trust_region is False


def test_predict_rejects_far_initial_condition():
    m = linear_map_model()
    with pytest.raises(OutOfRadius):
        fit.predict(m, [5.0], np.arange(11))


def test_predict_diverging_model():
    d = dictionary.integer_dictionary(1, 2)
    vals = 0.001 * 2.0 ** np.arange(12)
    m = fit.fit_reduced_map(map_traj(vals), d)
    with pytest.raises(Diverged):
        fit.predict(m, [1.0], np.arange(61))


def test_predict_flags_trust_region_exit():
    d = couette_dict()
    vals = 0.1 * 1.2 ** np.arange(15)
    m = fit.fit_reduced_map(map_traj(vals), d, ridge=1e-12)
    traj = fit.predict(m, [np.max(vals)], np.arange(9))
    assert traj.left_trust_region is True


def decay_flow_model():
    """x' = -x fitted on the planar K = 3 library."""
    ts = np.linspace(0.0, 4.0, 161)
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    return fit.fit_reduced_flow(flow_traj(ts, np.exp(-ts)), d)


def test_predict_flow_model():
    m = decay_flow_model()
    traj = fit.predict(m, [0.8], (0.0, 2.0))
    assert traj.states[-1, 0] == pytest.approx(0.8 * np.exp(-2.0), abs=1e-4)


def test_predict_flow_returns_a_row_per_time():
    """A flow prediction is sampled at the times it is given, the first row
    being the initial state."""
    times = np.array([0.5, 0.7, 1.6, 3.0])
    traj = fit.predict(decay_flow_model(), [0.8], times)
    np.testing.assert_array_equal(traj.times, times)
    assert traj.states[0, 0] == 0.8
    np.testing.assert_allclose(traj.states[:, 0],
                               0.8 * np.exp(-(times - 0.5)), atol=1e-4)
    assert traj.left_trust_region is False


@pytest.mark.parametrize("times", [[0.0], [], [1.0, 1.0]],
                         ids=["one", "none", "equal"])
def test_predict_flow_needs_two_times(times):
    with pytest.raises(InputError, match="two increasing times"):
        fit.predict(decay_flow_model(), [0.8], times)


def test_relative_error_identical_is_zero():
    a = np.random.default_rng(5).normal(size=(10, 2))
    per_step, mean = fit.relative_error(a, a.copy())
    np.testing.assert_array_equal(per_step, np.zeros(10))
    assert mean == 0.0


def test_relative_error_scaling():
    true = np.array([[1.0], [2.0], [4.0]])
    pred = true + np.array([[0.4], [0.0], [0.0]])
    per_step, mean = fit.relative_error(true, pred)
    assert per_step[0] == pytest.approx(0.1)
    assert mean == pytest.approx(0.1 / 3)


def test_relative_error_shape_mismatch():
    with pytest.raises(LengthMismatch):
        fit.relative_error(np.ones((3, 1)), np.ones((4, 1)))


def test_reduced_fit_json_round_trip(tmp_path):
    m = linear_map_model()
    path = tmp_path / "model.json"
    m.to_json(path)
    clone = fit.model_from_json(path)
    assert clone.kind == "map"
    assert clone.training_amplitude == m.training_amplitude
    np.testing.assert_allclose(clone.coefficients, m.coefficients,
                               atol=1e-14)
    np.testing.assert_allclose(clone.rhs([[0.2]]), m.rhs([[0.2]]), rtol=0,
                               atol=1e-14)


@pytest.mark.parametrize("key, value", [
    ("model", None), ("model", "reduced_spline"), ("coefficients", None),
    ("coefficients", [["a"]]), ("coefficients", [[0.5]]),
    ("diagnostics", []), ("residuals", ["x"]), ("residuals", [0.1, 0.2]),
    ("training_amplitude", "big"), ("condition_number", None),
    ("model", "reduced_flow")])
def test_model_from_json_rejects_malformed_documents(key, value):
    """None deletes the key; the four before the last edit the
    diagnostics. The model is a map over a map_1d library, so reduced_flow
    is no kind it can have."""
    doc = json.loads(linear_map_model().to_json())
    target = doc if key in doc else doc["diagnostics"]
    if value is None:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(InputError):
        fit.model_from_json(json.dumps(doc))


def test_model_from_json_rejects_terms_out_of_canonical_order():
    """Coefficient rows follow the dictionary's canonical term order; a
    model listing its terms and rows in another order does not load (it
    would pair each row with another term)."""
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    model = fit.ReducedFit(dictionary=d,
                           coefficients=np.arange(1.0, len(d) + 1)[:, None],
                           kind="flow", residuals=np.zeros(1),
                           condition_number=1.0, training_amplitude=1.0)
    doc = json.loads(model.to_json())
    np.testing.assert_array_equal(
        fit.model_from_json(json.dumps(doc)).rhs([[0.4]]), model.rhs([[0.4]]))
    doc["dictionary"]["monomials"].reverse()
    doc["coefficients"].reverse()
    with pytest.raises(InputError):
        fit.model_from_json(json.dumps(doc))


def test_graph_model_from_json_rejects_fractional_coordinates(tmp_path):
    d = dictionary.dictionary_flow_1d(planar_spec(), K=3)
    traj = graph_traj(np.linspace(-1.0, 1.0, 41), lambda x: x ** 2)
    doc = json.loads(fit.fit_graph(traj, d, master_coords=(0,),
                                   slaved_coords=(1,)).to_json())
    doc["diagnostics"]["master_coords"] = [0.5]
    with pytest.raises(InputError):
        fit.model_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def dmd(states):
    """The DMD propagator A, x(i+1) = A x(i), of a snapshot array: the
    reduced-map fit over the degree-1 integer library, whose columns are
    the states. Its coefficient rows follow the library's canonical term
    order (x2 before x1), so they are picked by multi-index."""
    n = states.shape[1]
    d = dictionary.integer_dictionary(n, 1)
    model = fit.fit_reduced_map(
        Trajectory(times=np.arange(len(states), dtype=float), states=states,
                   kind="map"), d)
    rows = [d.multi_indices.index(tuple(np.eye(n, dtype=int)[j]))
            for j in range(n)]
    return model.coefficients[rows].T


def test_dmd_linear_decay():
    A = dmd(0.5 ** np.arange(8)[:, None])
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(0.5, abs=1e-12)


def linear_snapshots(scales=(1.0, 1.0)):
    """A noisy two-state linear recurrence, one column per state."""
    rng = np.random.default_rng(3)
    A = np.array([[0.9, 0.1], [-0.2, 0.8]])
    x = [np.array([1.0, 0.5])]
    for _ in range(30):
        x.append(A @ x[-1] + 1e-3 * rng.normal(size=2))
    return np.array(x) * np.asarray(scales)


def test_dmd_matches_numpy_lstsq_on_noisy_data():
    states = linear_snapshots()
    ref, _, _, _ = np.linalg.lstsq(states[:-1], states[1:], rcond=None)
    np.testing.assert_allclose(dmd(states), ref.T, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_dmd_identical_state_columns_are_rank_deficient():
    """A numerical failure, which the CLI reports with exit code 3."""
    states = linear_snapshots()[:, [0, 0]]
    with pytest.raises(RankDeficient):
        dmd(states)
    assert issubclass(RankDeficient, NumericalError)


def test_dmd_badly_scaled_full_rank_snapshots_fit():
    """The rank test reads the column-scaled factor: state scales 1e14
    apart make cond(X) about 6e13 but leave the propagator well defined."""
    scales = np.array([1e-7, 1e7])
    states = linear_snapshots(scales)
    assert np.linalg.cond(states[:-1]) > fit.RANK_DEFICIENT_COND
    np.testing.assert_allclose(dmd(states) / np.outer(scales, 1.0 / scales),
                               dmd(linear_snapshots()), rtol=1e-10)


def test_dmd_insufficient_snapshots():
    """Two snapshots of two states give one equation per channel for two
    coefficients."""
    with pytest.raises(InsufficientData):
        dmd(np.ones((2, 2)))


def test_pod_reduced_model_planar_values():
    model = fit.pod_reduced_model_planar(1.0, 1.0, 2.5, K=1.0)
    assert model["quadratic"] == pytest.approx(3.5 / 2.0)
    assert model["fixed_point"] == pytest.approx(3.5 / 3.5 * (1.0 + 2.5)
                                                 / 3.5)
    assert model["linear"] == pytest.approx(-model["quadratic"]
                                            * model["fixed_point"])


def test_pod_zero_slope_rejected():
    with pytest.raises(BadParams):
        fit.pod_reduced_model_planar(1.0, 1.0, 2.5, K=0.0)
