"""Tests for fractional-power dictionaries, pruning and the linear
invariant graph families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmfrac import dictionary, spectrum
from ssmfrac.errors import DomainError, WrongShape

COUETTE_MASTER_LOG = -0.035068
COUETTE_SLAVED_LOGS = (-0.069776, -0.073369, -0.140274, -0.168877)


def planar_spec():
    return spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))


def couette_spec():
    return spectrum.SpectralPartition.from_map_logs(
        [COUETTE_MASTER_LOG], COUETTE_SLAVED_LOGS)


def shaw_pierre_spec():
    return spectrum.SpectralPartition(
        kind="flow",
        alpha_omega=((-0.07414969295, 1.00270482892),),
        beta_nu=((-0.37585030705, 1.68117359494),))


# ---------------------------------------------------------------------------
# 1D flow dictionaries
# ---------------------------------------------------------------------------

def test_flow_1d_planar_orders():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=5)
    expected = sorted([1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.0])
    np.testing.assert_allclose(sorted(d.orders), expected, atol=1e-12)


def test_flow_1d_truncation_one_is_linear_only():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=1)
    assert d.multi_indices == [(1, 0)]
    d = dictionary.dictionary_flow_1d(planar_spec(), K=1,
                                      include_linear=False)
    assert len(d) == 0


def test_flow_1d_integer_ratio_keeps_both_entries():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-4.0,))
    d = dictionary.dictionary_flow_1d(spec, K=4)
    assert (4, 0) in d.multi_indices
    assert (0, 1) in d.multi_indices


def test_flow_1d_rejects_map_spectrum():
    with pytest.raises(WrongShape):
        dictionary.dictionary_flow_1d(couette_spec(), K=3)


def test_flow_1d_negative_ratio_excluded():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(2.0,))
    d = dictionary.dictionary_flow_1d(spec, K=3)
    assert all(m.k4 == (0,) for m in d.monomials)


# ---------------------------------------------------------------------------
# 2D flow dictionaries
# ---------------------------------------------------------------------------

def test_flow_2d_shaw_pierre_k5_integer_only():
    d = dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=5)
    assert len(d) > 0
    assert all(m.is_integer for m in d.monomials)


def test_flow_2d_shaw_pierre_k6_gains_fractional_terms():
    d = dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=6)
    ratio = 0.37585030705 / 0.07414969295
    frac = [m for m in d.monomials if not m.is_integer]
    assert frac
    pure = [m for m in frac if m.k2 == (0,) and m.k3 == (0,)]
    assert {m.k5 + m.k6 for m in pure} == {(1, 0), (0, 1)}
    for m in pure:
        assert m.amp_exponents[0] == pytest.approx(ratio, abs=1e-9)
    # order 1 + 5.0688 exceeds 6, so linear-shifted fractional terms
    # only enter at K=7
    assert not [m for m in frac if m.k2 + m.k3 in ((1, 0), (0, 1))]
    d7 = dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=7)
    shifted = [m for m in d7.monomials if not m.is_integer
               and m.k2 + m.k3 in ((1, 0), (0, 1))]
    assert len(shifted) == 4


def test_flow_2d_integer_coincidence_flagged():
    spec = spectrum.SpectralPartition(kind="flow",
                                      alpha_omega=((-1.0, 2.0),),
                                      beta_nu=((-2.0, 1.0),))
    d = dictionary.dictionary_flow_2d(spec, K=3)
    frac = [m for m in d.monomials if not m.is_integer]
    assert frac and all(m.near_integer for m in frac)
    assert any(m.is_integer and m.order == 2.0 for m in d.monomials)


def test_flow_2d_phase_cancels_when_k5_equals_k6():
    spec = spectrum.SpectralPartition(kind="flow",
                                      alpha_omega=((-1.0, 2.0),),
                                      beta_nu=((-1.3, 0.7),))
    d = dictionary.dictionary_flow_2d(spec, K=4)
    for m in d.monomials:
        if m.k5 == m.k6:
            assert m.phase_coeff == 0.0


# ---------------------------------------------------------------------------
# 1D map dictionaries
# ---------------------------------------------------------------------------

def test_map_1d_couette_pruned_matches_reference_indices():
    d = dictionary.dictionary_map_1d(couette_spec(), K=5)
    d = dictionary.prune_near_integer(d, tol=0.05)
    reduced = [(mi[0], mi[2], mi[4]) for mi in d.multi_indices]
    assert reduced == [(1, 0, 0), (2, 0, 0), (0, 1, 0), (3, 0, 0),
                       (1, 1, 0), (4, 0, 0), (2, 1, 0), (0, 2, 0),
                       (0, 0, 1), (5, 0, 0)]
    assert all(mi[1] == 0 and mi[3] == 0 for mi in d.multi_indices)


def test_map_1d_largest_ratio_multiplicity_capped():
    d = dictionary.dictionary_map_1d(couette_spec(), K=5)
    d = dictionary.prune_near_integer(d, tol=0.05)
    assert all(mi[4] <= 1 for mi in d.multi_indices)
    assert (0, 0, 2, 0, 0) in d.multi_indices


def test_map_1d_expanding_slaved_gives_integer_only():
    spec = spectrum.SpectralPartition(kind="map", lam=(0.5,), kappa=(2.0,))
    d = dictionary.dictionary_map_1d(spec, K=3)
    assert all(m.is_integer for m in d.monomials)
    assert len(d) == 3


def test_map_1d_rejects_flow_spectrum():
    with pytest.raises(WrongShape):
        dictionary.dictionary_map_1d(planar_spec(), K=3)


def test_map_1d_rejects_negative_multiplier():
    spec = spectrum.SpectralPartition(kind="map", lam=(0.9,), kappa=(-0.5,))
    with pytest.raises(WrongShape):
        dictionary.dictionary_map_1d(spec, K=3)


# ---------------------------------------------------------------------------
# 2D map dictionaries
# ---------------------------------------------------------------------------

def test_map_2d_log_modulus_exponent():
    spec = spectrum.SpectralPartition(
        kind="map",
        alpha_omega=((np.exp(-1.0) * np.cos(0.4),
                      np.exp(-1.0) * np.sin(0.4)),),
        beta_nu=((np.exp(-2.0) * np.cos(1.1),
                  np.exp(-2.0) * np.sin(1.1)),))
    d = dictionary.dictionary_map_2d(spec, K=3)
    pure = [m for m in d.monomials
            if m.k2 == (0,) and m.k3 == (0,) and m.k5 == (1,)
            and m.k6 == (0,)]
    assert len(pure) == 1
    assert pure[0].amp_exponents[0] == pytest.approx(2.0, abs=1e-12)


def test_map_2d_truncation_below_fractional_order():
    spec = spectrum.SpectralPartition(
        kind="map",
        alpha_omega=((np.exp(-1.0), 0.001),),
        beta_nu=((np.exp(-4.0), 0.001),))
    d = dictionary.dictionary_map_2d(spec, K=3)
    assert all(m.is_integer for m in d.monomials)


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_zero_tol_is_identity():
    d = dictionary.dictionary_map_1d(couette_spec(), K=5)
    assert dictionary.prune_near_integer(d, tol=0.0) is d


def test_prune_leaves_far_from_integer_ratios():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=5)
    pruned = dictionary.prune_near_integer(d, tol=0.4)
    assert pruned.multi_indices == d.multi_indices


def test_prune_records_removals_in_metadata():
    d = dictionary.dictionary_map_1d(couette_spec(), K=5)
    pruned = dictionary.prune_near_integer(d, tol=0.05)
    assert pruned.metadata["prune_tol"] == 0.05
    assert len(pruned.removed) == len(d) - len(pruned)
    assert len(pruned.metadata["pruned_indices"]) == len(pruned.removed)
    for mi in pruned.removed:
        assert mi.k4[0] > 0 or mi.k4[2] > 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_real_fractional_term():
    m = dictionary.FractionalMonomial(k1=(1,), k4=(1,),
                                      amp_exponents=(2.5,), order=3.5)
    u = np.array([-2.0, 0.0, 0.5])
    expected = u * np.abs(u) ** 2.5
    np.testing.assert_allclose(m.eval_real(u), expected, atol=1e-14)


def test_eval_real_positive_only_rejects_negative():
    m = dictionary.FractionalMonomial(k1=(1,), order=1.0,
                                      branch="positive_only")
    with pytest.raises(DomainError):
        m.eval_real([-1.0])


def test_eval_complex_phase_factor():
    m = dictionary.FractionalMonomial(k2=(1,), k3=(0,), k5=(1,), k6=(0,),
                                      amp_exponents=(1.5,), phase_coeff=0.7,
                                      order=2.5)
    z = np.array([0.3 + 0.4j])
    expected = z * np.abs(z) ** 1.5 * np.exp(0.7j * np.log(np.abs(z)))
    np.testing.assert_allclose(m.eval_complex(z), expected, atol=1e-14)


def test_eval_zero_at_origin():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=5)
    np.testing.assert_array_equal(d.evaluate([0.0]), np.zeros((1, len(d))))
    d2 = dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=4)
    np.testing.assert_array_equal(d2.evaluate([0.0 + 0.0j]),
                                  np.zeros((1, len(d2)), dtype=complex))


def test_evaluate_accepts_real_pairs_for_2d():
    d = dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=3)
    z = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    pairs = np.column_stack([z.real, z.imag])
    np.testing.assert_allclose(d.evaluate(pairs), d.evaluate(z), atol=1e-14)


@given(st.floats(min_value=1e-6, max_value=10.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_eval_real_scales_as_order(scale, u):
    """Homogeneity: m(s*u) = s^order * m(u) for u, s > 0."""
    m = dictionary.FractionalMonomial(k1=(2,), k4=(1,),
                                      amp_exponents=(2.5,), order=4.5)
    u = abs(u) + 0.1
    left = m.eval_real([scale * u])[0]
    right = scale ** 4.5 * m.eval_real([u])[0]
    assert left == pytest.approx(right, rel=1e-9)


@st.composite
def dictionaries(draw):
    """A dictionary of one of the four fractional families, over a drawn
    spectrum with one or two slaved entries and truncation order 2..5."""
    family = draw(st.sampled_from(["flow_1d", "map_1d", "flow_2d",
                                   "map_2d"]))
    ratios = draw(st.lists(st.floats(0.3, 4.0), min_size=1, max_size=2))
    K = draw(st.integers(2, 5))
    if family == "flow_1d":
        rate = draw(st.floats(0.5, 2.0))
        spec = spectrum.SpectralPartition(
            kind="flow", lam=(-rate,), kappa=[-x * rate for x in ratios])
        return dictionary.dictionary_flow_1d(spec, K)
    if family == "map_1d":
        mod = draw(st.floats(0.3, 0.95))
        spec = spectrum.SpectralPartition(
            kind="map", lam=(mod,), kappa=[mod ** x for x in ratios])
        return dictionary.dictionary_map_1d(spec, K)
    angles = draw(st.lists(st.floats(0.1, 3.0), min_size=len(ratios) + 1,
                           max_size=len(ratios) + 1))
    if family == "flow_2d":
        rate = draw(st.floats(0.05, 2.0))
        spec = spectrum.SpectralPartition(
            kind="flow", alpha_omega=((-rate, angles[0]),),
            beta_nu=[(-x * rate, w) for x, w in zip(ratios, angles[1:])])
        return dictionary.dictionary_flow_2d(spec, K)
    mod = draw(st.floats(0.3, 0.95))
    spec = spectrum.SpectralPartition(
        kind="map",
        alpha_omega=((mod * np.cos(angles[0]), mod * np.sin(angles[0])),),
        beta_nu=[(mod ** x * np.cos(w), mod ** x * np.sin(w))
                 for x, w in zip(ratios, angles[1:])])
    return dictionary.dictionary_map_2d(spec, K)


def closed_form(d, m, x):
    """Monomial m of dictionary d at samples x, written out from the
    spectrum: u^k1 |u|^(sum k4 rho) in 1D, z^k2 zbar^k3 |z|^(sum (k5 + k6)
    xi) exp(i sum (k5 - k6) gamma log|z|) in 2D."""
    spec = d.spec
    if d.family == "flow_1d":
        rho = [k / spec.lam[0] for k in spec.kappa]
    elif d.family == "map_1d":
        rho = [np.log(k) / np.log(spec.lam[0]) for k in spec.kappa]
    if d.family.endswith("1d"):
        frac = sum(k * r for k, r in zip(m.k4, rho))
        return x ** m.k1[0] * np.abs(x) ** frac
    (a, w), = spec.alpha_omega
    if d.family == "flow_2d":
        xi = [b / a for b, _ in spec.beta_nu]
        gamma = [nu / a for _, nu in spec.beta_nu]
    else:
        xi = [np.log(np.hypot(b, nu)) / np.log(np.hypot(a, w))
              for b, nu in spec.beta_nu]
        gamma = [np.arctan2(nu, b) / np.log(np.hypot(a, w))
                 for b, nu in spec.beta_nu]
    frac = sum((k5 + k6) * v for k5, k6, v in zip(m.k5, m.k6, xi))
    phase = sum((k5 - k6) * g for k5, k6, g in zip(m.k5, m.k6, gamma))
    r = np.abs(x)
    return x ** m.k2[0] * np.conj(x) ** m.k3[0] * r ** frac * \
        np.exp(1j * phase * np.log(r))


def draw_samples(d, data):
    """Eight nonzero samples the family accepts."""
    mods = np.array(data.draw(st.lists(st.floats(1e-3, 2.0), min_size=8,
                                       max_size=8)))
    if d.family == "map_1d":
        return mods                     # positive-only branch
    if d.family.endswith("1d"):
        return mods * np.array(data.draw(st.lists(
            st.sampled_from([-1.0, 1.0]), min_size=8, max_size=8)))
    angles = np.array(data.draw(st.lists(st.floats(-np.pi, np.pi),
                                         min_size=8, max_size=8)))
    return mods * np.exp(1j * angles)


@given(dictionaries(), st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_columns_match_closed_form(d, data):
    x = draw_samples(d, data)
    values = d.evaluate(x)
    assert values.shape == (len(x), len(d))
    for j, m in enumerate(d.monomials):
        np.testing.assert_allclose(values[:, j], closed_form(d, m, x),
                                   rtol=1e-11, atol=0)


@given(dictionaries(), st.data(), st.floats(0.05, 20.0))
@settings(max_examples=60, deadline=None)
def test_compiled_columns_scale_with_order(d, data, s):
    """m(s x) = s^order m(x) in 1D and s^order e^{i Gamma log s} m(x) in
    2D, Gamma being the monomial's phase coefficient."""
    x = draw_samples(d, data)
    scaled = d.evaluate(s * x)
    base = d.evaluate(x)
    for j, m in enumerate(d.monomials):
        factor = s ** m.order
        if d.family.endswith("2d"):
            factor = factor * np.exp(1j * m.phase_coeff * np.log(s))
        np.testing.assert_allclose(scaled[:, j], factor * base[:, j],
                                   rtol=1e-10, atol=0)


@given(dictionaries(), st.data())
@settings(max_examples=30, deadline=None)
def test_compiled_kernel_zero_at_origin_and_long_double(d, data):
    origin = np.zeros(3, dtype=complex if d.family.endswith("2d") else float)
    np.testing.assert_array_equal(d.evaluate(origin),
                                  np.zeros((3, len(d)), dtype=origin.dtype))
    x = draw_samples(d, data)
    wide = np.clongdouble if d.family.endswith("2d") else np.longdouble
    values = d.evaluate(x.astype(wide))
    assert values.dtype == wide
    np.testing.assert_allclose(values.astype(x.dtype), d.evaluate(x),
                               rtol=1e-12, atol=0)


def test_empty_integer_dictionary_evaluates_to_no_columns():
    d = dictionary.integer_dictionary(2, 0)
    assert len(d) == 0
    assert d.evaluate(np.zeros((3, 2))).shape == (3, 0)


# ---------------------------------------------------------------------------
# order consistency and determinism
# ---------------------------------------------------------------------------

def test_orders_recomputable_from_multi_index():
    spec = couette_spec()
    ratios = [np.log(k) / np.log(abs(spec.lam[0])) for k in spec.kappa]
    d = dictionary.dictionary_map_1d(spec, K=5)
    for m in d.monomials:
        order = m.k1[0] + sum(k * r for k, r in zip(m.k4, ratios))
        assert m.order == pytest.approx(order, abs=1e-12)
        assert 1.0 - 1e-12 <= m.order <= 5.0 + 1e-9


def test_serialization_deterministic():
    a = dictionary.dictionary_map_1d(couette_spec(), K=5).to_json()
    b = dictionary.dictionary_map_1d(couette_spec(), K=5).to_json()
    assert a == b


def test_json_round_trip_fractional():
    d = dictionary.prune_near_integer(
        dictionary.dictionary_map_1d(couette_spec(), K=5), tol=0.05)
    clone = dictionary.dictionary_from_json(d.to_json())
    assert clone.multi_indices == d.multi_indices
    assert [m.multi_index for m in clone.removed] == \
        [m.multi_index for m in d.removed]
    u = np.array([0.05, 0.1, 0.2])
    np.testing.assert_allclose(clone.evaluate(u), d.evaluate(u), atol=1e-14)


def test_json_round_trip_integer():
    d = dictionary.integer_dictionary(2, 3)
    clone = dictionary.dictionary_from_json(d.to_json())
    assert clone.multi_indices == d.multi_indices
    X = np.array([[0.3, -0.2], [1.0, 0.5]])
    np.testing.assert_allclose(clone.evaluate(X), d.evaluate(X), atol=1e-14)


# ---------------------------------------------------------------------------
# integer dictionaries
# ---------------------------------------------------------------------------

def test_integer_dictionary_counts():
    d = dictionary.integer_dictionary(2, 3)
    assert len(d) == 9          # degrees 1..3 in two variables
    assert all(m.is_integer for m in d.monomials)


def test_integer_dictionary_evaluation():
    d = dictionary.integer_dictionary(1, 3)
    X = np.array([[2.0], [3.0]])
    vals = d.evaluate(X)
    np.testing.assert_allclose(sorted(vals[0]), [2.0, 4.0, 8.0])
    np.testing.assert_allclose(sorted(vals[1]), [3.0, 9.0, 27.0])


# ---------------------------------------------------------------------------
# linear invariant graph families
# ---------------------------------------------------------------------------

def test_linear_graph_zero_coeffs_gives_zero():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,),
                                      beta_nu=((-3.0, 1.0),))
    coeffs = dictionary.LinearGraphCoeffs.zeros(spec)
    v, w = dictionary.linear_graph_eval(spec, coeffs, ([0.7], []))
    np.testing.assert_array_equal(v, [0.0])
    np.testing.assert_array_equal(w, [0.0])


def test_linear_graph_planar_power_law():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))
    coeffs = dictionary.LinearGraphCoeffs(K=((0.7,),))
    for u in (0.3, -0.8, 1.5):
        v, _ = dictionary.linear_graph_eval(spec, coeffs, ([u], []))
        assert v[0] == pytest.approx(0.7 * abs(u) ** 2.5, rel=1e-12)


def test_linear_graph_complex_channel_shaw_pierre():
    spec = shaw_pierre_spec()
    alpha, _ = spec.alpha_omega[0]
    beta, nu = spec.beta_nu[0]
    coeffs = dictionary.LinearGraphCoeffs(Q=((1.0 + 0.0j,),))
    z = 0.2 + 0.15j
    _, w = dictionary.linear_graph_eval(spec, coeffs, ([], [z]))
    expected = abs(z) ** (beta / alpha) * np.exp(
        1j * (nu / alpha) * np.log(abs(z)))
    assert w[0] == pytest.approx(expected, rel=1e-12)


def test_linear_graph_zero_at_origin():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))
    coeffs = dictionary.LinearGraphCoeffs(K=((0.7,),))
    v, w = dictionary.linear_graph_eval(spec, coeffs, ([0.0], []))
    np.testing.assert_array_equal(v, [0.0])
    assert w.size == 0


def test_linear_graph_two_sided_branch():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.0,))
    coeffs = dictionary.LinearGraphCoeffs(K=((1.0,),), K_neg=((-2.0,),))
    vp, _ = dictionary.linear_graph_eval(spec, coeffs, ([0.5], []))
    vn, _ = dictionary.linear_graph_eval(spec, coeffs, ([-0.5], []))
    assert vp[0] == pytest.approx(0.25)
    assert vn[0] == pytest.approx(-0.5)
