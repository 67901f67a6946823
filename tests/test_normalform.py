"""Tests for linearizing transforms, graph pullback, the extended 2D
normal form and its backbone/damping curves."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmfrac import dictionary, dynamics, fit, normalform, spectrum
from ssmfrac.errors import InputError, OutOfRadius, SmallDivisor, WrongShape

GAMMA = complex(-1.0, 2.0)          # linear coefficient of the 2D test model
TEST_RATIO = 1.3                    # beta1/alpha1 of the fractional pair


def spec_2d(ratio=TEST_RATIO, phase=-1.0):
    alpha, omega = GAMMA.real, GAMMA.imag
    return spectrum.SpectralPartition(
        kind="flow", alpha_omega=((alpha, omega),),
        beta_nu=((ratio * alpha, phase * alpha),))


def reduced_model(coeff_by_index, spec=None, K=5):
    """ReducedFit with prescribed coefficients over a 2D flow dictionary."""
    spec = spec or spec_2d()
    d = dictionary.dictionary_flow_2d(spec, K)
    coeffs = np.zeros((len(d), 1), dtype=complex)
    for key, c in coeff_by_index.items():
        hits = [i for i, m in enumerate(d.monomials)
                if (m.k2[0], m.k3[0], m.k5[0], m.k6[0]) == key]
        assert len(hits) == 1, key
        coeffs[hits[0], 0] = c
    return fit.ReducedFit(dictionary=d, coefficients=coeffs, kind="flow",
                          residuals=np.zeros(1), condition_number=1.0,
                          training_amplitude=1.0)


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_linearize_1d_quadratic():
    """For zdot = lam z + z^2 the order-2 transform is y = z - z^2/lam."""
    lam = -1.5
    sys = normalform.PolySystem(eigenvalues=(lam,),
                                terms={(2,): np.array([1.0 + 0.0j])})
    tr = normalform.linearize(sys, K=2)
    assert tr.coefficients[(2,)][0] == pytest.approx(-1.0 / lam, abs=1e-14)


def test_linearize_linear_system_is_identity():
    sys = normalform.PolySystem(eigenvalues=(-1.0, -2.5), terms={})
    tr = normalform.linearize(sys, K=5)
    assert tr.coefficients == {}
    pts = np.array([[0.3, 0.1], [0.0, 0.0]])
    np.testing.assert_allclose(tr.apply(pts), pts, atol=1e-15)


def test_linearize_resonant_raises_small_divisor():
    sys = normalform.PolySystem(
        eigenvalues=(-1.0, -2.0),
        terms={(2, 0): np.array([0.0, 1.0 + 0.0j])})
    with pytest.raises(SmallDivisor):
        normalform.linearize(sys, K=2)
    tr = normalform.linearize(sys, K=2, drop_resonant=True)
    assert tr.coefficients == {}
    assert len(tr.small_divisor_log) == 1


def test_conjugacy_residual_vanishes_after_linearize():
    rng = np.random.default_rng(11)
    lam = (-1.0, -2.3, -3.7)
    terms = {}
    for m in itertools.product(range(4), repeat=3):
        if 2 <= sum(m) <= 3:
            terms[m] = rng.normal(size=3) + 1j * rng.normal(size=3)
    sys = normalform.PolySystem(eigenvalues=lam, terms=terms)
    tr = normalform.linearize(sys, K=5)
    assert normalform.conjugacy_residual(tr, sys) < 1e-10


def test_inverse_round_trip():
    sys = normalform.PolySystem(
        eigenvalues=(-1.0 + 2.0j, -1.0 - 2.0j),
        terms={(2, 1): np.array([0.3 + 0.1j, 0.0]),
               (0, 3): np.array([0.0, 0.3 - 0.1j])})
    tr = normalform.linearize(sys, K=5)
    z = 0.05 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 7))
    pts = np.column_stack([z, np.conj(z)])
    back = tr.inverse_apply(tr.apply(pts))
    # formal inverse truncated at order 5: error O(|z|^6)
    assert np.max(np.abs(back - pts)) < 10 * 0.05 ** 6


def _mul_reference(p, q, K):
    """Product of scalar {multi-index: coeff} series truncated at order K,
    by plain loops over the terms."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if sum(m1) + sum(m2) <= K:
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0.0) + c1 * c2
    return out


def _compose_reference(series, subst, K):
    """Vector series {m: coeff vector} at x_i = subst[i], truncated at K."""
    n = len(subst)
    out = {}
    for m, cvec in series.items():
        mono = {(0,) * n: 1.0}
        for i, k in enumerate(m):
            for _ in range(k):
                mono = _mul_reference(mono, subst[i], K)
        for mm, q in mono.items():
            out[mm] = out.get(mm, 0.0) + q * np.asarray(cvec)
    return out


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), K=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inverse_series_composes_to_identity(n, K, seed):
    """x + h(x) substituted into the inverse y + G(y) gives back x through
    order K: every coefficient of h(x) + G(x + h(x)) vanishes."""
    rng = np.random.default_rng(seed)
    lam = -rng.uniform(0.5, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    monomials = [m for m in itertools.product(range(K + 1), repeat=n)
                 if 2 <= sum(m) <= K]
    divisors = [abs(lam[j] - np.dot(m, lam)) for m in monomials
                for j in range(n)]
    assume(min(divisors) > 0.1)
    terms = {m: 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
             for m in monomials if rng.random() < 0.5}
    sys = normalform.PolySystem(eigenvalues=tuple(lam), terms=terms)
    tr = normalform.linearize(sys, K)
    h = tr.coefficients
    forward = [{tuple(int(t == i) for t in range(n)): 1.0} for i in range(n)]
    for m, v in h.items():
        for i in range(n):
            forward[i][m] = forward[i].get(m, 0.0) + v[i]
    back = _compose_reference(tr.inverse_coefficients(), forward, K)
    for m, v in h.items():
        back[m] = back.get(m, 0.0) + v
    # the terms that cancel reach about scale**2, and so does round-off
    scale = max([1.0] + [float(np.max(np.abs(v))) for v in h.values()])
    assert all(np.max(np.abs(v)) <= 1e-12 * scale ** 2
               for v in back.values())


def test_from_real_system_conjugate_symmetry():
    A = dynamics.shaw_pierre_matrix()
    terms = {(3, 0, 0, 0): np.array([0.0, -0.5, 0.0, 0.0])}
    sys, V = normalform.PolySystem.from_real_system(A, terms, K=5)
    assert sys.conjugate_symmetry_error() < 1e-12
    lam = np.asarray(sys.eigenvalues)
    assert lam[0].imag > 0 and lam[1] == pytest.approx(np.conj(lam[0]))
    assert abs(lam[0].real) < abs(lam[2].real)


def test_transform_json_round_trip(tmp_path):
    sys = normalform.PolySystem(eigenvalues=(-1.5,),
                                terms={(2,): np.array([1.0 + 0.0j])})
    tr = normalform.linearize(sys, K=3)
    text = tr.to_json(tmp_path / "t.json")
    import json
    doc = json.loads(text)
    assert doc["order"] == 3
    assert doc["eigenvalues"] == [[-1.5, 0.0]]
    assert "2" in "".join(doc["coefficients"].keys())


# ---------------------------------------------------------------------------
# pullback of linear graphs
# ---------------------------------------------------------------------------

def test_pullback_linear_system_returns_subspace():
    """With no nonlinear terms the pullback is the spectral subspace."""
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))
    coeffs = dictionary.LinearGraphCoeffs.zeros(spec)
    tr = normalform.LinearizingTransform(order=3,
                                         eigenvalues=(-1.0, -2.5),
                                         coefficients={})
    grid = [(np.array([u]), np.array([])) for u in (0.1, 0.5, -0.3)]
    samples = normalform.pullback_graph(tr, spec, coeffs, grid)
    np.testing.assert_allclose(samples[:, 0].real, [0.1, 0.5, -0.3],
                               atol=1e-14)
    np.testing.assert_allclose(samples[:, 1], 0.0, atol=1e-14)


def test_pullback_respects_radius():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))
    coeffs = dictionary.LinearGraphCoeffs.zeros(spec)
    tr = normalform.LinearizingTransform(order=3,
                                         eigenvalues=(-1.0, -2.5),
                                         coefficients={})
    grid = [(np.array([2.0]), np.array([]))]
    with pytest.raises(OutOfRadius):
        normalform.pullback_graph(tr, spec, coeffs, grid, radius=1.0)


def test_pullback_rejects_wrong_dimension():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))
    coeffs = dictionary.LinearGraphCoeffs.zeros(spec)
    tr = normalform.LinearizingTransform(order=3,
                                         eigenvalues=(-1.0, -2.5, -3.0),
                                         coefficients={})
    with pytest.raises(WrongShape):
        normalform.pullback_graph(tr, spec, coeffs,
                                  [(np.array([0.1]), np.array([]))])


# ---------------------------------------------------------------------------
# resonance rule
# ---------------------------------------------------------------------------

def test_resonance_rule_examples():
    assert normalform.resonance_test_2d(2, 1)
    assert normalform.resonance_test_2d(1, 0, 1, 0)
    assert not normalform.resonance_test_2d(2, 0)
    assert not normalform.resonance_test_2d(0, 1)


def test_resonance_rule_matches_operator_kernel():
    """The rotational eigenvalue i omega (k1 - k2 - 1) vanishes exactly on
    the k1 = k2 + 1 kernel, for every index of order <= 5."""
    omega = 2.0
    for k1 in range(6):
        for k2 in range(6 - k1):
            for k5 in range(3):
                for k6 in range(3):
                    eig = 1j * omega * (k1 - k2 - 1)
                    assert (abs(eig) < 1e-12) == \
                        normalform.resonance_test_2d(k1, k2, k5, k6)


# ---------------------------------------------------------------------------
# extended 2D normal form
# ---------------------------------------------------------------------------

def test_normalform_keeps_only_resonant_terms():
    model = reduced_model({
        (1, 0, 0, 0): GAMMA,
        (2, 0, 0, 0): 0.4 - 0.2j,
        (0, 2, 0, 0): 0.1 + 0.3j,
        (2, 1, 0, 0): -0.2 + 0.5j,
        (1, 0, 1, 0): 0.15 + 0.1j,
        (0, 1, 1, 0): 0.07 - 0.2j,
    })
    nf = normalform.extended_normalform_2d(model, spec_2d())
    assert nf.resonant_terms
    for term in nf.resonant_terms:
        a = complex(*term["a"])
        b = complex(*term["b"])
        assert (a - b).real == pytest.approx(1.0, abs=1e-9)


def test_normalform_cubic_constants():
    model = reduced_model({(1, 0, 0, 0): GAMMA,
                           (2, 1, 0, 0): 0.3 - 0.7j})
    nf = normalform.extended_normalform_2d(model, spec_2d())
    assert nf.alpha1 == pytest.approx(GAMMA.real)
    assert nf.omega1 == pytest.approx(GAMMA.imag)
    assert nf.A == pytest.approx(0.3, abs=1e-12)
    assert nf.B == pytest.approx(-0.7, abs=1e-12)


def test_removable_quadratic_does_not_touch_cubic():
    base = {(1, 0, 0, 0): GAMMA, (2, 1, 0, 0): 0.3 - 0.7j}
    with_quad = dict(base)
    with_quad[(2, 0, 0, 0)] = 0.5 + 0.2j
    nf0 = normalform.extended_normalform_2d(reduced_model(base), spec_2d())
    nf1 = normalform.extended_normalform_2d(reduced_model(with_quad),
                                            spec_2d())
    assert nf1.A == pytest.approx(nf0.A, abs=1e-10)
    assert nf1.B == pytest.approx(nf0.B, abs=1e-10)


def test_normalform_zero_fractional_reduces_to_cubic_polar():
    model = reduced_model({(1, 0, 0, 0): GAMMA,
                           (2, 1, 0, 0): 0.3 - 0.7j})
    nf = normalform.extended_normalform_2d(model, spec_2d())
    assert nf.P1 == pytest.approx(0.0, abs=1e-12)
    assert nf.R1 == pytest.approx(0.0, abs=1e-12)
    r = np.linspace(0.05, 0.5, 9)
    np.testing.assert_allclose(normalform.backbone(nf, r),
                               nf.omega1 + nf.B * r ** 2, atol=1e-12)
    np.testing.assert_allclose(normalform.damping(nf, r),
                               nf.alpha1 + nf.A * r ** 2, atol=1e-12)


def test_normalform_fractional_survivor_extracted():
    model = reduced_model({(1, 0, 0, 0): GAMMA,
                           (1, 0, 1, 0): 0.2 + 0.1j})
    nf = normalform.extended_normalform_2d(model, spec_2d())
    frac = [t for t in nf.resonant_terms
            if abs(complex(*t["a"]) + complex(*t["b"])) > 1.0 + 1e-9]
    assert frac
    assert nf.P1 > 0.0


def test_normalform_drops_term_whose_removal_is_below_round_off():
    """A non-resonant term whose removal coefficient |c / denom| is at most
    COEFF_DROP is dropped, not substituted, so the sweep terminates and the
    resonant cubic is untouched."""
    c = 2e-14                      # above COEFF_DROP; c / |GAMMA| is not
    assert c > normalform.COEFF_DROP >= c / abs(GAMMA)
    model = reduced_model({(1, 0, 0, 0): GAMMA,
                           (2, 1, 0, 0): 0.3 - 0.7j,
                           (2, 0, 0, 0): c})
    nf = normalform.extended_normalform_2d(model, spec_2d())
    assert [(t["a"], t["b"]) for t in nf.resonant_terms] == \
        [([1.0, 0.0], [0.0, 0.0]), ([2.0, 0.0], [1.0, 0.0])]
    assert (nf.A, nf.B) == (0.3, -0.7)


def test_normalform_ratio_out_of_range_disables_polar():
    spec = spec_2d(ratio=2.5)
    model = reduced_model({(1, 0, 0, 0): GAMMA,
                           (2, 1, 0, 0): 0.3 - 0.7j}, spec=spec)
    nf = normalform.extended_normalform_2d(model, spec)
    assert nf.polar_valid is False
    assert nf.resonant_terms
    with pytest.raises(InputError):
        normalform.backbone(nf, np.array([0.1]))


def test_normalform_needs_linear_term():
    model = reduced_model({(2, 1, 0, 0): 0.3 - 0.7j})
    with pytest.raises(InputError):
        normalform.extended_normalform_2d(model, spec_2d())


def test_backbone_rejects_nonpositive_grid():
    model = reduced_model({(1, 0, 0, 0): GAMMA,
                           (2, 1, 0, 0): 0.3 - 0.7j})
    nf = normalform.extended_normalform_2d(model, spec_2d())
    with pytest.raises(InputError):
        normalform.backbone(nf, np.array([0.0, 0.1]))


def test_normalform_json_round_trip(tmp_path):
    import json
    model = reduced_model({(1, 0, 0, 0): GAMMA,
                           (2, 1, 0, 0): 0.3 - 0.7j})
    nf = normalform.extended_normalform_2d(model, spec_2d())
    doc = json.loads(nf.to_json(tmp_path / "nf.json"))
    assert doc["alpha1"] == pytest.approx(GAMMA.real)
    assert doc["A"] == pytest.approx(0.3)
    assert doc["polar_valid"] is True


def test_curve_to_csv(tmp_path):
    r = np.linspace(0.1, 1.0, 5)
    path = tmp_path / "curve.csv"
    normalform.curve_to_csv(r, r ** 2, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1], r ** 2, atol=1e-12)
