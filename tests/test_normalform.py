"""Tests for linearizing transforms, graph pullback, the extended 2D
normal form and its backbone/damping curves."""

import itertools
import json

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
    """ReducedFit with prescribed coefficients over a 2D flow dictionary,
    keyed on the multiplicities (k2, k3, *k5, *k6)."""
    spec = spec or spec_2d()
    d = dictionary.dictionary_flow_2d(spec, K)
    keys = [(m.k2[0], m.k3[0]) + m.k5 + m.k6 for m in d.monomials]
    coeffs = np.zeros((len(d), 1), dtype=complex)
    for key, c in coeff_by_index.items():
        assert keys.count(key) == 1, key
        coeffs[keys.index(key), 0] = c
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


@pytest.mark.parametrize("w, order", [
    ([-3.0, -0.1 - 1.0j, -2.0, -0.1 + 1.0j, -0.5], [3, 1, 4, 2, 0]),
    ([-0.1 - 1.0j, -0.1 + 1.0j, -0.1 - 1.0j, -0.1 + 1.0j, -0.1],
     [1, 0, 3, 2, 4])], ids=["mixed", "repeated-pair"])
def test_canonical_eig_order(w, order):
    """Stable by |Re|, groups in order of first appearance, the
    positive-imaginary member of a pair first."""
    assert normalform._canonical_eig_order(np.array(w)) == order


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


def linear_transform(A):
    """The linearizing transform of x' = A x, the identity, in the
    transform's own (slowest-first) eigenvalue order."""
    ps, _ = normalform.PolySystem.from_real_system(A, {}, K=3)
    return normalform.linearize(ps, 3)


def test_pullback_places_samples_by_eigenvalue_on_the_saddle_plane():
    """mixed3d's linear part with its saddle plane as masters, the paper's
    mixed-mode case: the partition lists lam = (0.905, -1.105) and kappa =
    (-0.707,), the transform -0.707, 0.905, -1.105. Each master sample
    lands in the coordinate of its own eigenvalue and v in that of kappa."""
    A = dynamics.testbed("mixed3d").jacobian(0.0, np.zeros(3))
    spec = spectrum.partition_spectrum(
        A, lambda eigs, kind: np.abs(eigs.real) > 0.8)
    tr = linear_transform(A)
    np.testing.assert_allclose(spec.lam + spec.kappa,
                               [0.905, -1.105, -0.707], atol=1e-3)
    np.testing.assert_allclose(tr.eigenvalues, [-0.707, 0.905, -1.105],
                               atol=1e-3)
    coeffs = dictionary.LinearGraphCoeffs(C=((0.0, 0.5),))
    samples = normalform.pullback_graph(
        tr, spec, coeffs, [(np.array([0.2, 0.0]), np.array([])),
                           (np.array([0.2, 0.3]), np.array([]))])
    v = 0.5 * 0.3 ** spec.quotients()[0][0, 1]
    np.testing.assert_array_equal(samples, [[0.0, 0.2, 0.0], [v, 0.2, 0.3]])


def test_pullback_places_a_master_pair_over_a_slower_slaved_real():
    """Masters -0.5 +- 2i over the slaved -0.2, which the transform lists
    first: z and conj z land in coordinates 1 and 2, v in coordinate 0."""
    A = np.zeros((3, 3))
    A[0, 0], A[1:, 1:] = -0.2, [[-0.5, 2.0], [-2.0, -0.5]]
    spec = spectrum.partition_spectrum(A, lambda eigs, kind: eigs.imag != 0)
    assert (spec.p, spec.q, spec.r, spec.s) == (0, 1, 1, 0)
    tr = linear_transform(A)
    z = 0.1 + 0.2j
    samples = normalform.pullback_graph(
        tr, spec, dictionary.LinearGraphCoeffs(C=((0.3,),)),
        [(np.array([]), np.array([z]))])
    np.testing.assert_allclose(
        samples, [[0.3 * abs(z) ** 0.4, z, z.conjugate()]], rtol=1e-14)


def test_pullback_rejects_a_transform_of_other_eigenvalues():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))
    tr = normalform.LinearizingTransform(order=3, eigenvalues=(-1.0, -3.0),
                                         coefficients={})
    with pytest.raises(WrongShape):
        normalform.pullback_graph(tr, spec,
                                  dictionary.LinearGraphCoeffs.zeros(spec),
                                  [(np.array([0.1]), np.array([]))])


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


def test_normalform_reads_the_models_spectrum():
    """The ratio and phase come from the model's own spectrum: another
    spec, or a model that is not a flow_2d one, is an input error."""
    model = reduced_model({(1, 0, 0, 0): GAMMA, (1, 0, 1, 0): 0.2 + 0.1j})
    assert normalform.extended_normalform_2d(model, spec_2d()).ratio == \
        pytest.approx(TEST_RATIO)
    with pytest.raises(InputError):
        normalform.extended_normalform_2d(model, spec_2d(ratio=1.7))
    planar = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                        kappa=(-2.5,))
    graph = fit.ReducedFit(
        dictionary=dictionary.dictionary_flow_1d(planar, 3),
        coefficients=np.ones((4, 1)), kind="flow", residuals=np.zeros(1),
        condition_number=1.0, training_amplitude=1.0)
    with pytest.raises(InputError):
        normalform.extended_normalform_2d(graph, planar)


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


# ---------------------------------------------------------------------------
# extended 2D normal form: outputs recorded before the lattice engine
# ---------------------------------------------------------------------------

NF_FIELDS = ("A", "B", "P1", "P2", "P3", "Q", "R1", "R2", "R3")


def benchmark_models(seed):
    """The order-6 model and the dense order-3 model that the series
    benchmark draws for a seed: every resonant term plus five removable
    ones at order 6, and every term at order 3 (what a fit returns), each
    coefficient 0.1 (N + i N) and the linear one GAMMA."""
    rng = np.random.default_rng(seed)
    rng.uniform(size=48)                    # the benchmark's sample grid
    spec = spec_2d()

    def keys(order):                        # in the benchmark's draw order
        return [(k2, k3, k5, k6) for k5, k6 in itertools.product(
            range(order + 1), repeat=2) if (k5 + k6) * TEST_RATIO <= order
            for k2, k3 in itertools.product(range(order + 1), repeat=2)
            if 1.0 <= k2 + k3 + (k5 + k6) * TEST_RATIO <= order + 1e-9]

    def draw():
        return 0.1 * complex(rng.normal(), rng.normal())

    c6 = {k: draw() for k in keys(6)
          if k[0] == k[1] + 1 and k != (1, 0, 0, 0)}
    for k in ((2, 0, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (3, 0, 0, 0),
              (0, 0, 2, 0)):
        c6[k] = draw()
    c3 = {k: draw() for k in keys(3)}
    c6[(1, 0, 0, 0)] = c3[(1, 0, 0, 0)] = GAMMA
    return reduced_model(c6, spec, 6), reduced_model(c3, spec, 3)


# constants recorded in perfbench/reference.json; 22 survivors each
ORDER6_CONSTANTS = {
    0: (0.17944286317554273, 0.1271866336070182, 0.20827670096863735,
        0.15142592983020253, 0.18829421886462433, 0.40797695801760303,
        0.17511984661611527, 0.12387098495920128, 0.05218236906110397),
    1: (-0.05208709172273138, 0.050627251830782906, 0.17985417780448118,
        -0.05420874995781787, 0.22001255986523688, -0.3305284093494594,
        0.11194178247603156, 0.014662964585834064, 0.07981570171876237),
    2: (-0.1876886257000838, 0.11023827055315955, 0.1321257075034109,
        -0.1550138312068255, 0.16912676484434913, 0.8373953938914386,
        0.1159158125767095, -0.24577795317196122, 0.3151791047551972),
    3: (0.07412753709019164, 0.015701994680001583, 0.17731985254515403,
        -0.09628012886723407, 0.18475717293061855, 1.9208075318862379,
        0.10578752669742618, 0.06525926001112492, 0.19086528781727308),
}


@pytest.mark.parametrize("seed", sorted(ORDER6_CONSTANTS))
def test_order6_benchmark_family_constants(seed):
    nf = normalform.extended_normalform_2d(benchmark_models(seed)[0],
                                           spec_2d())
    assert len(nf.resonant_terms) == 22
    for name, want in zip(NF_FIELDS, ORDER6_CONSTANTS[seed]):
        assert getattr(nf, name) == pytest.approx(want, rel=1e-8, abs=1e-12)


def survivor_rows(nf):
    return sorted((t["a"][0], t["a"][1], t["b"][0], t["b"][1],
                   complex(*t["coeff"])) for t in nf.resonant_terms)


def assert_survivors(nf, want):
    got = survivor_rows(nf)
    assert len(got) == len(want)
    for g, w in zip(got, sorted(want, key=lambda row: row[:4])):
        np.testing.assert_allclose(g[:4], w[:4], atol=1e-12)
        assert abs(g[4] - w[4]) <= 1e-12 * max(1.0, abs(w[4]))


def test_rational_ratio_merges_equal_exponents():
    """At ratio 1.5 the lattice points (4, 3, 0, 0) and (1, 0, 2, 2) are the
    same function z^4 zbar^3; they survive as one term, as before."""
    spec = spec_2d(ratio=1.5)
    model = reduced_model({(1, 0, 0, 0): GAMMA, (4, 3, 0, 0): 0.2 + 0.1j,
                           (1, 0, 2, 2): -0.1 + 0.3j, (2, 0, 0, 0): 0.3 - 0.2j,
                           (2, 1, 0, 0): 0.1 - 0.4j, (0, 1, 1, 0): 0.1 + 0.1j,
                           (1, 0, 1, 0): -0.3 + 0.2j}, spec, 7)
    nf = normalform.extended_normalform_2d(model, spec)
    assert_survivors(nf, [
        (1.0, 0.0, 0.0, 0.0, -1 + 2j),
        (1.75, -0.5, 0.75, -0.5, -0.3 + 0.2j),
        (2.0, 0.0, 1.0, 0.0, 0.1 - 0.4j),
        (2.5, 0.0, 1.5, 0.0, -0.007333333333333335 - 0.008j),
        (2.75, -0.5, 1.75, -0.5, 0.010632083333333337 + 0.005057916666666666j),
        (3.25, -0.5, 2.25, -0.5, -0.001988888888888889 + 0.0017111111111111112j),
        (3.25, 0.5, 2.25, 0.5, 0.001111111111111111 + 0.0003555555555555555j),
        (3.5, 0.0, 2.5, 0.0, -0.00017289912693926296 - 0.0020821494959487484j),
        (3.5, -1.0, 2.5, -1.0, 0.0009873126530996793 - 0.0007994075749010739j),
        (3.75, -0.5, 2.75, -0.5, -0.0007264798576614624 + 0.00012435600880912048j),
        (3.75, 0.5, 2.75, 0.5, 0.0009559770114942531 + 0.001008390804597702j),
        (4.0, 0.0, 3.0, 0.0, 0.09754840000000001 + 0.3980180740740741j),
        (4.0, -1.0, 3.0, -1.0, 0.0003441709401709402 + 0.00014003418803418808j),
        (4.0, 1.0, 3.0, 1.0, 2.4786324786324774e-05 + 0.0002905982905982906j),
    ])
    assert (nf.A, nf.B) == pytest.approx((0.1, -0.4), abs=1e-15)
    assert nf.P1 == pytest.approx(0.3605551275463989, rel=1e-12)
    assert (nf.P2, nf.R2) == pytest.approx((-0.007333333333333335, -0.008),
                                           rel=1e-12)


def test_two_slaved_pairs_constants():
    spec = spectrum.SpectralPartition(
        kind="flow", alpha_omega=((GAMMA.real, GAMMA.imag),),
        beta_nu=((1.3 * GAMMA.real, -GAMMA.real),
                 (1.7 * GAMMA.real, 0.5 * GAMMA.real)))
    model = reduced_model({
        (1, 0, 0, 0, 0, 0): GAMMA, (2, 1, 0, 0, 0, 0): 0.3 - 0.7j,
        (2, 0, 0, 0, 0, 0): 0.2 + 0.1j, (1, 0, 1, 0, 0, 0): 0.15 + 0.1j,
        (1, 0, 0, 1, 0, 0): -0.1 + 0.2j, (0, 1, 0, 0, 1, 0): 0.05 - 0.1j,
        (1, 0, 0, 0, 0, 1): 0.1 + 0.05j, (0, 0, 1, 0, 0, 0): -0.2 + 0.1j},
        spec, 3)
    nf = normalform.extended_normalform_2d(model, spec)
    want = (0.3, -0.7, 0.19671907506750036, 0.0, 0.0, 0.0,
            0.19671907506750036, 0.0, 0.0)
    for name, value in zip(NF_FIELDS, want):
        assert getattr(nf, name) == pytest.approx(value, rel=1e-12,
                                                  abs=1e-15)
    assert_survivors(nf, [
        (1.0, 0.0, 0.0, 0.0, -1 + 2j),
        (1.3, 0.0, 0.3, 0.0, -0.03188073394495413 - 0.022935779816513773j),
        (1.6, 0.0, 0.6, 0.0, -0.0015353558202171541 - 0.00028301489773588135j),
        (1.65, -0.5, 0.65, -0.5, 0.1915137614678899 + 0.04495412844036698j),
        (1.85, 0.25, 0.85, 0.25, 0.1 + 0.05j),
        (1.85, -0.25, 0.85, -0.25, -0.1 + 0.2j),
        (1.9, 0.0, 0.9, 0.0, -0.00011949354902982374 + 4.382427826807153e-05j),
        (1.95, -0.5, 0.95, -0.5, 0.013983482204513361 + 0.001179018126810952j),
        (1.95, 1.5, 0.95, 1.5, -0.007124494992004042 - 0.0013492340712061303j),
        (1.95, -1.5, 0.95, -1.5, 0.00712449499200404 - 0.0013492340712061295j),
        (1.95, 0.5, 0.95, 0.5, -0.0033978195547373345 + 0.006178095359553136j),
        (2.0, 0.0, 1.0, 0.0, 0.3 - 0.7j),
    ])


# ---------------------------------------------------------------------------
# extended 2D normal form: the exact linear step
# ---------------------------------------------------------------------------

def test_linear_conj_term_is_removed_exactly():
    """gamma z + c zbar alone becomes gamma' xi with gamma' = Re gamma +
    i sign(omega) sqrt(omega^2 - |c|^2), through z = xi + delta xibar with
    delta the small root of conj(c) delta^2 - 2 i omega delta - c = 0."""
    c = 0.5 - 0.7j
    nf = normalform.extended_normalform_2d(
        reduced_model({(1, 0, 0, 0): GAMMA, (0, 1, 0, 0): c}), spec_2d())
    gamma1 = complex(GAMMA.real, np.sqrt(GAMMA.imag ** 2 - abs(c) ** 2))
    assert (nf.alpha1, nf.omega1) == pytest.approx(
        (gamma1.real, gamma1.imag), abs=1e-15)
    assert nf.resonant_terms == [{"a": [1.0, 0.0], "b": [0.0, 0.0],
                                  "coeff": [gamma1.real, gamma1.imag]}]
    delta = nf.delta
    assert abs(delta) < 1
    assert abs(np.conj(c) * delta ** 2 - 2j * GAMMA.imag * delta - c) < 1e-15
    assert json.loads(nf.to_json())["delta"] == [delta.real, delta.imag]


@pytest.mark.parametrize("c", [2.0, 1.2 + 1.6j, 3.0j])
def test_linear_part_without_focus_raises(c):
    model = reduced_model({(1, 0, 0, 0): GAMMA, (0, 1, 0, 0): c,
                           (2, 1, 0, 0): 0.3 - 0.7j})
    with pytest.raises(InputError):
        normalform.extended_normalform_2d(model, spec_2d())


# ---------------------------------------------------------------------------
# extended 2D normal form: invariance residual
# ---------------------------------------------------------------------------

RESIDUAL_RADII = np.geomspace(1e-4, 0.5, 32)


def residual_slope(nf, model):
    """Log-log slope of the largest invariance residual over six angles
    against the radius, fitted over the radii where it exceeds 1e-13 r (inf
    where fewer than four do), and that largest residual.

    Below 1e-13 r the residual is round-off, not truncation error: the
    form's double-precision coefficients leave about 1e-16 r, and terms
    dropped below COEFF_DROP less than 1e-13 r^1.3. Each term of the
    residual carries a log-phase e^{i phi log r}, phi an integer at phase
    rate -1, so terms of one order interfere with a period of up to 2 pi in
    log r, and a slope fitted over a window of length L in log r errs by
    about 12 a / (w L^2) for an oscillation of amplitude a and frequency w
    in log |residual|. The window is therefore as long as round-off allows:
    from at least 1e-4, where the residual clears 1e-13 r, to 0.5, a length
    of up to 8.5 against the 3.5 of [0.0025, 0.08]."""
    xi = RESIDUAL_RADII[:, None] * np.exp(
        1j * np.linspace(0.3, 2 * np.pi + 0.3, 6, endpoint=False))
    res = normalform.invariance_residual(nf, model, xi.ravel())
    res = res.reshape(xi.shape).max(axis=1).astype(float)
    above = res > 1e-13 * RESIDUAL_RADII
    if above.sum() < 4:
        return np.inf, res.max()
    return np.polyfit(np.log(RESIDUAL_RADII[above]), np.log(res[above]),
                      1)[0], res.max()


def first_order_above(model, K):
    """Lowest order above K among 1 + sum j_t (o_t - 1), j_t >= 0, o_t the
    orders of the model's nonzero terms: every term the substitutions make
    has such an order, so the truncation error starts there (inf for a
    linear model)."""
    steps = {round(order - 1.0, 9) for order, c in zip(
        model.dictionary.orders, model.coefficients[:, 0])
        if c != 0 and order > 1.0 + 1e-9}
    reach, frontier = {0.0}, {0.0}
    while frontier:
        frontier = {round(s + t, 9) for s in frontier for t in steps
                    if s <= K - 1.0 + 1e-9} - reach
        reach |= frontier
    return min((1.0 + s for s in reach if 1.0 + s > K + 1e-9),
               default=np.inf)


def assert_residual_order(model, spec, slack=0.1):
    """The invariance residual falls at least like r^(o - slack), o the
    first generated order above the truncation; a model whose residual is
    below 1e-11 everywhere (already in normal form but for dropped terms of
    size COEFF_DROP) passes."""
    nf = normalform.extended_normalform_2d(model, spec)
    slope, largest = residual_slope(nf, model)
    K = model.dictionary.truncation
    assert largest < 1e-11 or \
        slope >= first_order_above(model, K) - slack
    return nf


def lifted(model, spec, K):
    """The same field on the order-K dictionary, terms above the model's
    truncation zero."""
    return reduced_model({(m.k2[0], m.k3[0]) + m.k5 + m.k6: c for m, c in zip(
        model.dictionary.monomials, model.coefficients[:, 0])}, spec, K)


def assert_agrees_one_order_up(nf, model, spec, slack=None):
    """nf, the normal form of model, is that of the same field on the
    dictionary one order up, truncated. With a slack, the residual of the
    latter must also fall at least like r^(o - slack), o its first
    generated order above K + 1; that certifies nf, as a coefficient of
    order K or lower in error would leave a residual of that order, short
    of o - slack by more than 1 - slack. The model's own residual cannot:
    o - K may be as small as 0.1."""
    K = model.dictionary.truncation
    up = lifted(model, spec, K + 1)
    if slack is None:
        above = normalform.extended_normalform_2d(up, spec)
    else:
        above = assert_residual_order(up, spec, slack)

    def by_exponents(form):
        return {tuple(np.round(t["a"] + t["b"], 9)): complex(*t["coeff"])
                for t in form.resonant_terms
                if t["a"][0] + t["b"][0] <= K + 1e-9}

    got, want = by_exponents(nf), by_exponents(above)
    for key in got.keys() | want.keys():
        w = want.get(key, 0j)
        assert abs(got.get(key, 0j) - w) <= 1e-12 * max(1.0, abs(w)), key


@settings(max_examples=30, deadline=None)
@given(ratio=st.sampled_from([0.7, 1.3, 1.5, 1.7, 2.5]), K=st.integers(2, 3),
       seed=st.integers(0, 2 ** 32 - 1), n_terms=st.integers(1, 3),
       conj_term=st.booleans())
def test_invariance_residual_falls_at_truncation_order(ratio, K, seed,
                                                       n_terms, conj_term):
    """Sparse drawn models at phase rate -1: up to three terms of modulus
    0.05-0.3 besides the linear one, with or without a linear zbar term.
    Terms of the next orders, and terms of one order whose log-phases
    differ, interfere, so the fitted slope scatters about o; the long
    window of residual_slope keeps that scatter small. In 12,000 seeded
    draws the slope fell at most 0.29 below o (over [0.0025, 0.08] it fell
    up to 0.65 below, more than 0.5 in 2 of them). The slack is 0.5, so an
    order-K error passes when o < K + 0.5; a wrong divisor sign, a dropped
    conjugate term or the large root of delta leave residuals of order K
    or lower. One order up, where the residual would certify the form, the
    slope still fell more than 0.5 below o in 18 of 8,000 draws (by up to
    2.6); so there the form is only compared with."""
    spec = spec_2d(ratio)
    d = dictionary.dictionary_flow_2d(spec, K)
    keys = [(m.k2[0], m.k3[0], m.k5[0], m.k6[0]) for m in d.monomials]
    rng = np.random.default_rng(seed)
    terms = {keys[i]: rng.uniform(0.05, 0.3)
             * np.exp(2j * np.pi * rng.random())
             for i in rng.choice(len(keys), n_terms, replace=False)}
    if conj_term:
        terms[(0, 1, 0, 0)] = 0.4 * np.exp(2j * np.pi * rng.random())
    terms[(1, 0, 0, 0)] = GAMMA
    model = reduced_model(terms, spec, K)
    nf = assert_residual_order(model, spec, slack=0.5)
    assert_agrees_one_order_up(nf, model, spec)


@pytest.mark.parametrize("seed", [0, 1])
def test_invariance_residual_order6_family(seed):
    assert_residual_order(benchmark_models(seed)[0], spec_2d())


@pytest.mark.parametrize("seed", range(16))
def test_dense_order3_model_returns_in_normal_form(seed):
    """The dense model a fit returns, linear zbar term included: every
    survivor is resonant, and the residual falls faster than r^3.0. Its
    first generated order is 3.1, not the dictionary's 3.3 (seven factors
    Delta / xi of order 0.3 from the removed order-1.3 terms), so that
    slope, 3.28-3.38 on these seeds, cannot tell an order-3 error; the
    order-4 form certifies the result, its residual falling faster than
    r^4.0 (4.1 is its first generated order above 4)."""
    model, spec = benchmark_models(seed)[1], spec_2d()
    nf = assert_residual_order(model, spec)
    assert_agrees_one_order_up(nf, model, spec, slack=0.1)
    assert all(t["a"][0] - t["b"][0] == pytest.approx(1.0, abs=1e-12)
               for t in nf.resonant_terms)
    assert abs(nf.delta) > 0


def test_dense_order3_normal_form_scales_with_the_model():
    """z = w / s turns a term c w^a conj(w)^b of the field into
    c s^(1 - a - b) z^a conj(z)^b, and the survivors scale the same way.
    At s = 0.01 the order-3 coefficients are of size 1e3, so the round-off
    the removed terms leave (about 1e-16 of their size) exceeds
    COEFF_DROP; the form still returns."""
    spec, s = spec_2d(), 0.01
    model = benchmark_models(0)[1]
    ex = model.dictionary.exponents
    scale = np.array([s ** complex(1.0 - order, -phase)
                      for order, phase in zip(ex.order, ex.phase)])
    scaled = fit.ReducedFit(
        dictionary=model.dictionary, coefficients=model.coefficients
        * scale[:, None], kind="flow", residuals=np.zeros(1),
        condition_number=1.0, training_amplitude=1.0)
    nf = normalform.extended_normalform_2d(model, spec)
    nf_s = normalform.extended_normalform_2d(scaled, spec)
    assert nf_s.delta == pytest.approx(nf.delta, rel=1e-12)
    assert_survivors(nf_s, [
        (*t["a"], *t["b"], complex(*t["coeff"])
         * s ** (1.0 - complex(*t["a"]) - complex(*t["b"])))
        for t in nf.resonant_terms])
