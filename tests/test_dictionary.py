"""Tests for fractional-power dictionaries, pruning and the linear
invariant graph families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmfrac import dictionary, spectrum
from ssmfrac.errors import DomainError, InputError, OutOfDomain, WrongShape
from test_dictionary_format import _cases

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
    amp = dict(zip(d.multi_indices, d.exponents.amp))
    for m in pure:
        assert amp[m.multi_index] == pytest.approx(ratio, abs=1e-9)
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
    assert frac
    assert any(m.is_integer and order == 2.0
               for m, order in zip(d.monomials, d.orders))


def test_flow_2d_phase_cancels_when_k5_equals_k6():
    spec = spectrum.SpectralPartition(kind="flow",
                                      alpha_omega=((-1.0, 2.0),),
                                      beta_nu=((-1.3, 0.7),))
    d = dictionary.dictionary_flow_2d(spec, K=4)
    for m, phase in zip(d.monomials, d.exponents.phase):
        if m.k5 == m.k6:
            assert phase == 0.0


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
    amp = d.exponents.amp[d.multi_indices.index(pure[0].multi_index)]
    assert amp == pytest.approx(2.0, abs=1e-12)


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_order_and_prune_tol_rejected(value):
    with pytest.raises(InputError):
        dictionary.dictionary_flow_1d(planar_spec(), K=value)
    with pytest.raises(InputError):
        dictionary.integer_dictionary(1, value)
    with pytest.raises(InputError):
        dictionary.prune_near_integer(
            dictionary.dictionary_map_1d(couette_spec(), K=5), tol=value)


def test_prune_leaves_far_from_integer_ratios():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=5)
    pruned = dictionary.prune_near_integer(d, tol=0.4)
    assert pruned.multi_indices == d.multi_indices


def test_prune_refuses_a_pruned_library():
    """A library is pruned once: pruning the planar K = 5 library at 0.6
    and again at 0.4 would record prune_tol 0.4 beside removals that only
    0.6 makes, a document its own loader rejects."""
    d = dictionary.prune_near_integer(
        dictionary.dictionary_flow_1d(planar_spec(), K=5), tol=0.6)
    assert d.removed
    with pytest.raises(InputError, match="already pruned"):
        dictionary.prune_near_integer(d, tol=0.4)
    assert dictionary.dictionary_from_json(d.to_json()).to_json() == \
        d.to_json()


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

def column(d, multi_index, x):
    """Values of the term with ``multi_index`` of dictionary d at x."""
    return d.evaluate(x)[:, d.multi_indices.index(multi_index)]


def test_eval_real_fractional_term():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=4)
    u = np.array([-2.0, 0.0, 0.5])
    expected = u * np.abs(u) ** 2.5
    np.testing.assert_allclose(column(d, (1, 1), u), expected, atol=1e-14)


def test_eval_real_positive_only_rejects_negative():
    d = dictionary.dictionary_map_1d(couette_spec(), K=1)
    assert d.multi_indices == [(1, 0, 0, 0, 0)]
    with pytest.raises(DomainError):
        d.evaluate([-1.0])


def test_eval_complex_phase_factor():
    """z |z|^1.5 e^{0.7 i log|z|} is the k6 = 1 term when beta / alpha = 1.5
    and nu / alpha = -0.7."""
    spec = spectrum.SpectralPartition(kind="flow",
                                      alpha_omega=((-1.0, 2.0),),
                                      beta_nu=((-1.5, 0.7),))
    d = dictionary.dictionary_flow_2d(spec, K=3)
    z = np.array([0.3 + 0.4j])
    expected = z * np.abs(z) ** 1.5 * np.exp(0.7j * np.log(np.abs(z)))
    np.testing.assert_allclose(column(d, (1, 0, 0, 1), z), expected,
                               atol=1e-14)


def test_eval_zero_at_origin():
    d = dictionary.dictionary_flow_1d(planar_spec(), K=5)
    np.testing.assert_array_equal(d.evaluate([0.0]), np.zeros((1, len(d))))
    d2 = dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=4)
    np.testing.assert_array_equal(d2.evaluate([0.0 + 0.0j]),
                                  np.zeros((1, len(d2)), dtype=complex))


def test_evaluate_accepts_real_pairs_for_2d():
    """Real (Re z, Im z) rows reach evaluate only through masters."""
    d = dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=3)
    z = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    pairs = np.column_stack([z.real, z.imag])
    np.testing.assert_allclose(d.evaluate(d.masters(pairs)), d.evaluate(z),
                               atol=1e-14)
    with pytest.raises(WrongShape):
        d.evaluate(pairs)


@given(st.floats(min_value=1e-6, max_value=10.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_eval_real_scales_as_order(scale, u):
    """Homogeneity: m(s*u) = s^order * m(u) for u, s > 0."""
    d = dictionary.dictionary_flow_1d(planar_spec(), K=5)
    u = abs(u) + 0.1
    left = column(d, (2, 1), [scale * u])[0]
    right = scale ** 4.5 * column(d, (2, 1), [u])[0]
    assert left == pytest.approx(right, rel=1e-9)


def draw_spectrum(draw, family, ratios):
    """A drawn spectrum that gives the fractional ``family``, its slaved
    entries at amplitude quotients ``ratios`` over the master."""
    if family == "flow_1d":
        rate = draw(st.floats(0.5, 2.0))
        return spectrum.SpectralPartition(
            kind="flow", lam=(-rate,), kappa=[-x * rate for x in ratios])
    if family == "map_1d":
        mod = draw(st.floats(0.3, 0.95))
        return spectrum.SpectralPartition(
            kind="map", lam=(mod,), kappa=[mod ** x for x in ratios])
    angles = draw(st.lists(st.floats(0.1, 3.0), min_size=len(ratios) + 1,
                           max_size=len(ratios) + 1))
    if family == "flow_2d":
        rate = draw(st.floats(0.05, 2.0))
        return spectrum.SpectralPartition(
            kind="flow", alpha_omega=((-rate, angles[0]),),
            beta_nu=[(-x * rate, w) for x, w in zip(ratios, angles[1:])])
    mod = draw(st.floats(0.3, 0.95))
    return spectrum.SpectralPartition(
        kind="map",
        alpha_omega=((mod * np.cos(angles[0]), mod * np.sin(angles[0])),),
        beta_nu=[(mod ** x * np.cos(w), mod ** x * np.sin(w))
                 for x, w in zip(ratios, angles[1:])])


FRACTIONAL = ["flow_1d", "map_1d", "flow_2d", "map_2d"]


@st.composite
def dictionaries(draw, families=FRACTIONAL):
    """A dictionary of one of ``families`` with truncation order 2..5: a
    fractional one over a drawn spectrum with one or two slaved entries,
    or an integer one in one to three variables."""
    family = draw(st.sampled_from(families))
    ratios = draw(st.lists(st.floats(0.3, 4.0), min_size=1, max_size=2))
    K = draw(st.integers(2, 5))
    if family == "integer":
        return dictionary.integer_dictionary(draw(st.integers(1, 3)), K)
    return dictionary.BUILDERS[family](draw_spectrum(draw, family, ratios), K)


def closed_form(d, m, x):
    """Monomial m of dictionary d at samples x, written out from the
    spectrum: u^k1 |u|^(sum k4 rho) in 1D, z^k2 zbar^k3 |z|^(sum (k5 + k6)
    xi) exp(i sum (k5 - k6) gamma log|z|) in 2D, prod_j x_j^k1_j at state
    rows x for integer libraries."""
    if d.family == "integer":
        return np.prod(x ** np.array(m.k1), axis=1)
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
    """Eight nonzero samples the family accepts; for an integer library,
    eight signed state rows with an exact 0 in one drawn entry."""
    if d.family == "integer":
        x = np.array(data.draw(st.lists(
            st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3),
            min_size=8 * d.width, max_size=8 * d.width))).reshape(8, d.width)
        x[data.draw(st.integers(0, 7)),
          data.draw(st.integers(0, d.width - 1))] = 0.0
        return x
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


@given(dictionaries(FRACTIONAL + ["integer"]), st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_columns_match_closed_form(d, data):
    x = draw_samples(d, data)
    values = d.evaluate(x)
    assert values.shape == (len(x), len(d))
    for j, m in enumerate(d.monomials):
        np.testing.assert_allclose(values[:, j], closed_form(d, m, x),
                                   rtol=1e-11, atol=0)


@given(dictionaries(FRACTIONAL + ["integer"]), st.data(),
       st.floats(0.05, 20.0))
@settings(max_examples=60, deadline=None)
def test_compiled_columns_scale_with_order(d, data, s):
    """m(s x) = s^order m(x) in 1D and for integer libraries (the order
    being the degree), and s^order e^{i Gamma log s} m(x) in 2D, Gamma
    being the monomial's phase coefficient."""
    x = draw_samples(d, data)
    scaled = d.evaluate(s * x)
    base = d.evaluate(x)
    for j, (order, phase) in enumerate(zip(d.orders, d.exponents.phase)):
        factor = s ** order
        if d.family.endswith("2d"):
            factor = factor * np.exp(1j * phase * np.log(s))
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


@pytest.mark.parametrize("spec", [
    spectrum.SpectralPartition(kind="flow", alpha_omega=((-1.0, 3.0),),
                               beta_nu=((-1.3, 2.2), (-1.7, 5.1))),
    spectrum.SpectralPartition(kind="map", alpha_omega=((0.6, 0.5),),
                               beta_nu=((0.3, 0.4), (-0.2, 0.35)))])
def test_compiled_2d_kernel_with_two_slaved_pairs(spec):
    """Two slaved pairs at order 4: many terms share a (k2, k3) pair and
    many a (frac, phase) combination, so each column is a product of two
    shared table entries. Over 1,100 samples (three evaluation blocks, the
    last short) every column equals the per-term closed form to 1e-14
    relative, and a sample at the origin evaluates to 0."""
    d = dictionary.BUILDERS[dictionary.family_of(spec)](spec, 4)
    ex = d._kernel
    assert np.bincount(ex.pair_col).max() > 1
    assert np.bincount(ex.combo_col).max() > 1
    assert ex.pairs.shape[1] < len(d) and ex.combos.shape[1] < len(d)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.05, 1.5, 1100) * np.exp(1j * rng.uniform(-np.pi, np.pi,
                                                               1100))
    values = d.evaluate(x)
    for j, m in enumerate(d.monomials):
        np.testing.assert_allclose(values[:, j], closed_form(d, m, x),
                                   rtol=1e-14, atol=0)
    x[700] = 0.0
    np.testing.assert_array_equal(d.evaluate(x)[700], np.zeros(len(d)))


@pytest.mark.parametrize("d, width", [
    (dictionary.dictionary_flow_1d(planar_spec(), K=3), 1),
    (dictionary.dictionary_flow_2d(shaw_pierre_spec(), K=3), 2),
    (dictionary.integer_dictionary(3, 2), 3)], ids=["1d", "2d", "integer"])
def test_masters_reads_width_columns_only(d, width):
    rows = np.arange(4.0 * width).reshape(4, width)
    assert d.width == width
    got = d.masters(rows)
    if d.family.endswith("2d"):
        np.testing.assert_array_equal(got, rows[:, 0] + 1j * rows[:, 1])
    elif d.family.endswith("1d"):
        np.testing.assert_array_equal(got, rows[:, 0])
    else:
        np.testing.assert_array_equal(got, rows)
    for bad in (np.zeros((4, width + 1)), np.zeros((4, width - 1)),
                np.zeros(width), np.zeros((2, 4, width))):
        with pytest.raises(WrongShape):
            d.masters(bad)


def test_integer_library_width_must_match_its_spectrum():
    """p + 2q state columns: one real master and one pair make three."""
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      alpha_omega=((-0.5, 2.0),))
    assert dictionary.integer_dictionary(3, 2, spec=spec).width == 3
    with pytest.raises(WrongShape):
        dictionary.integer_dictionary(2, 2, spec=spec)
    d = dictionary.integer_dictionary(2, 2)
    with pytest.raises(WrongShape):
        d.evaluate(np.zeros((4, 3)))
    doc = d.to_dict()
    doc["spectrum"] = spec.to_dict()
    with pytest.raises(InputError):
        dictionary.dictionary_from_json(doc)


def test_fractional_library_json_must_match_its_spectrum():
    """A 2D family reads a master pair, which the planar spectrum lacks."""
    doc = dictionary.dictionary_flow_1d(planar_spec(), K=3).to_dict()
    doc["family"] = "flow_2d"
    with pytest.raises(WrongShape):
        dictionary.dictionary_from_json(doc)


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
    for m, got in zip(d.monomials, d.orders):
        order = m.k1[0] + sum(k * r for k, r in zip(m.k4, ratios))
        assert got == pytest.approx(order, abs=1e-12)
        assert 1.0 - 1e-12 <= got <= 5.0 + 1e-9


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


def test_json_round_trip_keeps_text():
    """Every golden library, pruned and integer ones included, loads back
    to the same text."""
    for case, build in _cases():
        text = build().to_json()
        assert dictionary.dictionary_from_json(text).to_json() == text, case


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(truncation=2.0),
    lambda doc: doc["metadata"].update(include_linear=False),
    lambda doc: doc["metadata"].update(prune_tol=0.4)],
    ids=["truncation", "include_linear", "prune_tol"])
def test_from_json_rejects_a_library_its_recipe_does_not_give(edit):
    """The library is rebuilt from its family, spectrum, truncation,
    include_linear and prune_tol: a document whose recipe was edited
    without its terms does not load."""
    doc = dictionary.prune_near_integer(
        dictionary.dictionary_flow_1d(planar_spec(), K=5), tol=0.6).to_dict()
    assert doc["metadata"]["pruned_indices"]      # tol 0.4 prunes nothing
    dictionary.dictionary_from_json(doc)
    edit(doc)
    with pytest.raises(InputError):
        dictionary.dictionary_from_json(doc)


@pytest.mark.parametrize("blocks, family", [
    (dict(kind="flow", lam=(-1.0,), kappa=(-2.5,)), "flow_1d"),
    (dict(kind="map", lam=(0.5,), kappa=(0.2,)), "map_1d"),
    (dict(kind="flow", alpha_omega=((-1.0, 2.0),), beta_nu=((-2.0, 1.0),)),
     "flow_2d"),
    (dict(kind="map", alpha_omega=((0.5, 0.3),)), "map_2d"),
    (dict(kind="flow", lam=(-1.0,), beta_nu=((-2.0, 1.0),)), WrongShape),
    (dict(kind="flow", lam=(-1.0, -1.5), kappa=(-3.0,)), WrongShape),
    (dict(kind="flow", lam=(-1.0,), alpha_omega=((-1.2, 2.0),)), WrongShape),
    (dict(kind="flow", alpha_omega=((-1.0, 2.0),), kappa=(-2.5,)),
     WrongShape)],
    ids=["flow_1d", "map_1d", "flow_2d", "map_2d", "p1_s1", "p2", "p1_q1",
         "q1_r1"])
def test_family_of_reads_the_master_block(blocks, family):
    spec = spectrum.SpectralPartition(**blocks)
    if family is WrongShape:
        with pytest.raises(WrongShape):
            dictionary.family_of(spec)
    else:
        assert dictionary.family_of(spec) == family


@pytest.mark.parametrize("path, value", [
    (("family",), None), (("family",), "cubic"), (("truncation",), "5"),
    (("monomials",), "x"), (("spectrum",), []), (("metadata",), 1),
    (("monomials", 0, "order"), None), (("monomials", 0, "pruned"), "no"),
    (("monomials", 0, "multi_index"), [1]),
    (("monomials", 0, "multi_index"), [-1, 0, 0, 0, 0]),
    (("monomials", 0, "multi_index"), [0.5, 0, 0, 0, 0]),
    (("monomials", 0, "amp_exponent"), ["x"]),
    (("monomials", 0, "phase_coeff"), float("inf"))])
def test_from_json_rejects_malformed_documents(path, value):
    """None deletes the key."""
    doc = dictionary.dictionary_map_1d(couette_spec(), K=3).to_dict()
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is None:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(InputError):
        dictionary.dictionary_from_json(doc)


def _set(index, **fields):
    return lambda doc: doc["monomials"][index].update(fields)


@pytest.mark.parametrize("edit", [
    _set(2, amp_exponent=[]), _set(2, order=99),
    lambda doc: doc.update(family="map_1d"), _set(0, branch="symetric")],
    ids=["amp_exponent", "order", "family", "branch"])
def test_from_json_rejects_what_the_multi_index_does_not_give(edit):
    """A term's exponent, order and branch, and the library's family,
    follow from the multi-indices and the spectrum; a document that states
    other values does not load."""
    doc = dictionary.dictionary_flow_1d(planar_spec(), K=5).to_dict()
    assert doc["monomials"][2]["multi_index"] == [0, 1]
    dictionary.dictionary_from_json(doc)
    edit(doc)
    with pytest.raises(InputError):
        dictionary.dictionary_from_json(doc)


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
    coeffs = dictionary.LinearGraphCoeffs(C=((0.7,),))
    for u in (0.3, -0.8, 1.5):
        v, _ = dictionary.linear_graph_eval(spec, coeffs, ([u], []))
        assert v[0] == pytest.approx(0.7 * abs(u) ** 2.5, rel=1e-12)


def test_linear_graph_complex_channel_shaw_pierre():
    spec = shaw_pierre_spec()
    alpha, _ = spec.alpha_omega[0]
    beta, nu = spec.beta_nu[0]
    coeffs = dictionary.LinearGraphCoeffs(C=((1.0 + 0.0j,),))
    z = 0.2 + 0.15j
    _, w = dictionary.linear_graph_eval(spec, coeffs, ([], [z]))
    expected = abs(z) ** (beta / alpha) * np.exp(
        1j * (nu / alpha) * np.log(abs(z)))
    assert w[0] == pytest.approx(expected, rel=1e-12)


def test_linear_graph_zero_at_origin():
    spec = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.5,))
    coeffs = dictionary.LinearGraphCoeffs(C=((0.7,),))
    v, w = dictionary.linear_graph_eval(spec, coeffs, ([0.0], []))
    np.testing.assert_array_equal(v, [0.0])
    assert w.size == 0


@pytest.mark.parametrize("spec, coeffs", [
    (spectrum.SpectralPartition(kind="flow", lam=(-1.0, -1.5),
                                beta_nu=((-3.0, 2.0),)),
     dictionary.LinearGraphCoeffs(C=((0.4 + 0.1j, -0.2 + 0.3j),))),
    (spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                alpha_omega=((-0.5, 2.0),),
                                beta_nu=((-3.0, 2.0),)),
     dictionary.LinearGraphCoeffs(C=((0.4 + 0.1j, -0.2 + 0.3j),))),
    (spectrum.SpectralPartition(kind="map", lam=(0.5, 0.4),
                                beta_nu=((0.1, 0.05),)),
     dictionary.LinearGraphCoeffs(C=((0.4 + 0.1j, -0.2 + 0.3j),))),
    (spectrum.SpectralPartition(kind="map", lam=(0.5,),
                                alpha_omega=((0.3, 0.4),),
                                beta_nu=((0.1, 0.05),)),
     dictionary.LinearGraphCoeffs(C=((0.4 + 0.1j, -0.2 + 0.3j),))),
], ids=["flow-p2", "flow-p1q1", "map-p2", "map-p1q1"])
def test_linear_graph_is_invariant_under_the_linear_dynamics(spec, coeffs):
    """With two masters, w(u(t), z(t)) = e^{(beta + i nu) t} w(u0, z0) for
    a flow at t = 0.1, and w(Lambda u, mu z) = sigma w(u, z) for one step
    of a map; the phase is shared among the p + q masters."""
    u0, z0 = np.array([0.3, 0.2][:spec.p]), np.array([0.25 - 0.1j][:spec.q])
    lam = np.array(spec.lam)
    mu = np.array([complex(a, w) for a, w in spec.alpha_omega])
    sigma = complex(*spec.beta_nu[0])
    if spec.kind == "flow":
        t = 0.1
        u1, z1, factor = u0 * np.exp(lam * t), z0 * np.exp(mu * t), \
            np.exp(sigma * t)
    else:
        u1, z1, factor = u0 * lam, z0 * mu, sigma
    _, w0 = dictionary.linear_graph_eval(spec, coeffs, (u0, z0))
    _, w1 = dictionary.linear_graph_eval(spec, coeffs, (u1, z1))
    assert abs(w1[0] - factor * w0[0]) <= 1e-12 * abs(w1[0])


def test_linear_graph_two_sided_branch():
    """C_neg holds the coefficients at u <= 0, for a slaved real (channel
    V) and for a slaved pair (channel E): c |u|^2 e^{i theta} with c = 1 at
    u = 0.5 and c = -2 at u = -0.5, the same phase e^{i theta} on both
    sides."""
    real = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-2.0,))
    pair = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      beta_nu=((-2.0, 3.0),))
    for spec, coeffs, channel in [
            (real, dictionary.LinearGraphCoeffs(C=((1.0,),),
                                                C_neg=((-2.0,),)), 0),
            (pair, dictionary.LinearGraphCoeffs(C=((1.0,),),
                                                C_neg=((-2.0,),)), 1)]:
        pos, neg = (dictionary.linear_graph_eval(spec, coeffs, ([u], []))
                    for u in (0.5, -0.5))
        (wp,), (wn,) = pos[channel], neg[channel]
        assert abs(wp) == pytest.approx(0.25)
        assert wn == pytest.approx(-2.0 * wp)
    assert wp.imag != 0.0               # the pair turns with log|u|


PLANAR_GRAPH = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                          kappa=(-2.5,))


@pytest.mark.parametrize("fields, point", [
    ({"C": ((0.7, 0.2),)}, ([0.5], [])),
    ({"C": ((0.7,), (0.2,))}, ([0.5], [])),
    ({"C": (0.7,)}, ([0.5], [])),
    ({"C": ((0.7, 0.2), (0.1,))}, ([0.5], [])),
    ({"C": ((0.7,),), "C_neg": ((0.7, 0.2),)}, ([0.5], [])),
    ({"C": ((0.7,),), "C_neg": ()}, ([0.5], [])),
    ({"C": ((0.7,),)}, ([0.5, 0.1], [])),
    ({"C": ((0.7,),)}, ([0.5], [0.1j])),
], ids=["C-1x2", "C-2x1", "C-flat", "C-ragged", "C_neg-1x2", "C_neg-empty",
        "u-2", "z-1"])
def test_linear_graph_rejects_the_wrong_shape(fields, point):
    """C is (r + s) x (p + q) and C_neg (r + s) x p, here 1 x 1, and a
    point holds p reals and q complex values, here 1 and 0; any other
    shape is refused, not reshaped or broadcast."""
    coeffs = dictionary.LinearGraphCoeffs(**fields)
    with pytest.raises(WrongShape):
        dictionary.linear_graph_eval(PLANAR_GRAPH, coeffs, point)


@pytest.mark.parametrize("fields", [
    {"C": ((0.7 + 0.1j,),)}, {"C": ((0.7,),), "C_neg": ((0.7 + 0.1j,),)},
], ids=["C", "C_neg"])
def test_linear_graph_channel_v_is_real(fields):
    """The rows of the slaved reals (channel V) are real: an imaginary part
    is refused rather than dropped."""
    coeffs = dictionary.LinearGraphCoeffs(**fields)
    with pytest.raises(InputError):
        dictionary.linear_graph_eval(PLANAR_GRAPH, coeffs, ([0.5], []))


@st.composite
def graphs_on_a_grid(draw):
    """A flow or map spectrum with p + q >= 1 masters and up to two slaved
    entries of each kind, coefficients with some zeros, real in the r rows
    of channel V (two-sided with C_neg half the time), and a stack of
    master points with entries of either sign, 0 and |x| <=
    TINY_AMPLITUDE."""
    kind = draw(st.sampled_from(["flow", "map"]))
    p, q = draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]))
    r, s = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if kind == "flow":
        real = st.floats(-4.0, -0.1) | st.floats(0.1, 4.0)
        pair = st.tuples(real, st.floats(0.1, 5.0))
    else:
        real = st.floats(0.05, 0.9) | st.floats(1.1, 5.0)
        pair = st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9))
    spec = spectrum.SpectralPartition(
        kind=kind, lam=draw(st.lists(real, min_size=p, max_size=p)),
        alpha_omega=draw(st.lists(pair, min_size=q, max_size=q)),
        kappa=draw(st.lists(real, min_size=r, max_size=r)),
        beta_nu=draw(st.lists(pair, min_size=s, max_size=s)))
    value = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)

    def block(cols):
        rows = [value] * r + [st.builds(complex, value, value)] * s
        return tuple(tuple(draw(st.lists(entry, min_size=cols,
                                         max_size=cols)))
                     for entry in rows)

    coeffs = dictionary.LinearGraphCoeffs(
        C=block(p + q), C_neg=block(p) if draw(st.booleans()) else None)
    n = draw(st.integers(1, 6))
    x = st.sampled_from([0.0, 1e-301, -1e-301]) | st.floats(-1.5, 1.5)
    u = np.array(draw(st.lists(x, min_size=n * p, max_size=n * p)))
    z = np.array(draw(st.lists(st.builds(complex, x, x), min_size=n * q,
                               max_size=n * q)))
    return spec, coeffs, u.reshape(n, p), z.reshape(n, q)


@settings(max_examples=100, deadline=None)
@given(case=graphs_on_a_grid())
def test_linear_graph_on_a_stack_equals_each_point(case):
    """One call on a stack of master points gives, row by row, what one
    call per point gives: (n, r) and (n, s) for n points, (r,) and (s,)
    for one. The stack raises OutOfDomain exactly when one of its points
    does (a term that overflows under a large quotient)."""
    spec, coeffs, u, z = case
    points = []
    for i in range(len(u)):
        try:
            points.append(dictionary.linear_graph_eval(spec, coeffs,
                                                       (u[i], z[i])))
        except OutOfDomain:
            points.append(None)
    if None in points:
        with pytest.raises(OutOfDomain):
            dictionary.linear_graph_eval(spec, coeffs, (u, z))
        return
    v, w = dictionary.linear_graph_eval(spec, coeffs, (u, z))
    assert v.shape == (len(u), spec.r) and w.shape == (len(u), spec.s)
    for i, (vi, wi) in enumerate(points):
        assert vi.shape == (spec.r,) and wi.shape == (spec.s,)
        np.testing.assert_array_equal(v[i], vi)
        np.testing.assert_array_equal(w[i], wi)


def test_linear_graph_overflowing_term_is_out_of_domain():
    """A map pair at modulus 0.999 puts slaved quotients of 346.8 and
    1969.4 on it; 1.5^1969.4 overflows, and a live term that does raises
    OutOfDomain naming its amplitude and quotient instead of returning NaN.
    The same term with a zero coefficient, or at |z| = 0.5, is finite."""
    spec = spectrum.SpectralPartition(
        kind="map", alpha_omega=((0.9, 0.43359375),),
        beta_nu=((0.5, 0.5), (0.125, 0.0625)))
    coeffs = dictionary.LinearGraphCoeffs(C=((0j,), (1j,)))
    with pytest.raises(OutOfDomain, match=r"amplitude 1\.5 to the quotient "
                                          r"1969\.39"):
        dictionary.linear_graph_eval(spec, coeffs, ([], [1.5j]))
    with pytest.raises(OutOfDomain):
        dictionary.linear_graph_eval(spec, coeffs, (np.zeros((2, 0)),
                                                    [[0.5j], [1.5j]]))
    _, w = dictionary.linear_graph_eval(
        spec, dictionary.LinearGraphCoeffs(C=((1j,), (0j,))), ([], [1.5j]))
    assert np.isfinite(w).all() and w[1] == 0.0
    _, w = dictionary.linear_graph_eval(spec, coeffs, ([], [0.5j]))
    assert np.isfinite(w).all() and w[0] == 0.0


# ---------------------------------------------------------------------------
# library completeness
# ---------------------------------------------------------------------------

@st.composite
def libraries(draw):
    """A library of any family truncated at an order in [0, 6]: an integer
    one in one to three variables, or a fractional one over a drawn
    spectrum with one or two slaved entries of either sign, include_linear
    either way."""
    family = draw(st.sampled_from(sorted(dictionary.BUILDERS)))
    K = draw(st.floats(0.0, 6.0))
    if family == "integer":
        return dictionary.integer_dictionary(draw(st.integers(1, 3)), K)
    ratios = draw(st.lists(st.floats(0.7, 4.0) | st.floats(-4.0, -0.7),
                           min_size=1, max_size=2))
    return dictionary.BUILDERS[family](draw_spectrum(draw, family, ratios),
                                       K, draw(st.booleans()))


def admissible(d):
    """The multi-indices library d should hold, found by brute force over
    the box each coordinate's bound allows: orders from spec.quotients(),
    1 <= order <= truncation + ORDER_SLACK, zero multiplicity on a
    nonpositive quotient, and no bare linear master term when the library
    leaves linear terms out."""
    n, top = d.width, d.truncation + dictionary.ORDER_SLACK
    rates = [] if d.family == "integer" \
        else d.spec.quotients()[0][:, 0].tolist()
    if d.family.endswith("2d"):
        rates = rates * 2                   # k5, then k6
    bounds = [math.floor(top)] * n + [math.floor(top / r) if r > 0 else 0
                                      for r in rates]
    box = np.indices([b + 1 for b in bounds]).reshape(len(bounds), -1).T
    degree, slaved = box[:, :n].sum(axis=1), box[:, n:]
    order = degree + slaved @ np.array(rates, dtype=float)
    keep = (order >= 1 - dictionary.ORDER_SLACK) & (order <= top)
    if not d.metadata.get("include_linear", True):
        keep &= (degree != 1) | slaved.any(axis=1)
    return sorted(map(tuple, box[keep].tolist()))


@given(libraries())
@settings(max_examples=100, deadline=None)
def test_library_holds_exactly_the_admissible_multi_indices(d):
    assert sorted(d.multi_indices) == admissible(d)


# ---------------------------------------------------------------------------
# bounded library size
# ---------------------------------------------------------------------------

def flow_2d_spec(*pairs):
    return spectrum.SpectralPartition(
        kind="flow", alpha_omega=((-1.0, 2.0),),
        beta_nu=tuple((-ratio, phase) for ratio, phase in pairs))


def assert_counted_exactly(build, monkeypatch):
    """The library build() makes has distinct monomials, and the size its
    builder checks against MAX_TERMS, counted before any monomial is made,
    is its built size."""
    d = build()
    assert len(set(d.multi_indices)) == len(d)
    counts = []
    monkeypatch.setattr(dictionary, "_check_size",
                        lambda K, count: counts.append(count))
    build()
    assert counts == [len(d)]


@pytest.mark.parametrize("build, spec", [
    (dictionary.dictionary_flow_1d, planar_spec()),
    (dictionary.dictionary_map_1d, couette_spec()),
    (dictionary.dictionary_flow_2d, flow_2d_spec((1.3, 1.0))),
    (dictionary.dictionary_flow_2d, flow_2d_spec((1.3, 1.0), (1.7, -0.5))),
])
@pytest.mark.parametrize("K", [0.5, 1, 2.6, 4, 6.3])
@pytest.mark.parametrize("include_linear", [True, False])
def test_term_count_is_the_built_size(build, spec, K, include_linear,
                                      monkeypatch):
    assert_counted_exactly(
        lambda: build(spec, K, include_linear=include_linear), monkeypatch)


@pytest.mark.parametrize("n_vars, K", [(1, 5), (2, 3), (3, 6.5), (2, 0)])
def test_integer_term_count_is_the_built_size(n_vars, K, monkeypatch):
    assert_counted_exactly(lambda: dictionary.integer_dictionary(n_vars, K),
                           monkeypatch)


@pytest.mark.parametrize("build", [
    lambda K: dictionary.integer_dictionary(2, K),
    lambda K: dictionary.dictionary_flow_1d(planar_spec(), K),
    # a negative ratio pins the slaved multiplicity to 0: the master
    # powers alone exceed MAX_TERMS
    lambda K: dictionary.dictionary_flow_1d(spectrum.SpectralPartition(
        kind="flow", lam=(-1.0,), kappa=(0.5,)), K),
    lambda K: dictionary.dictionary_flow_2d(flow_2d_spec((1.3, 1.0)), K),
    lambda K: dictionary.dictionary_map_2d(spectrum.SpectralPartition(
        kind="map", alpha_omega=((0.9, 0.2),), beta_nu=((0.5, 0.3),)), K),
])
@pytest.mark.parametrize("K", [1e6, 1e300])
def test_library_above_max_terms_is_input_error(build, K):
    """Counted before any monomial is made, so a huge order fails at
    once."""
    with pytest.raises(InputError, match="more than"):
        build(K)
