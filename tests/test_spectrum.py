"""Tests for spectral partitioning, nonresonance, smoothness and the
rate-gap test."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmfrac import dynamics, spectrum
from ssmfrac.errors import (InputError, NonInvariantSplit, NotHyperbolic,
                            WrongShape)
from ssmfrac.trajectory import read_table

COUETTE_MASTER_LOG = -0.035068
COUETTE_SLAVED_LOGS = (-0.069776, -0.073369, -0.140274, -0.168877)

BEAM_LAMBDAS = (11.06, -11.10)
BEAM_PAIRS = ((-0.36, 119.36), (-1.83, 295.56),
              (-5.80, 541.50), (-14.19, 858.19))


# ---------------------------------------------------------------------------
# SpectralPartition
# ---------------------------------------------------------------------------

def test_partition_counts():
    part = spectrum.SpectralPartition(
        kind="flow", lam=(-1.0,), alpha_omega=((-0.1, 2.0),),
        kappa=(-3.0, -4.0), beta_nu=((-2.0, 5.0),))
    assert (part.p, part.q, part.r, part.s) == (1, 1, 2, 1)
    assert part.n == 1 + 2 + 2 + 2


def test_partition_sorted_by_rate():
    part = spectrum.SpectralPartition(kind="flow", lam=(-3.0, -1.0, -2.0))
    assert part.lam == (-1.0, -2.0, -3.0)


def test_partition_map_sorted_by_log_modulus():
    part = spectrum.SpectralPartition(kind="map", lam=(0.1, 0.9, 0.5))
    assert part.lam == (0.9, 0.5, 0.1)


def test_json_round_trip():
    part = spectrum.SpectralPartition(
        kind="flow", alpha_omega=((-0.07, 1.0),), beta_nu=((-0.38, 1.68),))
    clone = spectrum.SpectralPartition.from_json(part.to_json())
    assert clone == part


@pytest.mark.parametrize("doc", [
    [1], {}, {"kind": 3}, {"kind": "map", "lambda": ["x"]},
    {"kind": "map", "lambda": [float("nan")]},
    {"kind": "map", "lambda": [True]},
    {"kind": "flow", "alpha_omega": [[-1.0]]},
    {"kind": "flow", "beta_nu": [-1.0, 2.0]},
    {"kind": "flow", "lambda": [-1.0], "p": 2},
    {"kind": "flow", "lambda": [-1.0], "p": "1"},
    {"kind": "flow", "lambda": [-1.0], "junk": 1}])
def test_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(InputError):
        spectrum.SpectralPartition.from_dict(doc)


def test_from_map_logs_recovers_ratios():
    part = spectrum.SpectralPartition.from_map_logs(
        [COUETTE_MASTER_LOG], COUETTE_SLAVED_LOGS)
    assert part.kind == "map"
    assert part.p == 1 and part.r == 4


@pytest.mark.parametrize("master, slaved, error", [
    (0.0, (-0.5, -1.2), NotHyperbolic), (1e-320, (-0.5,), NotHyperbolic),
    (-0.1, (0.0,), NotHyperbolic), (-0.1, (1e-12,), NotHyperbolic),
    (800.0, (-0.5,), InputError), (-0.1, (-800.0,), InputError)])
def test_from_map_logs_applies_the_map_rule(master, slaved, error):
    """Multipliers that are critical, or zero or infinite once
    exponentiated, are rejected as partition_spectrum rejects them."""
    with pytest.raises(error):
        spectrum.SpectralPartition.from_map_logs([master], slaved)


# ---------------------------------------------------------------------------
# rates and spectral quotients
# ---------------------------------------------------------------------------

def test_rate_is_real_part_or_log_modulus():
    assert spectrum.rate(-2.0 + 3.0j, "flow") == -2.0
    assert spectrum.rate(0.6 + 0.8j, "map") == 0.0
    assert spectrum.rate(-0.5, "map") == np.log(0.5)
    assert spectrum.rate(0.0, "map") == -np.inf


def test_quotients_flow_table():
    part = spectrum.SpectralPartition(
        kind="flow", lam=(-1.0,), alpha_omega=((-0.5, 2.0),),
        kappa=(-3.0,), beta_nu=((-2.0, 5.0),))
    amp, phase = part.quotients()
    np.testing.assert_array_equal(amp, [[3.0, 6.0], [2.0, 4.0]])
    np.testing.assert_array_equal(phase, [[0.0, 0.0], [-5.0, -10.0]])


def test_quotients_map_table():
    beta, nu = 0.1, 0.2
    part = spectrum.SpectralPartition(kind="map", lam=(0.5,),
                                      kappa=(0.25,), beta_nu=((beta, nu),))
    amp, phase = part.quotients()
    den = np.log(0.5)
    np.testing.assert_allclose(
        amp, [[2.0], [np.log(np.hypot(beta, nu)) / den]], rtol=1e-15)
    np.testing.assert_allclose(
        phase, [[0.0], [np.arctan2(nu, beta) / den]], rtol=1e-15)


@pytest.mark.parametrize("part", [
    spectrum.SpectralPartition(kind="flow", lam=(0.0,), kappa=(-1.0,)),
    spectrum.SpectralPartition(kind="flow", lam=(-1.0, 0.0)),
    spectrum.SpectralPartition(kind="map", lam=(1.0,), kappa=(0.5,)),
    spectrum.SpectralPartition(kind="map", lam=(0.0,), kappa=(0.5,)),
    spectrum.SpectralPartition(kind="map", lam=(0.5,), kappa=(0.0,)),
    spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                               kappa=(float("inf"),))],
    ids=["flow-zero", "flow-second-zero", "map-unit", "map-zero-master",
         "map-zero-slaved", "flow-infinite-slaved"])
def test_quotients_reject_degenerate_rates(part):
    with pytest.raises(InputError, match="spectral quotients"):
        part.quotients()


@pytest.mark.parametrize("part", [
    spectrum.SpectralPartition(kind="flow", alpha_omega=((-1e-9, 0.0),),
                               beta_nu=((0.0, 1e300),)),
    spectrum.SpectralPartition(kind="flow", lam=(-1e-300,),
                               kappa=(-1e300,))],
    ids=["phase", "amplitude"])
def test_quotients_reject_overflow(part):
    """Finite rates whose quotient overflows are an input error, not an
    infinite entry in the table."""
    with pytest.raises(InputError, match="spectral quotients overflow"):
        part.quotients()


# ---------------------------------------------------------------------------
# conjugate pairing
# ---------------------------------------------------------------------------

def test_conjugate_partners_pair_repeats_one_to_one():
    z = -0.1 + 1.0j
    eigs = np.array([z, z.conjugate(), -2.0, z, z.conjugate()])
    partner = spectrum.conjugate_partners(eigs)
    np.testing.assert_array_equal(partner[partner], np.arange(5))
    assert partner[2] == 2
    assert sorted(partner[[0, 3]]) == [1, 4]


def test_conjugate_partners_reject_an_unpaired_value():
    with pytest.raises(InputError, match="conjugate partner"):
        spectrum.conjugate_partners(np.array([1.0 + 1.0j, -1.0]))


@given(st.lists(st.floats(min_value=-5.0, max_value=-0.01), min_size=1,
                max_size=5))
@settings(max_examples=40, deadline=None)
def test_rates_always_ascending(lams):
    part = spectrum.SpectralPartition(kind="flow", lam=tuple(lams))
    rates = [abs(v) for v in part.lam]
    assert rates == sorted(rates)


# ---------------------------------------------------------------------------
# partition_spectrum
# ---------------------------------------------------------------------------

def test_partition_spectrum_shaw_pierre():
    A = dynamics.shaw_pierre_matrix(m=1.0, c=0.3, k=1.0)
    part = spectrum.partition_spectrum(A, spectrum.slowest(2), kind="flow")
    assert (part.p, part.q, part.r, part.s) == (0, 1, 0, 1)
    alpha, omega = part.alpha_omega[0]
    beta, nu = part.beta_nu[0]
    assert alpha == pytest.approx(-0.07414969295, abs=1e-9)
    assert omega == pytest.approx(1.00270482892, abs=1e-9)
    assert beta == pytest.approx(-0.37585030705, abs=1e-9)
    assert nu == pytest.approx(1.68117359494, abs=1e-9)


def test_partition_spectrum_rejects_critical_eigenvalues():
    with pytest.raises(NotHyperbolic):
        spectrum.partition_spectrum(np.eye(2), spectrum.slowest(1),
                                    kind="map")


def test_partition_spectrum_flow_zero_eigenvalue():
    A = np.diag([0.0, -1.0])
    with pytest.raises(NotHyperbolic):
        spectrum.partition_spectrum(A, spectrum.slowest(1), kind="flow")


def test_partition_spectrum_map_rejects_zero_multiplier():
    with pytest.raises(InputError, match="nonzero"):
        spectrum.partition_spectrum(np.diag([0.5, 0.0]),
                                    spectrum.slowest(1), kind="map")


ROTATION = np.array([[-0.1, 1.0], [-1.0, -0.1]])


@pytest.mark.parametrize("extra", [(), (-2.0,)], ids=["pairs", "pairs+real"])
@pytest.mark.parametrize("masters, q, s", [(2, 1, 1), (4, 2, 0)])
def test_partition_repeated_conjugate_pairs(extra, masters, q, s):
    """Each copy of a repeated pair keeps its own partner, so both
    selections are closed under conjugation."""
    n = 4 + len(extra)
    A = np.zeros((n, n))
    A[:2, :2] = A[2:4, 2:4] = ROTATION
    A[4:, 4:] = np.diag(extra)
    part = spectrum.partition_spectrum(A, spectrum.slowest(masters))
    assert (part.p, part.q, part.r, part.s) == (0, q, len(extra), s)
    np.testing.assert_allclose(part.alpha_omega, [(-0.1, 1.0)] * q,
                               rtol=1e-12)


def test_all_eigenvalues_in_state_coordinate_order():
    """Master reals, then each master pair as value and conjugate side by
    side, then the slaved block the same way."""
    part = spectrum.SpectralPartition(
        kind="flow", lam=(-1.0,), alpha_omega=((-0.6, 1.0), (-0.5, 2.0)),
        kappa=(-3.0,), beta_nu=((-4.0, 1.0),))
    assert part.all_eigenvalues() == [
        -1.0, -0.5 + 2j, -0.5 - 2j, -0.6 + 1j, -0.6 - 1j, -3.0, -4.0 + 1j,
        -4.0 - 1j]


def test_slowest_ranks_by_the_partition_kind():
    """A map's slowest multiplier is the one nearest modulus 1, 0.98, not
    the one nearest 0, which the flow rate Re z would pick."""
    part = spectrum.partition_spectrum(np.diag([0.98, 0.3, 0.1]),
                                       spectrum.slowest(1), kind="map")
    assert part.lam == (0.98,)
    assert part.kappa == (0.3, 0.1)


# ---------------------------------------------------------------------------
# nonresonance
# ---------------------------------------------------------------------------

def test_saddle_spectrum_is_resonant():
    part = spectrum.SpectralPartition(kind="flow", lam=(1.0,), kappa=(-1.0,))
    report = spectrum.check_nonresonance(part, max_order=3)
    assert report.resonant
    assert report.violations


def brute_force_nonresonant(eigs, max_order, tol=1e-9):
    """Independent exhaustive check of additive flow resonances."""
    eigs = list(eigs)
    n = len(eigs)
    for total in range(2, max_order + 1):
        for combo in itertools.product(range(total + 1), repeat=n):
            if sum(combo) != total:
                continue
            val = sum(m * e for m, e in zip(combo, eigs))
            for target in eigs:
                if abs(val - target) < tol:
                    return False
    return True


def test_nonresonance_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lams = tuple(-np.sort(rng.uniform(0.3, 4.0, size=3)))
        part = spectrum.SpectralPartition(kind="flow", lam=lams[:1],
                                          kappa=lams[1:])
        report = spectrum.check_nonresonance(part, max_order=4)
        eigs = lams
        assert report.resonant == (not brute_force_nonresonant(eigs, 4))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), lo=st.integers(0, 6), width=st.integers(0, 4))
def test_exponent_vectors_match_a_filtered_product(n, lo, width):
    """The one enumerator lists, in lexicographic order, exactly the
    n-tuples of a brute-force filter, as many as the closed form
    C(hi + n, n) - C(lo - 1 + n, n) that library sizes are counted with."""
    hi = lo + width
    vectors = spectrum.exponent_vectors(n, lo, hi)
    assert vectors == [m for m in itertools.product(range(hi + 1), repeat=n)
                       if lo <= sum(m) <= hi]
    assert len(vectors) == math.comb(hi + n, n) - math.comb(lo - 1 + n, n)


def brute_force_violations(eigs, kind, max_order, tol=1e-9):
    """Every (j, m) with lambda_j = <m, lambda> (flows) or prod lambda^m
    (maps) within tol, 2 <= |m| <= max_order, one multi-index at a time."""
    out = set()
    for m in itertools.product(range(max_order + 1), repeat=len(eigs)):
        if not 2 <= sum(m) <= max_order:
            continue
        if kind == "flow":
            val, scale = sum(k * e for k, e in zip(m, eigs)), 1.0
        else:
            val = np.prod([e ** k for k, e in zip(m, eigs)])
            scale = max(1.0, abs(val))
        out |= {(j, m) for j, e in enumerate(eigs)
                if abs(e - val) <= tol * scale}
    return out


@st.composite
def resonance_spectra(draw):
    """Flow or map spectra of one to three reals and at most one complex
    pair, drawn from values with many exact resonances (sums for flows,
    products for maps), near ones inside the tolerance (2 + 2 = -4 + 5e-10
    within 1e-9; 2 * 2 = 4 + 2e-9 within 1e-9 times |4|) and generic
    ones."""
    kind = draw(st.sampled_from(["flow", "map"]))
    if kind == "flow":
        real = st.sampled_from([-1.0, -2.0, -3.0, 1.0, -0.5, -1.5,
                                -4.0000000005]) | st.floats(-4.0, -0.1)
        pair = st.sampled_from([(-1.0, 1.0), (-2.0, 2.0), (-0.5, 3.0)])
    else:
        real = st.sampled_from([0.5, 0.25, 2.0, 4.0, 0.125, -0.5,
                                4.000000002]) | st.floats(0.05, 0.95)
        pair = st.sampled_from([(0.0, 0.5), (0.25, 0.25), (-0.5, 0.5)])
    reals = draw(st.lists(real, min_size=1, max_size=3))
    pairs = draw(st.lists(pair, max_size=1))
    return spectrum.SpectralPartition(kind=kind, lam=reals[:1],
                                      kappa=reals[1:], beta_nu=pairs)


@settings(max_examples=100, deadline=None)
@given(part=resonance_spectra(), max_order=st.integers(2, 4))
def test_nonresonance_violations_match_brute_force(part, max_order):
    """The array scan reports the same set of resonances, each with its
    multi-index, as a scan of one multi-index at a time, for flows and
    maps, over the deduplicated eigenvalues."""
    report = spectrum.check_nonresonance(part, max_order)
    eigs = spectrum._dedupe(part.all_eigenvalues())
    assert report.eigenvalues == tuple(eigs)
    expected = brute_force_violations(eigs, part.kind, max_order)
    assert set(report.violations) == expected
    assert len(report.violations) == len(expected)
    assert report.resonant == bool(expected)


def test_exact_resonance_detected():
    part = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-3.0,))
    report = spectrum.check_nonresonance(part, max_order=3)
    assert report.resonant


def test_map_resonance_multiplicative():
    part = spectrum.SpectralPartition(kind="map", lam=(0.5,), kappa=(0.25,))
    report = spectrum.check_nonresonance(part, max_order=2)
    assert report.resonant


def test_resonance_tolerance_is_relative_for_maps_only():
    """Maps compare lambda_j with prod lambda^m to 1e-9 times |prod|, flows
    compare with <m, lambda> to 1e-9: 2 * 2 resonates with 4 + 2e-9, and
    2 + 2 does not."""
    for kind, resonant in (("map", True), ("flow", False)):
        part = spectrum.SpectralPartition(kind=kind, lam=(2.0,),
                                          kappa=(4.000000002,))
        report = spectrum.check_nonresonance(part, max_order=2)
        assert report.resonant == resonant
        assert report.violations == (((1, (2, 0)),) if resonant else ())


def test_resonance_scan_above_max_terms_is_refused_before_enumerating(
        monkeypatch):
    """24 distinct eigenvalues to order 5 need C(29, 24) - 1 - 24 = 118,730
    multi-indices, more than MAX_TERMS: InputError, counted in closed form
    before a single multi-index is made."""
    def enumerate_nothing(*args):
        raise AssertionError("multi-indices enumerated")

    monkeypatch.setattr(spectrum, "exponent_vectors", enumerate_nothing)
    part = spectrum.SpectralPartition(
        kind="flow", lam=(-1.0,), kappa=tuple(-1.0 - 0.37 * k
                                              for k in range(1, 24)))
    with pytest.raises(InputError, match="118730 multi-indices"):
        spectrum.check_nonresonance(part, max_order=5)


@pytest.mark.parametrize("bound, refused", [(7, False), (6, True)])
def test_resonance_scan_counts_its_multi_indices_exactly(
        monkeypatch, bound, refused):
    """Two eigenvalues to order 3 give exactly C(5, 2) - 1 - 2 = 7
    multi-indices (three of order 2, four of order 3): a bound of 7 admits
    the scan, a bound of 6 refuses it."""
    monkeypatch.setattr(spectrum, "MAX_TERMS", bound)
    part = spectrum.SpectralPartition(kind="flow", lam=(-1.0,),
                                      kappa=(-3.3,))
    if refused:
        with pytest.raises(InputError):
            spectrum.check_nonresonance(part, max_order=3)
    else:
        assert not spectrum.check_nonresonance(part, max_order=3).resonant


# ---------------------------------------------------------------------------
# smoothness class
# ---------------------------------------------------------------------------

def test_smoothness_couette_is_one():
    part = spectrum.SpectralPartition.from_map_logs(
        [COUETTE_MASTER_LOG], COUETTE_SLAVED_LOGS)
    assert spectrum.smoothness_class(part).eta == 1


def test_smoothness_beam_is_zero():
    part = spectrum.SpectralPartition(kind="flow", lam=BEAM_LAMBDAS,
                                      beta_nu=BEAM_PAIRS)
    assert spectrum.smoothness_class(part).eta == 0


def test_smoothness_infinity_for_opposite_stability():
    part = spectrum.SpectralPartition(kind="flow", lam=(-1.0,), kappa=(2.0,))
    assert spectrum.smoothness_class(part).eta == "infinity"


# ---------------------------------------------------------------------------
# ratio table
# ---------------------------------------------------------------------------

def test_ratio_table_couette_quotients():
    """Quotients of the tabulated log eigenvalues, pinned at 1e-6."""
    part = spectrum.SpectralPartition.from_map_logs(
        [COUETTE_MASTER_LOG], COUETTE_SLAVED_LOGS)
    ratios = [r for _, r in spectrum.spectral_ratio_table(part)]
    expected = [v / COUETTE_MASTER_LOG for v in COUETTE_SLAVED_LOGS]
    np.testing.assert_allclose(ratios, expected, atol=1e-6)
    np.testing.assert_allclose(
        ratios, [1.9897342, 2.0921923, 4.0000570, 4.8157009], atol=1e-6)


def test_ratio_table_has_a_column_per_master():
    """Any spectrum: one row per slaved entry (reals, then pairs), one
    quotient per master (reals, then pairs)."""
    part = spectrum.SpectralPartition(
        kind="flow", lam=(-1.0, 2.0), alpha_omega=((-0.5, 3.0),),
        kappa=(-4.0,), beta_nu=((-6.0, 1.0),))
    assert spectrum.spectral_ratio_table(part) == [
        (1, 4.0, -2.0, 8.0), (2, 6.0, -3.0, 12.0)]


# ---------------------------------------------------------------------------
# pseudo-unstable rate-gap test
# ---------------------------------------------------------------------------

def test_pseudo_unstable_3d_example_fails():
    """Mixed-contraction split without an admissible gap exponent."""
    Df0 = np.diag([np.e, 1.0 / np.e, np.exp(-np.sqrt(2.0) / 2.0)])
    U = np.eye(3)[:, :2]
    S = np.eye(3)[:, 2:]
    result = spectrum.pseudo_unstable_check(Df0, (S, U), r=1)
    assert not result.holds
    assert result.a_interval[0] == pytest.approx(np.e, rel=1e-12)


def test_pseudo_unstable_contracting_split_holds():
    Df0 = np.diag([np.exp(-2.0), np.exp(-1.0)])
    U = np.eye(2)[:, 1:]
    S = np.eye(2)[:, :1]
    result = spectrum.pseudo_unstable_check(Df0, (S, U), r=1)
    assert result.holds
    assert result.a_interval[0] == pytest.approx(np.e, rel=1e-12)
    assert result.a_interval[1] == pytest.approx(np.e ** 2, rel=1e-12)


def test_pseudo_unstable_classical_saddle_holds():
    Df0 = np.diag([2.0, 0.5])
    U = np.eye(2)[:, :1]
    S = np.eye(2)[:, 1:]
    assert spectrum.pseudo_unstable_check(Df0, (S, U), r=3).holds


def test_pseudo_unstable_rejects_non_invariant_split():
    Df0 = np.array([[1.0, 1.0], [0.0, 2.0]])
    U = np.eye(2)[:, :1]
    S = np.eye(2)[:, 1:]          # not invariant under Df0
    with pytest.raises(NonInvariantSplit):
        spectrum.pseudo_unstable_check(Df0, (S, U), r=1)


# ---------------------------------------------------------------------------
# matrix CSV input
# ---------------------------------------------------------------------------

def test_read_matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    _, M = read_table(path)
    np.testing.assert_array_equal(M, [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_csv_rejects_ragged(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError):
        read_table(path)
