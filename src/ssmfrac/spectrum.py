"""Linear analysis at a hyperbolic fixed point.

Partitions the spectrum of a real matrix into master/slaved blocks relative
to a chosen spectral subspace, checks nonresonance, predicts the smoothness
class of the generic invariant-manifold family, and runs the pseudo-unstable
subspace test.

This module is the one place that computes an eigenvalue's rate, the
spectral quotients of a partition, the pairing of conjugate eigenvalues and
a partition's layout (``all_eigenvalues``, ``quotients``), and it holds the
one enumerator of integer exponent vectors (``exponent_vectors``); the
dictionaries, the normal forms and the command line read them from here.

Conventions
-----------
* Flows compare eigenvalue real parts against zero; maps compare moduli
  against one. The rate of an eigenvalue is Re for flows and log-modulus
  for maps (``rate``); a spectral quotient is a slaved rate over a master
  rate (``SpectralPartition.quotients``).
* Complex eigenvalues are stored as (real, imag) pairs with positive
  imaginary part; conjugates are implicit.
* Within each block entries are sorted by |rate|, ascending, so the
  "slowest" entry comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DefectiveMatrix, InputError, NonInvariantSplit,
                     NotHyperbolic)
from .jsonio import dump_json, load_json, member, numbers

# hyperbolicity margins (relative to ||A|| for flows, absolute for maps)
FLOW_HYPERBOLICITY_RTOL = 1e-10
MAP_HYPERBOLICITY_TOL = 1e-10
# resonance equality tolerance, and the 1:1 dedup tolerance
RESONANCE_TOL = 1e-9
# terms (and slaved vectors) one library may hold, and multi-indices one
# resonance scan may compare
MAX_TERMS = 100_000
# |Im| at or below this times the spectral scale counts as real, and a
# conjugate partner must lie this close to the exact conjugate
CONJUGATE_RTOL = 1e-10
# eigenvector matrix condition number beyond which we refuse to proceed
DEFECTIVE_COND = 1e8


def rate(z, kind):
    """Decay or growth rate of an eigenvalue, the quantity every spectral
    quotient divides: Re z for flows, log|z| for maps (-inf at z = 0)."""
    z = complex(z)
    if kind == "flow":
        return z.real
    mod = math.hypot(z.real, z.imag)
    return math.log(mod) if mod > 0 else -math.inf


def conjugate_partners(eigs, tol=None):
    """Index of each eigenvalue's conjugate partner, every eigenvalue
    paired exactly once: itself when |Im| <= tol, else the nearest
    still-unpaired eigenvalue within tol of its conjugate, so repeated
    pairs are matched one to one. tol defaults to CONJUGATE_RTOL times the
    largest modulus. A complex eigenvalue left without partner raises
    InputError."""
    eigs = np.asarray(eigs, dtype=complex)
    if tol is None:
        tol = CONJUGATE_RTOL * np.abs(eigs).max(initial=0.0)
    partner = np.arange(len(eigs))
    free = np.abs(eigs.imag) > tol
    for i in np.flatnonzero(free):
        if free[i]:
            free[i] = False
            gap = np.where(free, np.abs(eigs - eigs[i].conjugate()), np.inf)
            j = int(np.argmin(gap))
            if not gap[j] <= tol:
                raise InputError(f"complex eigenvalue {eigs[i]} has no "
                                 "conjugate partner")
            partner[[i, j]], free[j] = (j, i), False
    return partner


def _check_hyperbolic(eigs, kind, scale=1.0):
    """Raise unless every eigenvalue is off the critical set: for flows
    |Re| above FLOW_HYPERBOLICITY_RTOL * scale; for maps a finite nonzero
    multiplier with ||z| - 1| above MAP_HYPERBOLICITY_TOL (InputError for a
    zero or infinite multiplier, NotHyperbolic for a critical one)."""
    eigs = np.asarray(eigs, dtype=complex)
    if kind == "flow":
        bad = np.abs(eigs.real) <= FLOW_HYPERBOLICITY_RTOL * scale
    elif kind == "map":
        mod = np.abs(eigs)
        if not np.all(np.isfinite(mod) & (mod > 0)):
            raise InputError(f"map multipliers must be finite and nonzero, "
                             f"got {eigs}")
        bad = np.abs(mod - 1.0) <= MAP_HYPERBOLICITY_TOL
    else:
        raise InputError(f"unknown kind {kind!r}")
    if np.any(bad):
        raise NotHyperbolic(f"eigenvalues on the critical set: {eigs[bad]}")


# the eigenvalue lists of a spectrum document: entry shape, and the key of
# the count written beside the list
_DOC_LISTS = {"lambda": ((None,), "p"), "alpha_omega": ((None, 2), "q"),
              "kappa": ((None,), "r"), "beta_nu": ((None, 2), "s")}


@dataclass(frozen=True)
class SpectralPartition:
    """Real-Jordan partition of a hyperbolic spectrum.

    p master reals ``lam``, q master complex pairs ``alpha_omega`` as
    (alpha, omega), r slaved reals ``kappa``, s slaved complex pairs
    ``beta_nu`` as (beta, nu). ``kind`` is "flow" or "map".
    """

    kind: str
    lam: tuple = ()
    alpha_omega: tuple = ()
    kappa: tuple = ()
    beta_nu: tuple = ()

    def __post_init__(self):
        if self.kind not in ("flow", "map"):
            raise InputError(f"kind must be 'flow' or 'map', got {self.kind!r}")
        for name in ("lam", "alpha_omega", "kappa", "beta_nu"):
            pairs = name in ("alpha_omega", "beta_nu")
            vals = ((float(v[0]), abs(float(v[1]))) if pairs else float(v)
                    for v in getattr(self, name))
            object.__setattr__(self, name, tuple(sorted(
                vals, key=lambda v: abs(rate(complex(*v) if pairs else v,
                                             self.kind)))))

    # -- shape ---------------------------------------------------------------

    @property
    def p(self):
        return len(self.lam)

    @property
    def q(self):
        return len(self.alpha_omega)

    @property
    def r(self):
        return len(self.kappa)

    @property
    def s(self):
        return len(self.beta_nu)

    @property
    def n(self):
        return self.p + 2 * self.q + self.r + 2 * self.s

    # -- eigenvalue access ---------------------------------------------------

    def master_eigenvalues(self):
        """One per column of ``quotients``: lam, then alpha + i omega."""
        vals = [complex(x) for x in self.lam]
        return vals + [complex(a, w) for a, w in self.alpha_omega]

    def slaved_eigenvalues(self):
        """One per row of ``quotients``: kappa, then beta + i nu."""
        vals = [complex(x) for x in self.kappa]
        return vals + [complex(b, nu) for b, nu in self.beta_nu]

    def all_eigenvalues(self):
        """Every eigenvalue in state-coordinate order: the master reals, each
        master pair as value then conjugate, then the slaved block alike."""
        return [z for reals, pairs in ((self.lam, self.alpha_omega),
                                       (self.kappa, self.beta_nu))
                for z in [complex(x) for x in reals]
                + [complex(a, im) for a, w in pairs for im in (w, -w)]]

    def quotients(self):
        """Spectral quotients of every slaved entry (rows: ``kappa``, then
        ``beta_nu``) over every master (columns: ``lam``, then
        ``alpha_omega``), as (amplitude, phase) arrays of shape
        (r + s, p + q). The amplitude is the slaved rate over the master
        rate; the phase is nu (flows) or atan2(nu, beta) (maps) over the
        master rate, and 0 for slaved reals. A zero or non-finite master
        rate, a non-finite slaved rate, or a quotient that overflows raises
        InputError."""
        den = np.array([rate(z, self.kind) for z in self.master_eigenvalues()])
        num = np.array([rate(z, self.kind) for z in self.slaved_eigenvalues()])
        if not (np.isfinite(den).all() and den.all()
                and np.isfinite(num).all()):
            raise InputError(f"spectral quotients need finite nonzero master "
                             f"rates and finite slaved rates, got master "
                             f"{den.tolist()}, slaved {num.tolist()}")
        turn = np.array([0.0] * self.r + [
            nu if self.kind == "flow" else math.atan2(nu, b)
            for b, nu in self.beta_nu])
        with np.errstate(over="ignore"):
            amp, phase = num[:, None] / den, turn[:, None] / den
        if not (np.isfinite(amp).all() and np.isfinite(phase).all()):
            raise InputError(f"spectral quotients overflow: master rates "
                             f"{den.tolist()}, slaved rates {num.tolist()}")
        return amp, phase

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "kind": self.kind,
            "p": self.p, "q": self.q, "r": self.r, "s": self.s,
            "lambda": list(self.lam),
            "alpha_omega": [list(p) for p in self.alpha_omega],
            "kappa": list(self.kappa),
            "beta_nu": [list(p) for p in self.beta_nu],
        }

    def to_json(self, path=None):
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict. ``kind`` is required; absent lists are empty,
        and the counts p, q, r, s, where given, must match them."""
        what = "spectrum document"
        kind = member(d, "kind", str, what)
        counts = {count for _, count in _DOC_LISTS.values()}
        unknown = sorted(set(d) - set(_DOC_LISTS) - counts - {"kind"})
        if unknown:
            raise InputError(f"{what} has unknown keys {unknown}")
        lists = {}
        for key, (shape, count) in _DOC_LISTS.items():
            lists[key] = numbers(d.get(key, []), f"{what} {key!r}",
                                 shape).tolist()
            if count in d and member(d, count, int, what) != len(lists[key]):
                raise InputError(f"{what}: {count!r} = {d[count]} does not "
                                 f"match the {len(lists[key])} entries of "
                                 f"{key!r}")
        return cls(kind=kind, lam=lists["lambda"],
                   alpha_omega=lists["alpha_omega"], kappa=lists["kappa"],
                   beta_nu=lists["beta_nu"])

    @classmethod
    def from_json(cls, source):
        return cls.from_dict(load_json(source))

    @classmethod
    def from_map_logs(cls, master_logs, slaved_logs):
        """Map-kind partition from log-moduli of real positive eigenvalues.

        Convenience for tabulated data given as log eigenvalues. The
        multipliers obey partition_spectrum's map rule: one that is zero or
        overflows in floating point raises InputError, one within
        MAP_HYPERBOLICITY_TOL of modulus 1 raises NotHyperbolic.
        """
        try:
            lam = [math.exp(v) for v in master_logs]
            kappa = [math.exp(v) for v in slaved_logs]
        except OverflowError as exc:
            raise InputError("a log-modulus overflows its multiplier") from exc
        _check_hyperbolic(lam + kappa, "map")
        return cls(kind="map", lam=tuple(lam), kappa=tuple(kappa))


# ---------------------------------------------------------------------------
# master selectors
# ---------------------------------------------------------------------------

def slowest(n_dims):
    """Selector keeping the n_dims slowest real dimensions by the rate of
    the partition's kind (a conjugate pair counts as two)."""
    if n_dims < 1:
        raise InputError(f"need at least one master dimension, got {n_dims}")

    def select(eigs, kind):
        partner = conjugate_partners(eigs)
        order = sorted(range(len(eigs)), key=lambda i: (
            abs(rate(eigs[i], kind)), abs(eigs[i].imag)))
        mask = np.zeros(len(eigs), dtype=bool)
        taken = 0
        for i in order:
            # a complex eigenvalue takes its conjugate partner along
            group = [i] if partner[i] == i else [i, partner[i]]
            if mask[i] or taken + len(group) > n_dims:
                continue
            mask[group] = True
            taken += len(group)
            if taken == n_dims:
                break
        if taken != n_dims:
            raise InputError(f"cannot select {n_dims} dimensions from spectrum")
        return mask
    return select


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------

def partition_spectrum(A, master_selector, kind="flow"):
    """Split the spectrum of a real matrix into master and slaved blocks.

    Parameters
    ----------
    A : (n, n) array_like, real
    master_selector : callable(eigs: complex ndarray, kind) -> boolean mask
        The selected set must be closed under conjugation.
    kind : "flow" | "map"
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("A must be a square matrix")
    eigs, vecs = np.linalg.eig(A)
    cond = np.linalg.cond(vecs)
    if cond > DEFECTIVE_COND:
        raise DefectiveMatrix(
            f"eigenvector condition number {cond:.3g} exceeds {DEFECTIVE_COND:.0e}")

    scale = max(np.linalg.norm(A, 2), 1e-300)
    _check_hyperbolic(eigs, kind, scale)

    mask = np.asarray(master_selector(eigs, kind), dtype=bool)
    if mask.shape != eigs.shape:
        raise InputError("master selector returned a mask of wrong length")
    partner = conjugate_partners(eigs, CONJUGATE_RTOL * scale)
    if np.any(mask != mask[partner]):
        raise InputError("master selection is not closed under conjugation")

    def collect(sel):
        reals = [z.real for i, z in enumerate(eigs)
                 if sel[i] and partner[i] == i]
        pairs = [(z.real, z.imag) for i, z in enumerate(eigs)
                 if sel[i] and partner[i] != i and z.imag > 0]
        return reals, pairs

    lam, alpha_omega = collect(mask)
    kappa, beta_nu = collect(~mask)
    return SpectralPartition(kind=kind, lam=tuple(lam),
                             alpha_omega=tuple(alpha_omega),
                             kappa=tuple(kappa), beta_nu=tuple(beta_nu))


# ---------------------------------------------------------------------------
# nonresonance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceReport:
    resonant: bool
    violations: tuple          # of (j, multi_index) into `eigenvalues`
    checked_order: int
    eigenvalues: tuple = ()    # deduplicated list the indices refer to


def _dedupe(eigs, tol=RESONANCE_TOL):
    out = []
    for z in eigs:
        if not any(abs(z - w) <= tol * max(1.0, abs(w)) for w in out):
            out.append(z)
    return out


def exponent_vectors(n, lo, hi):
    """Every n-tuple of non-negative integers whose sum lies in lo..hi, in
    lexicographic order: the one enumerator of monomial multi-indices."""
    if n == 0:
        return [()] if lo <= 0 <= hi else []
    return [(k,) + rest for k in range(hi + 1)
            for rest in exponent_vectors(n - 1, lo - k, hi - k)]


def check_nonresonance(spec: SpectralPartition, max_order: int) -> ResonanceReport:
    """Exhaustive resonance scan up to the requested order.

    Flows test lambda_j = sum_k m_k lambda_k, maps test
    lambda_j = prod_k lambda_k^{m_k}, for 2 <= sum m_k <= max_order, as one
    comparison over the stacked multi-indices m; violations are listed in
    lexicographic order of m, then by j. Repeated (1:1) eigenvalues are
    deduplicated first, per the usual exemption. More than MAX_TERMS
    multi-indices, counted before any is made, raise InputError.
    """
    if max_order < 2:
        raise InputError("max_order must be >= 2")
    eigs = np.array(_dedupe(spec.all_eigenvalues()))
    # d-tuples with 2 <= sum <= max_order: C(d + max_order, d) - 1 - d
    count = math.comb(len(eigs) + max_order, len(eigs)) - 1 - len(eigs)
    if count > MAX_TERMS:
        raise InputError(f"a resonance scan of {len(eigs)} eigenvalues to "
                         f"order {max_order} compares {count} multi-indices, "
                         f"more than {MAX_TERMS}")
    vectors = exponent_vectors(len(eigs), 2, max_order)
    m = np.array(vectors, dtype=np.int64).reshape(len(vectors), len(eigs))
    if spec.kind == "flow":
        val, scale = m @ eigs, 1.0
    else:
        val = np.prod(eigs ** m, axis=1)
        scale = np.maximum(1.0, np.abs(val))[:, None]
    hits = np.argwhere(np.abs(eigs - val[:, None]) <= RESONANCE_TOL * scale)
    violations = tuple((int(j), vectors[i]) for i, j in hits)
    return ResonanceReport(resonant=bool(violations), violations=violations,
                           checked_order=max_order,
                           eigenvalues=tuple(eigs.tolist()))


# ---------------------------------------------------------------------------
# smoothness class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessReport:
    eta: object        # nonnegative int, or the string "infinity"
    ratios: tuple      # positive spectral quotients entering the minimum


def smoothness_class(spec: SpectralPartition) -> SmoothnessReport:
    """Differentiability class of the generic invariant-graph family.

    eta = Int[min+ of the slaved/master rate quotients]; if every quotient is
    negative the family collapses to the unique C-infinity member and eta is
    "infinity".
    """
    amp, _ = spec.quotients()
    positive = tuple(sorted(float(x) for x in amp.ravel() if x > 0))
    if not positive:
        return SmoothnessReport(eta="infinity", ratios=())
    return SmoothnessReport(eta=int(math.floor(min(positive) + 1e-12)),
                            ratios=positive)


def spectral_ratio_table(spec: SpectralPartition):
    """A row (l, q_l1, ..., q_l(p+q)) per slaved entry l = 1, 2, ...: its
    amplitude quotients over every master (``SpectralPartition.quotients``;
    log kappa_l / log |lambda_1| for a map with one real master)."""
    amp, _ = spec.quotients()
    return [(i + 1, *row) for i, row in enumerate(amp.tolist())]


# ---------------------------------------------------------------------------
# pseudo-unstable subspace test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PseudoUnstableResult:
    holds: bool
    a_interval: tuple        # open interval (lo, hi), possibly empty (lo>=hi)


def _restriction(Df0, basis, scale):
    # orthonormalize, check invariance, return the restricted operator
    Q, _ = np.linalg.qr(np.asarray(basis, dtype=float))
    image = Df0 @ Q
    resid = image - Q @ (Q.T @ image)
    if np.linalg.norm(resid, 2) > 1e-8 * max(scale, 1.0):
        raise NonInvariantSplit("subspace is not invariant under Df0")
    return Q.T @ image


def pseudo_unstable_check(Df0, split, r):
    """Rate-gap feasibility test for a pseudo-unstable subspace.

    Checks whether some a with ||Df0^-1|_U|| < a and ||Df0|_S|| < a^{-r}
    exists; the admissible open interval is
    (||Df0^-1|_U||, ||Df0|_S||^{-1/r}).

    Parameters
    ----------
    Df0 : (n, n) linear map at the fixed point
    split : (S_basis, U_basis) column bases spanning R^n
    r : requested smoothness integer, r >= 1
    """
    Df0 = np.asarray(Df0, dtype=float)
    S, U = split
    S = np.atleast_2d(np.asarray(S, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if S.shape[0] != Df0.shape[0]:
        S = S.T
    if U.shape[0] != Df0.shape[0]:
        U = U.T
    if S.shape[1] + U.shape[1] != Df0.shape[0]:
        raise NonInvariantSplit("S and U do not span the full space")
    scale = np.linalg.norm(Df0, 2)
    M_S = _restriction(Df0, S, scale)
    M_U = _restriction(Df0, U, scale)
    try:
        inv_norm = np.linalg.norm(np.linalg.inv(M_U), 2)
    except np.linalg.LinAlgError as exc:
        raise NonInvariantSplit("Df0 restricted to U is singular") from exc
    lo = inv_norm
    hi = np.linalg.norm(M_S, 2) ** (-1.0 / r)
    return PseudoUnstableResult(holds=lo < hi, a_interval=(lo, hi))

