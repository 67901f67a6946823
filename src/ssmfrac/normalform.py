"""Constructive normal-form machinery.

Order-by-order polynomial linearizing transformations (homological
equations in complex-diagonalized coordinates), pullback of linear
invariant graphs to explicit manifold parametrizations, the extended 2D
normal form with fractional-power resonant terms, and the backbone and
damping curves it induces.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import linear_graph_eval
from .errors import (InputError, OutOfRadius, SmallDivisor, WrongShape)
from .jsonio import dump_json

SMALL_DIVISOR_FACTOR = 1e-8
COEFF_DROP = 1e-14
ORDER_TOL = 1e-9


# ---------------------------------------------------------------------------
# graded integer series engine
# ---------------------------------------------------------------------------

class _Basis:
    """Every monomial y^m of n variables with |m| <= K, in graded order. A
    vector series is a coefficient matrix with one row per component and
    one column per monomial: column r holds y^exps[r], degree d spans
    ``blocks[d]``, and y^exps[r] = y^exps[parent[r]] * y_var[r]."""

    def __init__(self, n, K):
        if (K + 1) ** (n + 1) >= 2 ** 63:
            raise InputError(f"order-{K} series in {n} variables too large")
        self.n, self.order = n, K
        exps = np.array([np.bincount(c, minlength=n) for d in range(K + 1)
                         for c in itertools.combinations_with_replacement(
                             range(n), d)], dtype=np.int64).reshape(-1, n)
        # degree-major base-(K+1) codes add as exponents add and sort in
        # graded order; within a degree, by the last variable present
        self._unit = (K + 1) ** np.arange(n, dtype=np.int64) + (K + 1) ** n
        self.exps = exps[np.argsort(exps @ self._unit)]
        self._codes = self.exps @ self._unit
        self.size = len(self.exps)
        self.index = {tuple(map(int, m)): r for r, m in enumerate(self.exps)}
        start = np.searchsorted(self.exps.sum(axis=1), np.arange(K + 2))
        self.blocks = [slice(int(a), int(b))
                       for a, b in zip(start[:-1], start[1:])]
        self.width = np.diff(start)
        self.var = n - 1 - np.argmax(self.exps[:, ::-1] > 0, axis=1)
        self.parent = np.searchsorted(self._codes,
                                      self._codes - self._unit[self.var])
        # shift[da, db][j, i]: position in block da + db of monomial i of
        # block da times monomial j of block db
        self._shift = {(da, db): np.searchsorted(
            self._codes, self._codes[self.blocks[db], None]
            + self._codes[self.blocks[da]]) - start[da + db]
            for da in range(K + 1) for db in range(K + 1 - da)}

    def matrix(self, terms):
        """Coefficient matrix of {multi-index: vector}, dropping order > K."""
        C = np.zeros((self.n, self.size), dtype=complex)
        for m, v in terms.items():
            if sum(m) <= self.order:
                C[:, self.index[tuple(m)]] += v
        return C

    def to_dict(self, C):
        """{multi-index: vector} of a coefficient matrix, with components of
        modulus <= COEFF_DROP zeroed and all-zero monomials left out."""
        C = np.where(np.abs(C) > COEFF_DROP, C, 0.0).T.copy()
        return {tuple(map(int, self.exps[r])): C[r]
                for r in np.flatnonzero(C.any(axis=1))}

    def block_product(self, A, b, da, db, out):
        """Add to out the degree-(da + db) block of the products of the
        series with degree-da blocks A (rows) and the one with degree-db
        block b; one monomial of b maps monomials one-to-one."""
        shift = self._shift[da, db]
        for j in np.flatnonzero(b):
            out[:, shift[j]] += A * b[j]

    def chain_rule_block(self, H, F, k):
        """Degree-k block of Dh(y) f(y) for the series H and F."""
        out = np.zeros((H.shape[0], self.width[k]), dtype=complex)
        for i in range(self.n):
            rows = np.flatnonzero(self.exps[:, i])
            dH = np.zeros_like(H)
            lower = np.searchsorted(self._codes,
                                    self._codes[rows] - self._unit[i])
            dH[:, lower] = H[:, rows] * self.exps[rows, i]
            for da in range(k):
                self.block_product(dH[:, self.blocks[da]],
                                   F[i, self.blocks[k - da]], da, k - da, out)
        return out

    def compose(self, C, X, out):
        """Add C(X(y)) to out degree by degree, raising X only to the
        monomials C uses and their parents; neither has a constant term.
        Degree k reads X through degree k - 1 (k only where C is linear),
        so out may be X itself: that is series reversion."""
        need = C.any(axis=0)
        for d in range(self.order, 1, -1):
            blk = self.blocks[d]
            need[self.parent[blk][need[blk]]] = True
        # needed monomials by degree, hence sorted by var
        groups = [np.flatnonzero(need[blk]) + blk.start for blk in self.blocks]
        pos = np.zeros(self.size, dtype=np.int64)    # row within its group
        pos[np.concatenate(groups)] = np.concatenate(
            [np.arange(len(g)) for g in groups])
        # powers[s][d]: degree-d block of X^m for the needed m of degree s;
        # products read blocks below K, and below k of the degree-1 ones
        powers = [{} for _ in self.blocks]
        for k in range(1, self.order + 1):
            blk = self.blocks[k]
            powers[1][k - 1] = X[self.var[groups[1]], self.blocks[k - 1]]
            out[:, blk] += C[:, groups[1]] @ X[self.var[groups[1]], blk]
            for s in range(2, k + 1):
                rows = groups[s]
                block = np.zeros((len(rows), self.width[k]), dtype=complex)
                cuts = np.searchsorted(self.var[rows], np.arange(self.n + 1))
                for v in range(self.n):
                    run = slice(cuts[v], cuts[v + 1])
                    parents = self.parent[rows[run]]
                    for da in range(s - 1, k):
                        self.block_product(powers[s - 1][da][pos[parents]],
                                           X[v, self.blocks[k - da]], da,
                                           k - da, block[run])
                if k < self.order:
                    powers[s][k] = block
                out[:, blk] += C[:, rows] @ block
        return out


_basis = functools.lru_cache(maxsize=16)(_Basis)


def _near_identity(terms, n, points):
    """y + s(y) at each row y of points, for a {multi-index: vector} s."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    basis = _basis(n, max((sum(m) for m in terms), default=1))
    C, out = basis.matrix(terms), pts.copy()
    for r in np.flatnonzero(C.any(axis=0)):     # memory O(points) per term
        out += np.prod(pts ** basis.exps[r], axis=1)[:, None] * C[:, r]
    return out


# ---------------------------------------------------------------------------
# PolySystem
# ---------------------------------------------------------------------------

def _canonical_eig_order(w, kind="flow"):
    """Indices ordering eigenvalues by slowness (|Re| for flows), conjugate
    pairs adjacent with the positive-imaginary member first."""
    idx = list(range(len(w)))
    used, groups = set(), []
    for i in idx:
        if i in used:
            continue
        if abs(w[i].imag) > 1e-12:
            partner = None
            for j in idx:
                if j not in used and j != i and \
                        abs(w[j] - np.conj(w[i])) < 1e-8 * (1 + abs(w[i])):
                    partner = j
                    break
            if partner is None:
                raise InputError("complex eigenvalue without conjugate partner")
            pair = (i, partner) if w[i].imag > 0 else (partner, i)
            groups.append((abs(w[i].real), list(pair)))
            used.update(pair)
        else:
            groups.append((abs(w[i].real), [i]))
            used.add(i)
    groups.sort(key=lambda g: g[0])
    return [i for _, grp in groups for i in grp]


@dataclass
class PolySystem:
    """Vector field xdot = diag(eigenvalues) x + f(x) in complex-diagonalized
    coordinates; f stored as {multi-index: complex coefficient vector}."""

    eigenvalues: tuple
    terms: dict

    @property
    def dimension(self):
        return len(self.eigenvalues)

    @classmethod
    def from_real_system(cls, A, nonlinear_terms, K=10, kind="flow"):
        """Diagonalize xdot = A x + f(x); nonlinear_terms are {multi-index:
        real coefficient vector} in the original coordinates. Returns
        (system, V) with x_original = V x_modal."""
        A = np.asarray(A, dtype=float)
        w, V = np.linalg.eig(A)
        order = _canonical_eig_order(w, kind)
        w, V = w[order], V[:, order]
        basis = _basis(len(w), K)
        C = np.linalg.inv(V) @ basis.matrix(nonlinear_terms)
        X = np.zeros_like(C)
        X[:, basis.blocks[1]] = V
        terms = basis.to_dict(basis.compose(C, X, np.zeros_like(C)))
        return cls(eigenvalues=tuple(w), terms=terms), V

    def conjugate_symmetry_error(self):
        """Largest violation of the real-system symmetry: the coefficient at
        the conjugate-permuted index equals the conjugate coefficient."""
        lam = np.asarray(self.eigenvalues)
        perm = np.argmin(np.abs(lam[None, :] - np.conj(lam)[:, None]), axis=1)
        basis = _basis(self.dimension,
                       max((sum(m) for m in self.terms), default=1))
        C = basis.matrix(self.terms)
        mirrored = [basis.index[tuple(m)] for m in basis.exps[:, perm]]
        return float(np.max(np.abs(np.conj(C[perm]) - C[:, mirrored]),
                            initial=0.0))


# ---------------------------------------------------------------------------
# linearization by homological equations
# ---------------------------------------------------------------------------

@dataclass
class LinearizingTransform:
    """Coordinate change y = x + h(x) conjugating the system to its linear
    part up to the stated order."""

    order: int
    eigenvalues: tuple
    coefficients: dict                  # multi-index -> complex vector
    small_divisor_log: list = field(default_factory=list)
    _inverse: dict = field(default=None, repr=False)

    @property
    def dimension(self):
        return len(self.eigenvalues)

    def apply(self, points):
        return _near_identity(self.coefficients, self.dimension, points)

    def inverse_coefficients(self):
        """Series G with x = y + G(y), the formal inverse of y = x + h(x)."""
        if self._inverse is None:
            # reversion order by order: x = y - h(x) gives
            # G_k = -[h(y + G_{<k})]_k, which needs G only below order k
            basis = _basis(self.dimension, self.order)
            X = np.zeros((self.dimension, basis.size), dtype=complex)
            X[:, basis.blocks[1]] = np.eye(self.dimension)
            basis.compose(-basis.matrix(self.coefficients), X, out=X)
            X[:, basis.blocks[1]] -= np.eye(self.dimension)
            self._inverse = basis.to_dict(X)
        return self._inverse

    def inverse_apply(self, points):
        return _near_identity(self.inverse_coefficients(), self.dimension,
                              points)

    def to_json(self, path=None):
        doc = {
            "order": self.order,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "coefficients": {
                ",".join(map(str, m)): [[c.real, c.imag] for c in v]
                for m, v in self.coefficients.items()},
            "small_divisor_log": [
                {"multi_index": list(m), "component": j, "divisor": abs(d)}
                for m, j, d in self.small_divisor_log],
        }
        return dump_json(doc, path)


def linearize(sys, K, drop_resonant=False):
    """Solve the homological equations order by order for y = x + h(x) with
    ydot = diag(eigenvalues) y up to order K.

    Coefficients H_{m,j} = g_{m,j} / (lambda_j - <m, lambda>); divisors below
    1e-8 ||lambda|| raise SmallDivisor unless drop_resonant, in which case
    the term is skipped (approximate conjugacy) and logged.
    """
    lam = np.asarray(sys.eigenvalues, dtype=complex)
    basis = _basis(sys.dimension, K)
    scale = np.linalg.norm(lam)
    F = basis.matrix(sys.terms)
    H = np.zeros_like(F)
    denom = lam[:, None] - basis.exps @ lam
    log = []
    for k in range(2, K + 1):
        blk = basis.blocks[k]
        # chain-rule cross terms Dh . f come from the lower-order h
        g = F[:, blk] + basis.chain_rule_block(H, F, k)
        live = np.abs(g) > COEFF_DROP
        small = live & (np.abs(denom[:, blk]) < SMALL_DIVISOR_FACTOR * scale)
        for r, j in np.argwhere(small.T) + [blk.start, 0]:
            m = tuple(map(int, basis.exps[r]))
            log.append((m, int(j), denom[j, r]))
            if not drop_resonant:
                raise SmallDivisor(
                    f"resonant divisor {abs(denom[j, r]):.3e} at index {m},"
                    f" component {j}")
        np.divide(g, denom[:, blk], out=H[:, blk], where=live & ~small)
    return LinearizingTransform(order=K, eigenvalues=tuple(lam),
                                coefficients=basis.to_dict(H),
                                small_divisor_log=log)


def conjugacy_residual(transform, sys):
    """Largest coefficient of order <= K left after the conjugacy; round-off
    sized when the homological solve is exact."""
    lam = np.asarray(sys.eigenvalues, dtype=complex)
    basis = _basis(sys.dimension, transform.order)
    F = basis.matrix(sys.terms)
    H = basis.matrix(transform.coefficients)
    resid = F + (basis.exps @ lam - lam[:, None]) * H
    return max((float(np.max(np.abs(resid[:, basis.blocks[k]]
                                    + basis.chain_rule_block(H, F, k))))
                for k in range(2, transform.order + 1)), default=0.0)


# ---------------------------------------------------------------------------
# pullback of linear invariant graphs
# ---------------------------------------------------------------------------

def pullback_graph(transform, spec, coeffs, master_grid, radius=np.inf):
    """Map linear-system invariant graph samples through the inverse of the
    linearizing transform, producing samples of the nonlinear manifold in
    complex-diagonalized coordinates.

    master_grid: iterable of (u, z) master points, u a length-p real tuple
    and z a length-q complex tuple. Coordinate order of the output matches
    the transform: masters (reals, then pairs as z, conj z), then slaved
    (reals, then pairs as w, conj w).
    """
    rows = []
    for point in master_grid:
        u, z = point
        u = np.atleast_1d(np.asarray(u, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        v, w = linear_graph_eval(spec, coeffs, (u, z))
        w = np.atleast_1d(w)
        y = np.concatenate([u, np.ravel([z, z.conj()], order="F"),
                            np.atleast_1d(v), np.ravel([w, w.conj()], "F")])
        if len(y) != transform.dimension:
            raise WrongShape("graph sample dimension does not match transform")
        if np.max(np.abs(y)) > radius:
            raise OutOfRadius(
                f"sample amplitude {np.max(np.abs(y)):.3g} outside the "
                f"validity radius {radius:.3g}")
        rows.append(y)
    return transform.inverse_apply(np.asarray(rows))


# ---------------------------------------------------------------------------
# extended 2D normal form
# ---------------------------------------------------------------------------

def resonance_test_2d(k1, k2, k5=0, k6=0):
    """A 2D term z^{k1} zbar^{k2} (|z|-power factors indexed by k5, k6) is
    unremovable iff its rotational eigenvalue vanishes: k1 = k2 + 1. The
    fractional indices never affect resonance."""
    return k1 == k2 + 1


def _fkey(a, b):
    return (round(a.real, 10), round(a.imag, 10),
            round(b.real, 10), round(b.imag, 10))


def _funpack(key):
    return complex(key[0], key[1]), complex(key[2], key[3])


def _fadd(d, a, b, c):
    key = _fkey(a, b)
    d[key] = d.get(key, 0.0) + c
    if abs(d[key]) < COEFF_DROP:
        del d[key]


def _forder(key):
    return key[0] + key[2]


def _fmul(d1, d2, K):
    out = {}
    for k1, c1 in d1.items():
        a1, b1 = _funpack(k1)
        for k2, c2 in d2.items():
            a2, b2 = _funpack(k2)
            if (a1 + a2 + b1 + b2).real > K + ORDER_TOL:
                continue
            _fadd(out, a1 + a2, b1 + b2, c1 * c2)
    return out


def _fconj(d):
    """Field of the conjugate variable: term c xi^a w^b becomes
    conj(c) xi^{conj b} w^{conj a}."""
    out = {}
    for k, c in d.items():
        a, b = _funpack(k)
        _fadd(out, np.conj(b), np.conj(a), np.conj(c))
    return out


def _fshift(d, da, db, factor_from=None):
    """Multiply by xi^{da} w^{db}, or differentiate when factor_from picks
    the exponent ('a' or 'b')."""
    out = {}
    for k, c in d.items():
        a, b = _funpack(k)
        fac = 1.0
        if factor_from == "a":
            fac = a
        elif factor_from == "b":
            fac = b
        if fac == 0.0:
            continue
        _fadd(out, a + da, b + db, c * fac)
    return out


def _gen_binom(a, j):
    out = 1.0 + 0.0j
    for i in range(j):
        out *= (a - i) / (i + 1)
    return out


def _fpower_composed(a, delta_over_base, base_is_a, K, base_order):
    """(xi + delta)^a expanded as xi^a sum_j C(a,j) (delta/xi)^j, truncated
    at total order K. delta_over_base is the series delta/xi (or delta/w)."""
    min_o = min((_forder(k) for k in delta_over_base), default=None)
    da, db = (a, 0.0) if base_is_a else (0.0, a)
    out = {_fkey(complex(da), complex(db)): 1.0 + 0.0j}
    if min_o is None or min_o <= ORDER_TOL:
        return out
    power = {_fkey(0.0 + 0.0j, 0.0 + 0.0j): 1.0 + 0.0j}
    j = 1
    while base_order + j * min_o <= K + ORDER_TOL:
        power = _fmul(power, delta_over_base, K)
        coef = _gen_binom(a, j)
        for k, c in power.items():
            aa, bb = _funpack(k)
            _fadd(out, aa + da, bb + db, c * coef)
        j += 1
    return out


def _fcompose(field_terms, delta, K):
    """Field F evaluated at (xi + delta, w + conj-delta), truncated."""
    dconj = _fconj(delta)
    d_over_xi = _fshift(delta, -1.0, 0.0)
    d_over_w = _fshift(dconj, 0.0, -1.0)
    out = {}
    for k, c in field_terms.items():
        a, b = _funpack(k)
        base_order = (a + b).real
        za = _fpower_composed(a, d_over_xi, True, K, base_order)
        zb = _fpower_composed(b, d_over_w, False, K, base_order)
        prod = _fmul(za, zb, K)
        for kk, cc in prod.items():
            aa, bb = _funpack(kk)
            _fadd(out, aa, bb, c * cc)
    return out


def _ftransform_field(field_terms, delta, K, batch_order):
    """Transformed field after the near-identity substitution
    z = xi + delta(xi, conj xi)."""
    dconj = _fconj(delta)
    da_xi = _fshift(delta, -1.0, 0.0, factor_from="a")
    da_w = _fshift(delta, 0.0, -1.0, factor_from="b")
    fz = _fcompose(field_terms, delta, K)
    G = dict(fz)
    n_iter = int(math.ceil((K - 1) / max(batch_order - 1.0, 1e-6))) + 1
    for _ in range(n_iter):
        prev, prev_c = G, _fconj(G)
        G = dict(fz)
        for k, c in _fmul(da_xi, prev, K).items():
            a, b = _funpack(k)
            _fadd(G, a, b, -c)
        for k, c in _fmul(da_w, prev_c, K).items():
            a, b = _funpack(k)
            _fadd(G, a, b, -c)
    return G


@dataclass
class NormalForm2D:
    """Extended polar normal form on a 2D manifold: amplitude and phase
    equations with integer cubic constants (A, B) and fractional constants
    (P1..P3, Q, R1..R3) at exponents ratio and 2*ratio."""

    alpha1: float
    omega1: float
    A: float = None
    B: float = None
    P1: float = None
    P2: float = None
    P3: float = None
    Q: float = None
    R1: float = None
    R2: float = None
    R3: float = None
    ratio: float = None                  # amplitude exponent beta1/alpha1
    phase_exponent: float = None         # nu1/alpha1
    resonant_terms: list = field(default_factory=list)
    small_divisor_log: list = field(default_factory=list)
    polar_valid: bool = True

    def to_json(self, path=None):
        doc = {k: getattr(self, k) for k in
               ("alpha1", "omega1", "A", "B", "P1", "P2", "P3", "Q",
                "R1", "R2", "R3", "ratio", "phase_exponent", "polar_valid")}
        doc["resonant_terms"] = self.resonant_terms
        doc["small_divisor_log"] = [
            {"exponents": list(k), "divisor": d}
            for k, d in self.small_divisor_log]
        return dump_json(doc, path)


def _model_to_field(reduced):
    d = reduced.dictionary
    if not d.family.endswith("2d"):
        raise InputError("extended normal form needs a 2D dictionary model")
    field_terms = {}
    coeffs = np.asarray(reduced.coefficients).ravel()
    for mono, c in zip(d.monomials, coeffs):
        if abs(c) <= COEFF_DROP:
            continue
        k2 = mono.k2[0] if mono.k2 else 0
        k3 = mono.k3[0] if mono.k3 else 0
        frac = mono.amp_exponents[0] if mono.amp_exponents else 0.0
        a = k2 + frac / 2.0 + 1j * mono.phase_coeff / 2.0
        b = k3 + frac / 2.0 + 1j * mono.phase_coeff / 2.0
        _fadd(field_terms, a, b, complex(c))
    return field_terms


def extended_normalform_2d(reduced, spec, drop_resonant=True):
    """Remove all structurally nonresonant terms of a fitted 2D reduced
    model by near-identity substitutions, then collect the survivors into
    the polar truncation constants.

    Terms with z-power = zbar-power + 1 are kept regardless of coefficient
    size; every other term is removed by dividing by its full homological
    eigenvalue (never small, since the rotational part is a nonzero integer
    multiple of omega1).
    """
    if spec.kind != "flow":
        raise InputError("the polar normal form applies to flow models")
    if spec.s < 1:
        raise WrongShape("need at least one slaved oscillatory pair")
    K = reduced.dictionary.truncation
    F = _model_to_field(reduced)

    lin_key = _fkey(1.0 + 0.0j, 0.0 + 0.0j)
    if lin_key not in F:
        raise InputError("reduced model carries no linear term")
    gamma = F[lin_key]
    alpha1, omega1 = gamma.real, gamma.imag
    scale = abs(gamma)
    sd_log = []

    while True:
        orders = sorted({_forder(k) for k in F
                         if _forder(k) > 1.0 + ORDER_TOL
                         and _forder(k) <= K + ORDER_TOL})
        for o in orders:
            batch = {}
            for k, c in list(F.items()):
                if abs(_forder(k) - o) > ORDER_TOL:
                    continue
                a, b = _funpack(k)
                if abs((a - b).real - 1.0) < ORDER_TOL:
                    continue                      # resonant, keep
                denom = gamma * a + np.conj(gamma) * b - gamma
                if abs(denom) < SMALL_DIVISOR_FACTOR * scale:
                    sd_log.append(((a.real, a.imag, b.real, b.imag),
                                   abs(denom)))
                    if not drop_resonant:
                        raise SmallDivisor(
                            f"divisor {abs(denom):.3e} at exponents "
                            f"({a}, {b})")
                    continue
                if abs(c / denom) <= COEFF_DROP:
                    del F[k]              # removal below round-off: drop
                    continue
                batch[k] = c / denom
            if batch:
                break
        else:
            break
        F = _ftransform_field(F, batch, K, o)

    survivors = []
    for k, c in sorted(F.items(), key=lambda kv: _forder(kv[0])):
        a, b = _funpack(k)
        survivors.append({"a": [a.real, a.imag], "b": [b.real, b.imag],
                          "coeff": [c.real, c.imag]})

    beta1, nu1 = spec.beta_nu[0]
    ratio = beta1 / spec.alpha_omega[0][0] if spec.alpha_omega else None
    phase = nu1 / spec.alpha_omega[0][0] if spec.alpha_omega else None
    nf = NormalForm2D(alpha1=alpha1, omega1=omega1, ratio=ratio,
                      phase_exponent=phase, resonant_terms=survivors,
                      small_divisor_log=sd_log)
    if ratio is None or not (0.5 + ORDER_TOL < ratio < 2.0 - ORDER_TOL):
        nf.polar_valid = False
        return nf

    # bucket the survivors: for a resonant term zdot/z = c r^{Xi} e^{i Gm L}
    # with L = log r, Xi = 2 Re b and Gm = 2 Im b
    def bucket(xi_target, gm_target):
        pos, neg, zero = 0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j
        for k, c in F.items():
            a, b = _funpack(k)
            if abs((a - b).real - 1.0) > ORDER_TOL:
                continue
            xi, gm = 2.0 * b.real, 2.0 * b.imag
            if abs(xi - xi_target) > 1e-8:
                continue
            if gm_target == 0.0 and abs(gm) < 1e-8:
                zero += c
            elif abs(gm - gm_target) < 1e-8:
                pos += c
            elif abs(gm + gm_target) < 1e-8:
                neg += c
        return pos, neg, zero

    c3 = bucket(2.0, 0.0)[2]
    nf.A, nf.B = c3.real, c3.imag
    p1, m1, _ = bucket(ratio, phase)
    S1, D1 = p1 + np.conj(m1), p1 - np.conj(m1)
    nf.P1, nf.R1 = abs(S1), abs(D1)
    _, _, z2 = bucket(2.0 * ratio, 0.0)
    nf.P2, nf.R2 = z2.real, z2.imag
    p2, m2, _ = bucket(2.0 * ratio, 2.0 * phase)
    S2, D2 = p2 + np.conj(m2), p2 - np.conj(m2)
    nf.P3, nf.R3 = abs(S2), abs(D2)
    nf.Q = (cmath.phase(S2) + math.pi / 2.0) / 2.0 if abs(S2) > 0 else 0.0
    return nf


# ---------------------------------------------------------------------------
# backbone and damping curves
# ---------------------------------------------------------------------------

def _polar_terms(nf, r, c_quad, c_lead, c_first, c_plain, c_second):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise InputError("amplitude grid must be positive")
    theta = 2.0 * (nf.Q + nf.phase_exponent * np.log(r))
    return (c_lead + c_quad * r ** 2
            + c_first * r ** nf.ratio * np.sin(theta)
            + c_plain * r ** (2.0 * nf.ratio)
            + c_second * r ** (2.0 * nf.ratio) * np.sin(theta))


def backbone(nf, r_grid):
    """Instantaneous frequency Omega(r) of the polar normal form."""
    if not nf.polar_valid:
        raise InputError("normal form has no valid polar truncation")
    return _polar_terms(nf, r_grid, nf.B, nf.omega1, nf.R1, nf.R2, nf.R3)


def damping(nf, r_grid):
    """Instantaneous decay rate kappa(r) = rdot/r of the polar normal
    form."""
    if not nf.polar_valid:
        raise InputError("normal form has no valid polar truncation")
    return _polar_terms(nf, r_grid, nf.A, nf.alpha1, nf.P1, nf.P2, nf.P3)


def curve_to_csv(r_grid, values, path):
    np.savetxt(path, np.column_stack([r_grid, values]), delimiter=",",
               header="r,value", comments="")
