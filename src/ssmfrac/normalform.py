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
import math
from dataclasses import dataclass, field

import numpy as np

from .dictionary import _term_exponents, family_of, linear_graph_eval
from .errors import (InputError, NoConvergence, OutOfRadius, SmallDivisor,
                     WrongShape)
from .jsonio import dump_json
from .spectrum import conjugate_partners, exponent_vectors

SMALL_DIVISOR_FACTOR = 1e-8
COEFF_DROP = 1e-14
ORDER_TOL = 1e-9
# Linear step of the extended 2D normal form: binomial terms in delta are
# kept while |delta|^j exceeds BINOMIAL_TAIL, and a delta that needs more than
# MAX_BINOMIAL_POWER of them (|delta| above 0.63) raises NoConvergence.
BINOMIAL_TAIL = 1e-20
MAX_BINOMIAL_POWER = 100
SWEEP_CELLS = 8192          # (term, lattice point) cells per composition block


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
        exps = np.array(exponent_vectors(n, 0, K), dtype=np.int64)
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

def _canonical_eig_order(w):
    """Indices ordering eigenvalues by slowness |Re|, stably, conjugate
    pairs adjacent with the positive-imaginary member first."""
    partner = conjugate_partners(w)
    firsts = sorted((i for i in range(len(w)) if i <= partner[i]),
                    key=lambda i: abs(w[i].real))
    return [int(k) for i in firsts
            for k in sorted({i, partner[i]}, key=lambda k: -w[k].imag)]


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
    def from_real_system(cls, A, nonlinear_terms, K=10):
        """Diagonalize xdot = A x + f(x); nonlinear_terms are {multi-index:
        real coefficient vector} in the original coordinates. Returns
        (system, V) with x_original = V x_modal."""
        A = np.asarray(A, dtype=float)
        w, V = np.linalg.eig(A)
        order = _canonical_eig_order(w)
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
        perm = conjugate_partners(self.eigenvalues)
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


def linearize(sys, K):
    """Solve the homological equations order by order for y = x + h(x) with
    ydot = diag(eigenvalues) y up to order K.

    Coefficients H_{m,j} = g_{m,j} / (lambda_j - <m, lambda>); a divisor
    below 1e-8 ||lambda|| under a live term raises SmallDivisor.
    """
    lam = np.asarray(sys.eigenvalues, dtype=complex)
    basis = _basis(sys.dimension, K)
    scale = np.linalg.norm(lam)
    F = basis.matrix(sys.terms)
    H = np.zeros_like(F)
    denom = lam[:, None] - basis.exps @ lam
    for k in range(2, K + 1):
        blk = basis.blocks[k]
        # chain-rule cross terms Dh . f come from the lower-order h
        g = F[:, blk] + basis.chain_rule_block(H, F, k)
        live = np.abs(g) > COEFF_DROP
        small = live & (np.abs(denom[:, blk]) < SMALL_DIVISOR_FACTOR * scale)
        if small.any():
            r, j = np.argwhere(small.T)[0] + [blk.start, 0]
            raise SmallDivisor(
                f"resonant divisor {abs(denom[j, r]):.3e} at index "
                f"{tuple(map(int, basis.exps[r]))}, component {j}")
        np.divide(g, denom[:, blk], out=H[:, blk], where=live)
    return LinearizingTransform(order=K, eigenvalues=tuple(lam),
                                coefficients=basis.to_dict(H))


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
    and z a length-q complex tuple; the graph is evaluated on the whole
    grid in one ``linear_graph_eval`` call. Coordinate order of the output
    matches the transform: masters (reals, then pairs as z, conj z), then
    slaved (reals, then pairs as w, conj w).
    """
    grid = list(master_grid)
    u = np.array([np.atleast_1d(u) for u, _ in grid], dtype=float)
    z = np.array([np.atleast_1d(z) for _, z in grid], dtype=complex)
    v, w = linear_graph_eval(spec, coeffs, (u, z))
    # each pair as its value and its conjugate, side by side
    zz, ww = (np.stack([c, c.conj()], -1).reshape(len(c), -1) for c in (z, w))
    y = np.hstack([u, zz, v, ww])
    if y.shape[1] != transform.dimension:
        raise WrongShape("graph sample dimension does not match transform")
    if np.max(np.abs(y)) > radius:
        raise OutOfRadius(
            f"sample amplitude {np.max(np.abs(y)):.3g} outside the "
            f"validity radius {radius:.3g}")
    return transform.inverse_apply(y)


# ---------------------------------------------------------------------------
# extended 2D normal form
# ---------------------------------------------------------------------------

def _prefix_pairs(counts):
    """Index pairs (i, j) with 0 <= j < counts[i]."""
    i = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return i, np.arange(len(i)) - np.repeat(starts, counts)


def _binomials(a, n):
    """(len(a), n + 1) table of the generalized binomials C(a_t, j)."""
    steps = (a[:, None] - np.arange(n)) / np.arange(1, n + 1)
    return np.hstack([np.ones((len(a), 1)), np.cumprod(steps, axis=1)])


class _Lattice:
    """Fractional series of a 2D model with one complex master pair.

    A term c xi^a conj(xi)^b is keyed on the dictionary's integer
    multiplicities k = (k2, k3, k5..., k6...): a = k2 + s and b = k3 + s
    with s = sum k5 theta + sum k6 conj(theta), theta_m = (Xi_m + i
    Gamma_m) / 2 the |.| exponent and phase coefficient of the k5_m = 1
    term (``dictionary._term_exponents``; one master pair, slaved pairs
    only), which are never rounded. Keys add as exponents add, conjugation
    swaps k2 with k3 and k5 with k6, and a - b = k2 - k3 is the rotational
    index. A series is a pair (keys, coeffs): an (n, dim) integer array and
    an (n,) complex array.
    """

    def __init__(self, spec):
        family = family_of(spec)
        if not family.endswith("2d"):
            raise WrongShape("the exponent lattice needs p=0, q=1, r=0")
        s = spec.s
        self.dim = 2 + 2 * s
        # exponents are linear in the multi-index: read off the unit ones
        ex = _term_exponents(spec, family, np.eye(self.dim, dtype=np.int64))
        self.theta = (ex.amp[2:] + 1j * ex.phase[2:]) / 2.0
        self.weight = ex.order
        self.swap = np.concatenate([[1, 0], 2 + s + np.arange(s),
                                    2 + np.arange(s)])

    def key(self, k2, k3):
        """The one-row key array of the integer monomial xi^k2 conj(xi)^k3."""
        out = np.zeros((1, self.dim), dtype=np.int64)
        out[0, :2] = k2, k3
        return out

    def at(self, keys, k2, k3):
        """Rows of keys equal to key(k2, k3)."""
        return np.all(keys == self.key(k2, k3), axis=1)

    def exponents(self, keys):
        s = keys[:, 2:] @ self.theta
        return keys[:, 0] + s, keys[:, 1] + s

    def order(self, keys):
        return keys @ self.weight

    def conj(self, series):
        """The series of the conjugate: c xi^a conj(xi)^b becomes
        conj(c) xi^conj(b) conj(xi)^conj(a)."""
        keys, c = series
        return keys[:, self.swap], c.conj()

    @staticmethod
    def _codes(kx, ky):
        """Mixed-radix codes of the rows of kx and of ky over the box that
        holds every sum of a row of kx and a row of ky, so that the sum of
        two codes is the code of the sum of the keys; and the box's corner
        and shape, which decode it."""
        lx, ly = kx.min(axis=0), ky.min(axis=0)
        dims = kx.max(axis=0) + ky.max(axis=0) - lx - ly + 1
        return (np.ravel_multi_index((kx - lx).T, dims),
                np.ravel_multi_index((ky - ly).T, dims), lx + ly, dims)

    @staticmethod
    def _sum_codes(codes, c):
        """Distinct codes and the sums of their coefficients."""
        codes, inv = np.unique(codes, return_inverse=True)
        return codes, (np.bincount(inv, c.real, len(codes))
                       + 1j * np.bincount(inv, c.imag, len(codes)))

    def _gather(self, codes, c, corner, dims):
        """The series of the coded terms: coefficients of equal codes
        summed, sums of modulus <= COEFF_DROP dropped, keys decoded."""
        codes, total = self._sum_codes(codes, c)
        keep = np.abs(total) > COEFF_DROP
        keys = np.column_stack(np.unravel_index(codes[keep], dims)) + corner
        return keys.reshape(-1, len(dims)), total[keep]

    def without(self, series, drop):
        """The series without its terms keyed on a row of drop."""
        keys, c = series
        both = np.concatenate([keys, drop])
        corner = both.min(axis=0)
        dims = both.max(axis=0) - corner + 1
        codes = np.ravel_multi_index((both - corner).T, dims)
        keep = ~np.isin(codes[:len(keys)], codes[len(keys):])
        return keys[keep], c[keep]

    def merge(self, keys, c):
        """Sum the coefficients of equal keys; sums of modulus <= COEFF_DROP
        are dropped."""
        if not len(keys):
            return keys, c
        corner = keys.min(axis=0)
        dims = keys.max(axis=0) - corner + 1
        return self._gather(np.ravel_multi_index((keys - corner).T, dims), c,
                            corner, dims)

    def mul(self, x, y, K):
        """Product of two series, truncated at order K."""
        (kx, cx), (ky, cy) = x, y
        rows = np.argsort(self.order(ky), kind="stable")
        ky, cy = ky[rows], cy[rows]
        # the factors of y that row i of x may take: a prefix by order
        i, j = _prefix_pairs(np.searchsorted(
            self.order(ky), K + ORDER_TOL - self.order(kx), side="right"))
        if not len(i):
            return kx[:0], cx[:0]
        codes_x, codes_y, corner, dims = self._codes(kx, ky)
        return self._gather(codes_x[i] + codes_y[j], cx[i] * cy[j], corner,
                            dims)

    def pair_table(self, P, n, room):
        """R_ij = P^i conj(P)^j for i + j <= n, powers of P truncated at
        order room: a ((n + 1)(n + 2) / 2, U) matrix over the U distinct
        lattice points of the table, sorted by order, and their keys. Built
        one i at a time, so the temporaries stay those of one row."""
        powers = [(self.key(0, 0), np.ones(1, dtype=complex))]
        for _ in range(n):
            powers.append(self.mul(powers[-1], P, room))
        pk, pc = map(np.concatenate, zip(*powers))
        ends = np.cumsum([len(p[1]) for p in powers])
        codes_p, codes_q, corner, dims = self._codes(pk, pk[:, self.swap])

        def row(i):
            """Entries of P^i times those of conj(P)^j, j <= n - i."""
            x, y = _prefix_pairs(np.full(len(powers[i][1]), ends[n - i]))
            return x + ends[i] - len(powers[i][1]), y

        cells = np.unique(np.concatenate(
            [codes_p[x] + codes_q[y] for x, y in map(row, range(n + 1))]))
        keys = np.column_stack(np.unravel_index(cells, dims)) + corner
        by_order = np.argsort(self.order(keys), kind="stable")
        rank = np.empty_like(by_order)
        rank[by_order] = np.arange(len(by_order))
        R = np.zeros((n + 1) * (n + 2) // 2 * len(keys), dtype=complex)
        power_of = np.repeat(np.arange(n + 1), np.diff(ends, prepend=0))
        first_pair = 0                      # pairs (i, j) in order of i, j
        for i in range(n + 1):
            x, y = row(i)
            cell = (first_pair + power_of[y]) * len(keys) + rank[
                np.searchsorted(cells, codes_p[x] + codes_q[y])]
            coeffs = pc.conj()[y]
            coeffs *= pc[x]
            R.real += np.bincount(cell, coeffs.real, len(R))
            R.imag += np.bincount(cell, coeffs.imag, len(R))
            first_pair += n + 1 - i
        return R.reshape(-1, len(keys)), keys[by_order]

    def compose(self, F, P, n, K):
        """F at z = xi (1 + P), truncated at order K: each term
        c xi^a conj(xi)^b becomes c xi^a conj(xi)^b sum_{i+j<=n} C(a, i)
        C(b, j) P^i conj(P)^j. The pair table is formed once; the binomial
        weights of all terms act on it through one matrix product and one
        scatter-add per block of about SWEEP_CELLS cells, which bounds the
        temporaries."""
        keys, c = F
        rows = np.argsort(self.order(keys), kind="stable")
        keys, c = keys[rows], c[rows]
        order = self.order(keys)
        R, ukeys = self.pair_table(P, n, K - order[0])
        uorder = self.order(ukeys)
        ia, jb = np.array(exponent_vectors(2, 0, n)).T  # pair_table's rows
        a, b = self.exponents(keys)
        codes_f, codes_u, corner, dims = self._codes(keys, ukeys)
        out_codes, out_c = [], []
        lo = 0
        while lo < len(keys):
            # terms are sorted by order: the first one reaches most columns
            width = np.searchsorted(uorder, K - order[lo] + ORDER_TOL,
                                    side="right")
            blk = slice(lo, lo + max(1, SWEEP_CELLS // width))
            lo = blk.stop
            M = (c[blk, None] * _binomials(a[blk], n)[:, ia]
                 * _binomials(b[blk], n)[:, jb]) @ R[:, :width]
            t, u = np.nonzero(order[blk, None] + uorder[:width]
                              <= K + ORDER_TOL)
            block_codes, block_c = self._sum_codes(codes_f[blk][t]
                                                   + codes_u[u], M[t, u])
            out_codes.append(block_codes)
            out_c.append(block_c)
        return self._gather(np.concatenate(out_codes), np.concatenate(out_c),
                            corner, dims)


def _linear_step(lat, F, gamma, c):
    """Remove the linear conj(z) term exactly: with omega = Im gamma,
    z = xi + delta conj(xi) for the small root delta of
    conj(c) delta^2 - 2 i omega delta - c = 0 turns gamma z + c conj(z)
    into gamma' xi, gamma' = Re gamma + i sign(omega) sqrt(omega^2 - |c|^2).
    Each term z^a conj(z)^b becomes a binomial series in delta whose terms
    shift (k2, k3) by (-j, +j) and keep the order; the new field is
    (zdot - delta conj(zdot)) / (1 - |delta|^2). Returns the field, gamma'
    and delta."""
    omega = gamma.imag
    if abs(c) >= abs(omega):
        raise InputError(f"linear part {gamma:.6g} z + {c:.6g} conj(z) has "
                         f"no focus: |c| >= |Im gamma|")
    root = math.copysign(math.sqrt(omega ** 2 - abs(c) ** 2), omega)
    delta = 1j * c / (omega + root)
    n = max(1, math.ceil(math.log(BINOMIAL_TAIL) / math.log(abs(delta))))
    if n > MAX_BINOMIAL_POWER:
        raise NoConvergence(f"the conj(z) substitution with |delta| = "
                            f"{abs(delta):.3g} needs more than "
                            f"{MAX_BINOMIAL_POWER} binomial terms")
    P = (lat.key(-1, 1), np.array([delta]))       # delta conj(xi) / xi
    zdot = lat.compose(F, P, n, math.inf)
    keys, coeffs = lat.merge(*map(np.concatenate, zip(
        zdot, lat.conj((zdot[0], -delta.conjugate() * zdot[1])))))
    coeffs = coeffs / (1.0 - abs(delta) ** 2)
    gamma1 = complex(gamma.real, root)
    # the linear part is gamma' xi exactly; conj(xi) keeps only round-off
    coeffs[lat.at(keys, 1, 0)] = gamma1
    return lat.without((keys, coeffs), lat.key(0, 1)), gamma1, delta


def _sweep(lat, F, delta, K):
    """Field in xi after z = xi + Delta(xi, conj xi), truncated at order K.
    xidot solves xidot = F(xi + Delta) - D_xi Delta xidot - D_conj(xi) Delta
    conj(xidot); the Neumann series for it gains o - 1 in order per term,
    o the order of Delta. F(xi + Delta) needs the powers of Delta / xi up
    to n = (K - o_low) / (o - 1), o_low the lowest order of F's terms other
    than the linear xi term, which needs only the first power; higher
    powers reach only orders above K. The terms Delta removes cancel by
    construction, c_k - denom_k Delta_k = 0; they are dropped, as their
    round-off (about 1e-16 |c_k|) may exceed COEFF_DROP."""
    keys, d = delta
    a, b = lat.exponents(keys)
    o = lat.order(keys).min()
    P = (keys - lat.key(1, 0), d)                  # Delta / xi
    low = lat.order(F[0])[~lat.at(F[0], 1, 0)].min(initial=K)
    n = max(1, int((K - low) / (o - 1.0) + ORDER_TOL))
    term = lat.compose(F, P, n, K)
    d_xi = (P[0], a * d)
    d_conj = (keys - lat.key(0, 1), b * d)
    total = [term]
    while len(term[0]):
        k1, c1 = lat.mul(d_xi, term, K)
        k2, c2 = lat.mul(d_conj, lat.conj(term), K)
        term = lat.merge(np.concatenate([k1, k2]), -np.concatenate([c1, c2]))
        total.append(term)
    return lat.without(lat.merge(*map(np.concatenate, zip(*total))), keys)


def _classify(lat, F, gamma, K):
    """Exponents, orders, homological divisors and the non-resonant mask
    (k2 - k3 != 1, order <= K) of the field's terms."""
    keys = F[0]
    a, b = lat.exponents(keys)
    order = lat.order(keys)
    denom = gamma * a + gamma.conjugate() * b - gamma
    nonres = (keys[:, 0] - keys[:, 1] != 1) & (order <= K + ORDER_TOL)
    return a, b, order, denom, nonres


def _next_order(order, nonres, above):
    """Lowest order above ``above`` holding a non-resonant term, or None."""
    live = nonres & (order > above + ORDER_TOL)
    return float(order[live].min()) if live.any() else None


@dataclass
class NormalForm2D:
    """Extended polar normal form on a 2D manifold: amplitude and phase
    equations with integer cubic constants (A, B) and fractional constants
    (P1..P3, Q, R1..R3) at exponents ratio and 2*ratio.

    ``delta`` and ``substitutions`` record how the normal-form coordinate
    xi maps back to z: first z = y + delta conj(y), then each near-identity
    batch, in the order applied, as arrays (a, b, coeff) of its terms
    coeff y^a conj(y)^b; see ``invariance_residual``."""

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
    delta: complex = 0j
    substitutions: list = field(default_factory=list, repr=False)

    def to_json(self, path=None):
        """The constants and survivors, in the normal-form coordinate xi,
        with delta as [re, im] (0 when the model had no linear conj(z)
        term and xi starts from z itself)."""
        doc = {k: getattr(self, k) for k in
               ("alpha1", "omega1", "A", "B", "P1", "P2", "P3", "Q",
                "R1", "R2", "R3", "ratio", "phase_exponent", "polar_valid")}
        doc["delta"] = [self.delta.real, self.delta.imag]
        doc["resonant_terms"] = self.resonant_terms
        doc["small_divisor_log"] = [
            {"exponents": list(k), "divisor": d}
            for k, d in self.small_divisor_log]
        return dump_json(doc, path)


def _model_to_field(reduced):
    """The exponent lattice of a 2D reduced model's dictionary and the
    model's field on it."""
    d = reduced.dictionary
    lat = _Lattice(d.spec)
    keys = np.array(d.multi_indices, dtype=np.int64)
    coeffs = np.asarray(reduced.coefficients, dtype=complex).ravel()
    return lat, lat.merge(keys.reshape(-1, lat.dim), coeffs)


def _survivors(lat, F):
    """(a, b, coeff) arrays of the field's terms by order, lattice points
    with equal (a, b) (a rational ratio) merged into one."""
    keys, c = F
    a, b = lat.exponents(keys)
    rows = np.lexsort((a.imag, a.real, lat.order(keys)))
    ab = np.round(np.column_stack([a.real, a.imag, b.real, b.imag]), 9)
    _, first, inv = np.unique(ab[rows], axis=0, return_index=True,
                              return_inverse=True)
    total = np.zeros(len(first), dtype=complex)
    np.add.at(total, inv.ravel(), c[rows])
    pick = np.argsort(first)
    keep = np.abs(total[pick]) > COEFF_DROP
    rows = rows[first[pick][keep]]
    return a[rows], b[rows], total[pick][keep]


def extended_normalform_2d(reduced, spec):
    """Remove all structurally nonresonant terms of a fitted 2D reduced
    model by near-identity substitutions, then collect the survivors into
    the polar truncation constants.

    A linear conj(z) term, as every fitted model carries, is removed first
    and exactly (``_linear_step``); alpha1 and omega1 then report the
    diagonal linear coefficient gamma'. With a diagonal linear part a
    substitution at order o only creates terms above o, so one ascending
    pass over the lattice orders in (1, K] removes every non-resonant term:
    terms with z-power = zbar-power + 1 are kept regardless of coefficient
    size, every other term is removed by dividing by its full homological
    eigenvalue (never small, since the rotational part is a nonzero integer
    multiple of omega1). Dense fitted models return in well under a second.

    Everything is read from the model's spectrum; ``spec`` must equal it.
    """
    d = reduced.dictionary
    if d.family != "flow_2d":
        raise InputError(f"the polar normal form needs a flow_2d model, "
                         f"got {d.family}")
    if spec != d.spec:
        raise InputError("spec differs from the model's spectrum")
    K = d.truncation
    if spec.s < 1:
        raise WrongShape("need at least one slaved oscillatory pair")
    lat, F = _model_to_field(reduced)

    if not lat.at(F[0], 1, 0).any():
        raise InputError("reduced model carries no linear term")
    gamma = complex(F[1][lat.at(F[0], 1, 0)][0])
    delta = 0j
    if lat.at(F[0], 0, 1).any():
        F, gamma, delta = _linear_step(
            lat, F, gamma, complex(F[1][lat.at(F[0], 0, 1)][0]))
    scale = abs(gamma)
    sd_log, substitutions = [], []

    a, b, order, denom, nonres = _classify(lat, F, gamma, K)
    o = 1.0
    while (o := _next_order(order, nonres, o)) is not None:
        keys, c = F
        at = nonres & (np.abs(order - o) <= ORDER_TOL)
        small = at & (np.abs(denom) < SMALL_DIVISOR_FACTOR * scale)
        for i in np.flatnonzero(small):
            sd_log.append(((a[i].real, a[i].imag, b[i].real, b[i].imag),
                           abs(denom[i])))
        at &= ~small
        removal = np.divide(c, denom, out=np.zeros_like(c), where=at)
        drop = at & (np.abs(removal) <= COEFF_DROP)   # below round-off
        batch = at & ~drop
        F = (keys[~drop], c[~drop])
        if batch.any():
            substitutions.append((a[batch], b[batch], removal[batch]))
            F = _sweep(lat, F, (keys[batch], removal[batch]), K)
        a, b, order, denom, nonres = _classify(lat, F, gamma, K)

    left = nonres & (order > 1.0 + ORDER_TOL) \
        & (np.abs(denom) >= SMALL_DIVISOR_FACTOR * scale)
    removal = np.abs(F[1][left] / denom[left])
    if np.any(removal > COEFF_DROP):
        raise NoConvergence(f"removable term of size {removal.max():.3e} "
                            "left after the ascending pass")
    a, b, coeffs = _survivors(lat, (F[0][~left], F[1][~left]))
    survivors = [{"a": [x.real, x.imag], "b": [y.real, y.imag],
                  "coeff": [z.real, z.imag]} for x, y, z in zip(a, b, coeffs)]

    amp, turn = spec.quotients()
    ratio, phase = float(amp[0, 0]), float(turn[0, 0])
    nf = NormalForm2D(alpha1=gamma.real, omega1=gamma.imag, ratio=ratio,
                      phase_exponent=phase, resonant_terms=survivors,
                      small_divisor_log=sd_log, delta=delta,
                      substitutions=substitutions)
    if not (0.5 + ORDER_TOL < ratio < 2.0 - ORDER_TOL):
        nf.polar_valid = False
        return nf

    # bucket the survivors: for a resonant term zdot/z = c r^{Xi} e^{i Gm L}
    # with L = log r, Xi = 2 Re b and Gm = 2 Im b
    resonant = np.abs((a - b).real - 1.0) <= ORDER_TOL
    xi, gm = 2.0 * b.real[resonant], 2.0 * b.imag[resonant]
    cres = coeffs[resonant]

    def bucket(xi_target, gm_target):
        near = np.abs(xi - xi_target) <= 1e-8
        if gm_target == 0.0:
            zero = cres[near & (np.abs(gm) < 1e-8)].sum()
            return 0j, 0j, zero
        pos = near & (np.abs(gm - gm_target) < 1e-8)
        neg = near & ~pos & (np.abs(gm + gm_target) < 1e-8)
        return cres[pos].sum(), cres[neg].sum(), 0j

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


def _power_terms(a, b, coeffs, xi):
    """sum c xi^a conj(xi)^b at the samples xi, and its derivatives in xi
    and conj(xi); single-valued because every a - b is an integer."""
    log_r, phi = np.log(np.abs(xi))[:, None], np.angle(xi)[:, None]
    mono = coeffs * np.exp((a + b) * log_r + 1j * (a - b).real * phi)
    return (mono.sum(axis=1), (mono * a).sum(axis=1) / xi,
            (mono * b).sum(axis=1) / np.conj(xi))


def invariance_residual(nf, reduced, xi):
    """|D_xi z N(xi) + D_conj(xi) z conj(N(xi)) - F(z)| at the nonzero
    samples xi, where N is the normal form's field (its survivors), F the
    reduced model's and z(xi) undoes nf's substitutions. It vanishes to the
    truncation order: as |xi| shrinks it falls like |xi|^o, o the lowest
    order above K that the model's terms generate. Evaluated in long double,
    so that round-off stays below it at small |xi|."""
    xi = np.ravel(np.asarray(xi, dtype=np.clongdouble))
    z, z_x, z_xb = xi, np.ones_like(xi), np.zeros_like(xi)
    for a, b, coeffs in reversed(nf.substitutions):
        f, f_x, f_xb = _power_terms(a, b, coeffs, z)
        z, z_x, z_xb = (z + f, z_x + f_x * z_x + f_xb * np.conj(z_xb),
                        z_xb + f_x * z_xb + f_xb * np.conj(z_x))
    z, z_x, z_xb = (z + nf.delta * np.conj(z), z_x + nf.delta * np.conj(z_xb),
                    z_xb + nf.delta * np.conj(z_x))
    terms = nf.resonant_terms
    N = _power_terms(np.array([complex(*t["a"]) for t in terms]),
                     np.array([complex(*t["b"]) for t in terms]),
                     np.array([complex(*t["coeff"]) for t in terms]), xi)[0]
    F = reduced.dictionary.evaluate(z) @ np.asarray(reduced.coefficients)
    return np.abs(z_x * N + z_xb * np.conj(N) - F[:, 0])


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
