"""Fractional-power function libraries.

Two layers:

* the linear-system invariant graph families V (real, slaved-real channels)
  and E (complex, slaved-pair channels), their coefficients one matrix laid
  out as the spectral quotient matrix, evaluated as one array expression;
* truncated monomial dictionaries for single-master graphs and reduced
  dynamics: terms u^{k1} |u|^{rho-weighted} for a real master,
  z^{k2} zbar^{k3} |z|^{Xi} e^{i Gamma log|z|} for a complex master pair,
  and integer monomials over the p + 2q master columns.

Monomial "order" is the homogeneous real degree used for truncation; a term
is admitted when 1 <= order <= K + 1e-9. A term stores only its integer
multiplicities, its multi-index: the master powers, then the slaved
multiplicities. Its |.| exponent, phase coefficient and order follow from
them and the spectral quotients, computed once per library. One enumerator,
``_terms``, lists the multi-indices of every family's library, and one
kernel, ``_compile``/``_evaluate``, evaluates the terms of every family,
integer libraries included: prod_j sign(x_j)^k_j |x_j|^e_j over real
master columns, z^k2 zbar^k3 |z|^frac e^{i phase log|z|} over a pair.

The spectrum alone picks a fractional library's family (``family_of``), and
``BUILDERS`` maps each family to its builder. A library is its recipe:
``dictionary_from_json`` rebuilds it from the family, spectrum, truncation,
``include_linear`` and ``prune_tol`` a document records, and rejects a
document that differs from what the rebuilt library writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, InputError, OutOfDomain, WrongShape
from .jsonio import dump_json, load_json, member, number
from .spectrum import MAX_TERMS, SpectralPartition, exponent_vectors

ORDER_SLACK = 1e-9          # order <= K + slack admits, keeps 4.000013 out at K=4
TINY_AMPLITUDE = 1e-300     # below this, positive-exponent monomials evaluate to 0


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalMonomial:
    """One dictionary term, stored as its multiplicities only.

    ``k1`` holds the integer power of the real master u in 1D libraries and
    the powers of the p + 2q master columns in integer libraries;
    ``k2``/``k3`` the powers of z and zbar; ``k4`` the slaved-real fractional
    multiplicities; ``k5``/``k6`` the slaved-pair ones. The term's |.|
    exponent, phase coefficient and order follow from these and the
    spectrum: ``Dictionary.exponents``.
    """

    k1: tuple = ()
    k2: tuple = ()
    k3: tuple = ()
    k4: tuple = ()
    k5: tuple = ()
    k6: tuple = ()

    @property
    def multi_index(self):
        return self.k1 + self.k2 + self.k3 + self.k4 + self.k5 + self.k6

    @property
    def is_integer(self):
        return not (any(self.k4) or any(self.k5) or any(self.k6))


# ---------------------------------------------------------------------------
# term exponents
# ---------------------------------------------------------------------------

def _quotients(spec):
    """``SpectralPartition.quotients`` of a spectrum that fractional terms
    are built on: for maps, every kappa_l > 0."""
    quotients = spec.quotients()
    if spec.kind == "map" and any(k <= 0 for k in spec.kappa):
        raise WrongShape("map families require kappa_l > 0 "
                         "(orientation-preserving slaved directions)")
    return quotients


def family_of(spec):
    """The fractional library family a spectrum gives, the one place it is
    derived: ``<kind>_1d`` for one real master and no slaved pair (p=1,
    q=0, s=0), ``<kind>_2d`` for one master pair and no slaved real (p=0,
    q=1, r=0). Any other master block raises WrongShape."""
    if (spec.p, spec.q, spec.s) == (1, 0, 0):
        return f"{spec.kind}_1d"
    if (spec.p, spec.q, spec.r) == (0, 1, 0):
        return f"{spec.kind}_2d"
    raise WrongShape(f"fractional libraries need p=1, q=0, s=0 or p=0, "
                     f"q=1, r=0; the spectrum has p={spec.p}, q={spec.q}, "
                     f"r={spec.r}, s={spec.s}")


def _rates(spec):
    """(amplitude, phase) quotients of every slaved entry over the one
    master of a fractional family (``SpectralPartition.quotients``):
    kappa_l / lambda_1 for flows and log kappa_l / log |lambda_1| for maps
    in 1D, phase 0; beta_m / alpha_1 and nu_m / alpha_1 for flows, the
    log-modulus quotient Xi_m and atan2(nu_m, beta_m) /
    log |alpha_1 + i omega_1| for maps in 2D."""
    amp, phase = _quotients(spec)
    return amp[:, 0].tolist(), phase[:, 0].tolist()


def _weighted(counts, weights):
    """sum_l counts[:, l] weights[l], added left to right from an integer 0,
    so that a library without slaved entries writes integer exponents."""
    return sum((c * w for c, w in zip(counts.T, weights)),
               np.zeros(len(counts), dtype=np.int64))


def _term_exponents(spec, family, indices):
    """|.| exponent, phase coefficient and order (arrays ``amp``, ``phase``
    and ``order``) of the terms with multi-indices ``indices`` in a
    ``family`` library over ``spec``: sum_l k4_l rho_l, 0 and k1 plus the
    exponent in 1D; sum_m (k5_m + k6_m) Xi_m, sum_m (k5_m - k6_m) Gamma_m
    and k2 + k3 plus the exponent in 2D; 0, 0 and the total degree for
    integer libraries."""
    masters = spec.p + 2 * spec.q
    width = masters + (0 if family == "integer" else spec.r + 2 * spec.s)
    index = np.array(indices, dtype=np.int64).reshape(len(indices), width)
    degree, k = index[:, :masters].sum(axis=1), index[:, masters:]
    zero = np.zeros(len(index))
    if family == "integer":
        return SimpleNamespace(amp=zero, phase=zero,
                               order=degree.astype(float))
    amp, phase = _rates(spec)
    if family.endswith("1d"):
        frac, turn = _weighted(k, amp), zero
    else:
        k5, k6 = k[:, :spec.s], k[:, spec.s:]
        frac, turn = _weighted(k5 + k6, amp), _weighted(k5 - k6, phase)
    return SimpleNamespace(amp=frac, phase=turn, order=degree + frac)


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

EVAL_BLOCK_ROWS = 512       # bounds the (samples, terms) temporaries


def _compile(indices, width, exponents, positive_only):
    """Exponent arrays, read from the multi-indices ``indices``: powers k
    of the ``width`` master columns (u; z and zbar; or the integer
    variables), one row per column, and their |.| exponents e, k with the
    fractional |.| exponent added on the first; the value where |z| <=
    TINY_AMPLITUDE (1 for the constant term). For a master pair, the
    distinct (k2, k3) pairs (the columns of ``pairs``) and the distinct
    (frac, phase) combinations (the columns of ``combos``: indices into the
    distinct fractional |.| exponents ``fracs`` and phase coefficients
    ``phases``), each with its column map, ``pair_col`` and ``combo_col``;
    the pair and factor tables of ``_evaluate`` are built over them."""
    k = np.array([i[:width] for i in indices],
                 dtype=np.int64).reshape(len(indices), width).T
    frac = exponents.amp.astype(float)
    e = k.astype(float)
    e[:1] += frac
    fracs, frac_col = np.unique(frac, return_inverse=True)
    phases, phase_col = np.unique(exponents.phase.astype(float),
                                  return_inverse=True)
    pairs, pair_col = np.unique(k.T, axis=0, return_inverse=True)
    combos, combo_col = np.unique(np.column_stack([frac_col, phase_col]),
                                  axis=0, return_inverse=True)
    return SimpleNamespace(
        k=k, e=e, fracs=fracs, phases=phases,
        pairs=pairs.T, pair_col=pair_col.ravel(),
        combos=combos.T, combo_col=combo_col.ravel(),
        kmax=int(k.max(initial=0)),
        const=((k.sum(axis=0) == 0) & (frac == 0)).astype(float),
        positive_only=positive_only)


def _samples(points, complex_):
    """A scalar or a 1-D array as float samples, or complex ones for 2D
    families; long double is kept. More dimensions raise WrongShape."""
    x = np.asarray(points)
    if x.ndim > 1:
        raise WrongShape(f"master samples are a 1-D array, got shape "
                         f"{x.shape}; state rows go through masters")
    if not complex_:
        return np.ravel(x if x.dtype == np.longdouble else x.astype(float))
    return np.ravel(x if x.dtype == np.clongdouble else x.astype(complex))


def _evaluate(x, ex):
    """Columns at real samples x, (n,) or (n, width), prod_j sign(x_j)^k_j
    |x_j|^e_j with each |x_j| <= TINY_AMPLITUDE set to 0, or at complex
    samples z, z^{k2} zbar^{k3} |z|^{frac} e^{i phase log|z|}; computed
    EVAL_BLOCK_ROWS samples at a time. At complex samples, a pair table
    z^{k2} zbar^{k3} over the distinct (k2, k3) and a fractional-factor
    table |z|^{frac} e^{i phase log|z|} over the distinct (frac, phase) are
    made first, each a few columns wide, and every column is one product
    of a gather from each: three passes over the (samples, terms) block."""
    if ex.positive_only and np.any(x < -TINY_AMPLITUDE):
        raise DomainError("positive-only monomial evaluated at negative u")
    out = np.empty((len(x), len(ex.const)), dtype=x.dtype)
    for lo in range(0, len(x), EVAL_BLOCK_ROWS):
        xb, blk = x[lo:lo + EVAL_BLOCK_ROWS], out[lo:lo + EVAL_BLOCK_ROWS]
        if not np.iscomplexobj(xb):
            xb = xb.reshape(len(xb), -1, 1)
            amp = np.abs(xb)
            amp[amp <= TINY_AMPLITUDE] = 0.0
            np.multiply.reduce(np.sign(xb) ** ex.k * amp ** ex.e, axis=1,
                               out=blk)
            continue
        amp = np.abs(xb)
        ok = amp > TINY_AMPLITUDE
        amp = np.where(ok, amp, 1.0)[:, None]
        # z^k by repeated multiplication; conjugated, the zbar^k table
        powers = np.empty((len(xb), ex.kmax + 1), dtype=x.dtype)
        powers[:, 0] = 1.0
        powers[:, 1:] = xb[:, None]
        np.cumprod(powers, axis=1, out=powers)
        pair = powers[:, ex.pairs[0]] * powers.conj()[:, ex.pairs[1]]
        factor = (amp ** ex.fracs)[:, ex.combos[0]].astype(x.dtype)
        if ex.phases.any():
            factor *= np.exp(1j * (np.log(amp) * ex.phases))[:, ex.combos[1]]
        np.multiply(np.take(pair, ex.pair_col, axis=1),
                    np.take(factor, ex.combo_col, axis=1), out=blk)
        if not ok.all():
            blk[~ok] = ex.const
    return out


# ---------------------------------------------------------------------------
# dictionary container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dictionary:
    """A term library over ``spec``, its terms in canonical order (by
    order, then multi-index). Its ``family`` (flow_1d, map_1d, flow_2d or
    map_2d) is the spectrum's kind and master block, and ``exponents``
    holds the |.| exponent, phase coefficient and order of every term,
    computed once from the multi-indices and the spectral quotients."""

    monomials: tuple
    spec: SpectralPartition
    truncation: float
    removed: tuple = ()               # monomials dropped by pruning
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        indices = self.multi_indices
        ex = _term_exponents(self.spec, self.family, indices)
        keys = list(zip(ex.order.tolist(), indices))
        rank = sorted(range(len(keys)), key=keys.__getitem__)
        for a, b in zip(rank, rank[1:]):     # equal terms sort together
            if indices[a] == indices[b]:
                raise InputError(f"duplicate multi-index {indices[a]}")
        object.__setattr__(self, "monomials",
                           tuple(self.monomials[i] for i in rank))
        object.__setattr__(self, "exponents", SimpleNamespace(
            **{name: v[rank] for name, v in vars(ex).items()}))

    @cached_property
    def family(self):
        return family_of(self.spec)

    def __len__(self):
        return len(self.monomials)

    @property
    def multi_indices(self):
        return [m.multi_index for m in self.monomials]

    @property
    def orders(self):
        return self.exponents.order.tolist()

    @cached_property
    def _kernel(self):
        return _compile(self.multi_indices, self.width, self.exponents,
                        self.family == "map_1d")

    @property
    def width(self):
        """State columns of one master point: the p real masters, then the
        real and imaginary parts of the q master pairs."""
        return self.spec.p + 2 * self.spec.q

    def masters(self, states):
        """(n, width) real state rows as the master samples ``evaluate``
        reads: the rows themselves for integer libraries, u for 1D
        families, z = Re + i Im for 2D ones; long double is kept. Any other
        shape raises WrongShape."""
        rows = np.asarray(states)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise WrongShape(f"{self.family} library reads (n, {self.width}) "
                             f"state rows, got shape {rows.shape}")
        if self.family == "integer":
            return rows
        return rows[:, 0] + 1j * rows[:, 1] if self.family.endswith("2d") \
            else rows[:, 0]

    def evaluate(self, points):
        """Monomial values at master samples, as ``masters`` returns them:
        (n_samples, n_monomials). 1D families take a 1-D array of real
        samples; 2D families take complex samples and return complex
        values; integer libraries take (n_samples, width) state rows and
        return doubles."""
        if self.family == "integer":
            x = np.asarray(self.masters(points), dtype=float)
        else:
            x = _samples(points, self.family.endswith("2d"))
        return _evaluate(x, self._kernel)

    def _entries(self, monomials, exponents, pruned):
        branch = "positive_only" if self.family == "map_1d" else "symmetric"
        return [{"multi_index": list(m.multi_index),
                 "amp_exponent": [] if self.family == "integer" else [amp],
                 "phase_coeff": phase, "order": order, "branch": branch,
                 "pruned": pruned}
                for m, amp, phase, order in zip(
                    monomials, exponents.amp.tolist(),
                    exponents.phase.tolist(), exponents.order.tolist())]

    def to_dict(self):
        """The library as a document: each term's multi-index with the
        exponents, order and branch that follow from it, the active terms
        first, then the pruned ones."""
        removed = _term_exponents(self.spec, self.family,
                                  [m.multi_index for m in self.removed])
        return {
            "family": self.family,
            "truncation": self.truncation,
            "spectrum": self.spec.to_dict(),
            "monomials": self._entries(self.monomials, self.exponents, False)
            + self._entries(self.removed, removed, True),
            "metadata": self.metadata,
        }

    def to_json(self, path=None):
        return dump_json(self.to_dict(), path)


@dataclass(frozen=True)
class IntegerDictionary(Dictionary):
    """Integer monomials over the p + 2q master state columns."""

    family = "integer"


# ---------------------------------------------------------------------------
# dictionary builders: one enumerator of multi-indices for every family
# ---------------------------------------------------------------------------

def _enumerate_k4(ratios, budget):
    """All multiplicity vectors over the positive-ratio slaved entries whose
    weighted sum stays within budget; negative-ratio entries are pinned to 0
    (the coefficient-constraint rule). More than MAX_TERMS vectors (a tiny
    ratio) is an InputError."""
    out = [[]]
    for rho, active in ratios:
        new = []
        for head in out:
            used = sum(h * r for h, (r, a) in zip(head, ratios))
            room = (budget - used + ORDER_SLACK) / rho if active else 0.0
            if len(new) + room >= MAX_TERMS:
                raise InputError(f"order {budget} with exponent ratio {rho:.3g} "
                                 f"gives more than {MAX_TERMS} terms")
            for k in range(int(room) + 1):
                new.append(head + [k])
        out = new
    return [tuple(v) for v in out]


def _check_order(K):
    if not math.isfinite(K):
        raise InputError(f"truncation order must be finite, got {K}")


def _degree_ranges(frac, K, skip_linear):
    """The integer degrees n >= 0 for which n + frac is an admissible
    order, 1 <= order <= K (within ORDER_SLACK), as nonempty (lo, hi)
    ranges; degree 1 is left out when skip_linear."""
    lo = max(0, math.ceil(1.0 - ORDER_SLACK - frac))
    hi = math.floor(K + ORDER_SLACK - frac)
    ranges = ((lo, min(hi, 0)), (max(lo, 2), hi)) if skip_linear else ((lo, hi),)
    return [(a, b) for a, b in ranges if a <= b]


def _check_size(K, count):
    """A library of more than MAX_TERMS terms is an InputError; counted
    before any monomial is made, so a huge order fails at once."""
    if count > MAX_TERMS:
        raise InputError(f"order {K} gives {count} terms, more than "
                         f"{MAX_TERMS}")


def _slaved_rates(spec, family):
    """The amplitude quotient of each slaved multiplicity in a ``family``
    library's multi-index: k4 in 1D, k5 then k6 (the same quotients) in
    2D, none in integer libraries."""
    if family == "integer":
        return []
    amp = _rates(spec)[0]
    return amp if family.endswith("1d") else amp + amp


def _terms(spec, K, include_linear, family):
    """The multi-index of every term of a ``family`` library of order K
    over ``spec``: the n = p + 2q master powers (k1 in 1D and integer
    libraries, k2 then k3 in 2D; ``spectrum.exponent_vectors``), then the
    slaved multiplicities (``_slaved_rates``), for every admissible order,
    1 <= order <= K within ORDER_SLACK. Negative-quotient slaved entries
    stay 0, and include_linear False leaves out the bare linear master
    terms. The terms are counted against MAX_TERMS before any is made."""
    n = spec.p + 2 * spec.q
    slaved = _enumerate_k4([(rho, rho > 0)
                            for rho in _slaved_rates(spec, family)], K)
    fracs = _term_exponents(spec, family, [(0,) * n + k for k in slaved]).amp
    cells = [(k, _degree_ranges(frac, K, not include_linear and not any(k)))
             for k, frac in zip(slaved, fracs.tolist())]
    # n-tuples with lo <= sum <= hi: C(hi + n, n) - C(lo - 1 + n, n)
    _check_size(K, sum(math.comb(hi + n, n) - math.comb(lo - 1 + n, n)
                       for _, ranges in cells for lo, hi in ranges))
    return [powers + k for k, ranges in cells for lo, hi in ranges
            for powers in exponent_vectors(n, lo, hi)]


def _monomial(spec, family, index):
    """The term with ``_terms``' multi-index ``index``."""
    if family.endswith("2d"):
        return FractionalMonomial(k2=index[:1], k3=index[1:2],
                                  k5=index[2:2 + spec.s],
                                  k6=index[2 + spec.s:])
    n = spec.p + 2 * spec.q
    return FractionalMonomial(k1=index[:n], k4=index[n:])


def _library(spec, K, family, include_linear):
    """Dictionary of ``family`` with the terms of ``_terms``; the spectrum
    must give that family."""
    if family_of(spec) != family:
        raise WrongShape(f"{family} dictionary on a spectrum that gives "
                         f"{family_of(spec)}")
    _check_order(K)
    terms = _terms(spec, K, include_linear, family)
    return Dictionary(tuple(_monomial(spec, family, i) for i in terms), spec,
                      float(K), metadata={"include_linear": include_linear})


def dictionary_flow_1d(spec, K, include_linear=True):
    """Truncated term library u^{k1} |u|^{sum k4_l kappa_l/lambda_1} for a
    flow with one real master direction."""
    return _library(spec, K, "flow_1d", include_linear)


def dictionary_map_1d(spec, K, include_linear=True):
    """Map analogue with log-ratio exponents log kappa_l / log |lambda_1|,
    on the positive-only branch u > 0."""
    return _library(spec, K, "map_1d", include_linear)


def dictionary_flow_2d(spec, K, include_linear=True):
    """Library z^{k2} zbar^{k3} |z|^{sum (k5+k6) beta_m/alpha_1}
    e^{i sum (k5-k6) (nu_m/alpha_1) log|z|} for one complex master pair."""
    return _library(spec, K, "flow_2d", include_linear)


def dictionary_map_2d(spec, K, include_linear=True):
    """Map analogue using Xi (log-modulus quotients) and Gamma
    (arctan(nu/beta) / log-modulus) exponents."""
    return _library(spec, K, "map_2d", include_linear)


def integer_dictionary(n_vars, K, spec=None):
    """Plain integer monomial library in n_vars master variables, total
    degree 1..K, truncated at the whole degree floor(K). Used for
    multi-master graph fits and integer-only comparison models; a spec
    must have n_vars = p + 2q state columns."""
    if spec is None:
        spec = SpectralPartition(kind="flow", lam=tuple([-1.0] * n_vars))
    if spec.p + 2 * spec.q != n_vars:
        raise WrongShape(f"{n_vars} variables on a spectrum with p + 2q = "
                         f"{spec.p + 2 * spec.q} master columns")
    _check_order(K)
    K = K // 1
    terms = _terms(spec, K, True, "integer")
    return IntegerDictionary(
        monomials=tuple(_monomial(spec, "integer", i) for i in terms),
        spec=spec, truncation=float(K))


# the builder of each family, called as build(spec, K, include_linear);
# an integer library always holds its degree-1 terms
BUILDERS = {
    "flow_1d": dictionary_flow_1d, "map_1d": dictionary_map_1d,
    "flow_2d": dictionary_flow_2d, "map_2d": dictionary_map_2d,
    "integer": lambda spec, K, include_linear=True: integer_dictionary(
        spec.p + 2 * spec.q, K, spec),
}


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def prune_near_integer(dictionary, tol):
    """Drop fractional monomials whose exponent ratios collide with integer
    powers already present.

    A monomial is removed iff some slaved ratio it actually uses lies within
    ``tol`` (strictly) of a nonzero integer and the dictionary contains a
    pure-integer monomial of the order it would collide with. Removals are
    kept on the returned dictionary's ``removed`` list. A library is pruned
    once, as its recipe records: one whose metadata already holds a
    prune_tol raises InputError.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and >= 0, got {tol}")
    if "prune_tol" in dictionary.metadata:
        raise InputError(f"library already pruned at tol "
                         f"{dictionary.metadata['prune_tol']}")
    family = dictionary.family
    if tol == 0 or not dictionary.monomials or family == "integer":
        return dictionary
    spec = dictionary.spec
    near = [abs(rho - round(rho)) < tol and round(rho) != 0
            for rho in _slaved_rates(spec, family)]
    terms = list(zip(dictionary.monomials, dictionary.orders))
    integer_orders = {round(o) for m, o in terms if m.is_integer}
    keep, removed = [], []
    for m, o in terms:
        slaved = m.multi_index[spec.p + 2 * spec.q:]
        collide = any(k > 0 and hit for k, hit in zip(slaved, near))
        (removed if collide and round(o) in integer_orders else keep).append(m)
    meta = dict(dictionary.metadata)
    meta["prune_tol"] = tol
    meta["pruned_indices"] = [list(m.multi_index) for m in removed]
    return replace(dictionary, monomials=tuple(keep), removed=tuple(removed),
                   metadata=meta)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def dictionary_from_json(source):
    """Inverse of Dictionary.to_json (JSON text, a path, or the parsed
    dict), rebuilt from the document's recipe: the family's builder on its
    spectrum and truncation with the metadata's include_linear, then
    ``prune_near_integer`` at the metadata's prune_tol if one is recorded.
    A document whose family, truncation, terms or metadata differ from
    what the rebuilt library writes raises InputError, as does a missing
    key or a value of the wrong type; a family the spectrum's master block
    does not give raises WrongShape."""
    doc = source if isinstance(source, dict) else load_json(source)
    what = "dictionary document"
    spec = SpectralPartition.from_dict(member(doc, "spectrum", dict, what))
    family = member(doc, "family", str, what)
    if family not in BUILDERS:
        raise InputError(f"{what}: unknown family {family!r}")
    meta = member(doc, "metadata", dict, what)
    linear = member(meta, "include_linear", bool, f"{what} metadata") \
        if "include_linear" in meta else True
    built = BUILDERS[family](spec, number(doc, "truncation", what), linear)
    if "prune_tol" in meta:
        built = prune_near_integer(
            built, number(meta, "prune_tol", f"{what} metadata"))
    written = built.to_dict()
    for key in ("family", "truncation", "monomials", "metadata"):
        if doc.get(key) != written[key]:
            raise InputError(f"{what}: {key!r} differs from what the "
                             "library rebuilt from its recipe writes")
    return built


# ---------------------------------------------------------------------------
# linear invariant graph families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearGraphCoeffs:
    """Coefficients of the linear-system invariant graph families: one
    complex matrix C laid out as ``SpectralPartition.quotients``, rows kappa
    (channel V, so real) then beta_nu, columns lam then alpha_omega.
    ``C_neg`` optionally holds the p lam columns used at u_j <= 0; when
    None the graph is symmetric (same constant both sides).
    """

    C: tuple
    C_neg: tuple = None

    @staticmethod
    def zeros(spec):
        return LinearGraphCoeffs(C=tuple((0.0,) * (spec.p + spec.q)
                                         for _ in range(spec.r + spec.s)))


def _coefficient_matrix(values, spec, cols, name):
    """A LinearGraphCoeffs matrix as an (r + s, cols) complex array; any
    other shape raises WrongShape, and an imaginary part in the first r
    rows (the real channel V) InputError."""
    rows = spec.r + spec.s
    try:
        c = np.asarray(values, dtype=complex)
    except ValueError as exc:                # ragged rows, or not numbers
        raise WrongShape(f"{name} must be a {rows} x {cols} matrix") from exc
    if c.shape != (rows, cols) and not c.size == rows * cols == 0:
        raise WrongShape(f"{name} must be {rows} x {cols}, got {c.shape}")
    if c[:spec.r].imag.any():
        raise InputError(f"the first {spec.r} rows of {name} must be real")
    return c.reshape(rows, cols)


def linear_graph_eval(spec, coeffs, point):
    """Evaluate (V, E) at master points (u, z).

    u holds p real values and z q complex ones along their last axis; the
    leading axes broadcast, so a single point gives (v in R^r, w in C^s)
    and a stack of points a stack of them. Slaved channel i carries
    c_ij |x_j|^amp[i, j] for each master x_j, with |x_j| <=
    TINY_AMPLITUDE counted as 0 and C_neg's entry where u_j <= 0, times,
    on a slaved pair, the phase e^{i sum_j phase[i, j] log|x_j|}, where
    (amp, phase) = spec.quotients() with the phase shared among the p + q
    masters, so that w turns at the slaved pair's own rate along the
    linear dynamics. Map families need kappa_l > 0. Coefficient entries
    attached to non-positive exponent ratios must be zero; the term is
    skipped either way, matching the constraint that forces them to
    vanish, and so is a term with a zero coefficient. A point or matrix
    of the wrong shape raises WrongShape, and a live term that is not
    finite in double precision (|x_j|^amp[i, j] overflows once the
    quotient is large) raises OutOfDomain, naming its amplitude and
    quotient.
    """
    u, z = point
    u = np.atleast_1d(np.asarray(u, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if u.shape[-1] != spec.p or z.shape[-1] != spec.q:
        raise WrongShape("point shape does not match the partition")
    amp, phase = _quotients(spec)
    lead = np.broadcast_shapes(u.shape[:-1], z.shape[:-1])
    x = np.concatenate([np.broadcast_to(u, lead + u.shape[-1:]),
                        np.broadcast_to(z, lead + z.shape[-1:])], axis=-1)
    r, p, q = spec.r, spec.p, spec.q
    pos = _coefficient_matrix(coeffs.C, spec, p + q, "C")
    neg = pos if coeffs.C_neg is None else np.hstack(
        [_coefficient_matrix(coeffs.C_neg, spec, p, "C_neg"), pos[:, p:]])
    # the z columns of neg are those of pos, so x.real <= 0 picks u_j <= 0
    c = np.where((x.real <= 0)[..., None, :], neg, pos)
    # |x| to within an ulp, which a large quotient amplifies
    ax = np.hypot(x.real, x.imag)
    ax = np.where(ax > TINY_AMPLITUDE, ax, 0.0)[..., None, :]
    live = (amp > 0) & (c != 0)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = c * np.where(live, ax ** np.where(amp > 0, amp, 0.0), 0.0)
    bad = live & ~np.isfinite(terms)
    if bad.any():
        at = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
        raise OutOfDomain(
            f"linear graph term ({at[-2]}, {at[-1]}) is not finite: "
            f"amplitude {np.broadcast_to(ax, bad.shape)[at]:.6g} to the "
            f"quotient {amp[at[-2:]]:.6g} times {c[at]:.6g}")
    theta = (np.log(np.where(ax > 0, ax, 1.0)) * (phase / (p + q))).sum(-1)
    out = terms.sum(axis=-1) * np.exp(1j * theta)
    return out[..., :r].real, out[..., r:]
