"""Fractional-power function libraries.

Two layers:

* the linear-system invariant graph families V (real, slaved-real channels)
  and E (complex, slaved-pair channels) with their piecewise-constant
  coefficient splits, evaluated exactly as written;
* truncated monomial dictionaries for single-master graphs and reduced
  dynamics: terms u^{k1} |u|^{rho-weighted} for a real master, and
  z^{k2} zbar^{k3} |z|^{Xi} e^{i Gamma log|z|} for a complex master pair.

Monomial "order" is the homogeneous real degree used for truncation; a term
is admitted when 1 <= order <= K + 1e-9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, InputError, WrongShape
from .spectrum import SpectralPartition

ORDER_SLACK = 1e-9          # order <= K + slack admits, keeps 4.000013 out at K=4
TINY_AMPLITUDE = 1e-300     # below this, positive-exponent monomials evaluate to 0
NEAR_INTEGER_FLAG_TOL = 0.05


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalMonomial:
    """One dictionary term.

    ``k1`` holds the integer power of the real master u (length p<=1 here);
    ``k2``/``k3`` the powers of z and zbar; ``k4`` the slaved-real fractional
    multiplicities; ``k5``/``k6`` the slaved-pair ones. ``amp_exponents``
    stores the fractional |.| exponent per master variable, ``phase_coeff``
    the coefficient of log|.| inside the oscillatory factor.
    """

    k1: tuple = ()
    k2: tuple = ()
    k3: tuple = ()
    k4: tuple = ()
    k5: tuple = ()
    k6: tuple = ()
    amp_exponents: tuple = ()
    phase_coeff: float = 0.0
    order: float = 0.0
    branch: str = "symmetric"
    near_integer: bool = False
    pruned: bool = False

    @property
    def multi_index(self):
        return self.k1 + self.k2 + self.k3 + self.k4 + self.k5 + self.k6

    @property
    def degree(self):
        return sum(self.multi_index)

    @property
    def is_integer(self):
        return not (any(self.k4) or any(self.k5) or any(self.k6))

    # -- evaluation ----------------------------------------------------------

    def eval_real(self, u):
        """Value at real master samples u (1D family)."""
        return _evaluate(_samples(u, False), _compile((self,)))[:, 0]

    def eval_complex(self, z):
        """Value at complex master samples z (2D family)."""
        return _evaluate(_samples(z, True), _compile((self,)))[:, 0]

    def to_dict(self):
        return {
            "multi_index": list(self.multi_index),
            "amp_exponent": list(self.amp_exponents),
            "phase_coeff": self.phase_coeff,
            "order": self.order,
            "branch": self.branch,
            "pruned": self.pruned,
        }


def _canonical_sort(monomials):
    return tuple(sorted(monomials, key=lambda m: (m.order, m.multi_index)))


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

EVAL_BLOCK_ROWS = 4096      # bounds the (samples, terms) temporaries


def _compile(monomials):
    """Exponent arrays, one entry per column: powers k1, k2, k3 of u, z and
    zbar, fractional |.| exponent, phase coefficient of log|.|, and value
    where |.| <= TINY_AMPLITUDE (1 for the constant term); plus the distinct
    |.| exponents and phase coefficients, each with its column map."""
    table = np.array([[(m.k1 or (0,))[0], (m.k2 or (0,))[0],
                       (m.k3 or (0,))[0], (m.amp_exponents or (0.0,))[0],
                       m.phase_coeff] for m in monomials]).reshape(-1, 5)
    k1, k2, k3 = table[:, :3].T.astype(np.int64)
    fracs, frac_col = np.unique(table[:, 3], return_inverse=True)
    phases, phase_col = np.unique(table[:, 4], return_inverse=True)
    return SimpleNamespace(
        k1=k1, k2=k2, k3=k3, frac=table[:, 3], fracs=fracs,
        frac_col=frac_col, phases=phases, phase_col=phase_col,
        kmax=int(max(k2.max(initial=0), k3.max(initial=0))),
        const=np.all(table[:, :4] == 0, axis=1).astype(float),
        positive_only=any(m.branch == "positive_only" for m in monomials))


def _samples(points, complex_):
    """Flat float samples, or complex ones for 2D families, where a real
    (n, 2) array is read as columns (Re z, Im z); long double is kept."""
    x = np.asarray(points)
    if not complex_:
        return np.ravel(x if x.dtype == np.longdouble else x.astype(float))
    if x.ndim == 2 and x.shape[1] == 2 and not np.iscomplexobj(x):
        x = x[:, 0] + 1j * x[:, 1]
    return np.ravel(x if x.dtype == np.clongdouble else x.astype(complex))


def _evaluate(x, ex):
    """Columns at real samples u, sign(u)^{k1} |u|^{k1 + frac}, or at
    complex samples z, z^{k2} zbar^{k3} |z|^{frac} e^{i phase log|z|};
    computed EVAL_BLOCK_ROWS samples at a time."""
    if ex.positive_only and np.any(x < -TINY_AMPLITUDE):
        raise DomainError("positive-only monomial evaluated at negative u")
    out = np.empty((len(x), len(ex.const)), dtype=x.dtype)
    for lo in range(0, len(x), EVAL_BLOCK_ROWS):
        xb, blk = x[lo:lo + EVAL_BLOCK_ROWS], out[lo:lo + EVAL_BLOCK_ROWS]
        amp = np.abs(xb)
        ok = amp > TINY_AMPLITUDE
        amp = np.where(ok, amp, 1.0)[:, None]
        if np.iscomplexobj(xb):
            # z^k by repeated multiplication; conjugated, the zbar^k table
            powers = np.empty((len(xb), ex.kmax + 1), dtype=x.dtype)
            powers[:, 0] = 1.0
            powers[:, 1:] = xb[:, None]
            np.cumprod(powers, axis=1, out=powers)
            np.multiply(powers[:, ex.k2], powers.conj()[:, ex.k3], out=blk)
            blk *= (amp ** ex.fracs)[:, ex.frac_col]
            if ex.phases.any():
                blk *= np.exp(1j * (np.log(amp) * ex.phases))[:, ex.phase_col]
        else:
            np.multiply(np.sign(xb)[:, None] ** ex.k1,
                        amp ** (ex.k1 + ex.frac), out=blk)
        if not ok.all():
            blk[~ok] = ex.const
    return out


# ---------------------------------------------------------------------------
# dictionary container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dictionary:
    monomials: tuple
    spec: SpectralPartition
    truncation: float
    family: str                       # flow_1d | map_1d | flow_2d | map_2d | integer
    removed: tuple = ()               # monomials dropped by pruning
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "monomials", _canonical_sort(self.monomials))
        seen = set()
        for m in self.monomials:
            key = m.multi_index
            if key in seen:
                raise InputError(f"duplicate multi-index {key}")
            seen.add(key)

    def __len__(self):
        return len(self.monomials)

    @property
    def multi_indices(self):
        return [m.multi_index for m in self.monomials]

    @property
    def orders(self):
        return [m.order for m in self.monomials]

    @cached_property
    def _exponents(self):
        return _compile(self.monomials)

    def evaluate(self, points):
        """Monomial values at master samples: (n_samples, n_monomials).

        1D families take real samples; 2D families take complex samples (or
        (n, 2) real arrays read as columns (Re z, Im z)) and return complex
        values.
        """
        return _evaluate(_samples(points, self.family.endswith("2d")),
                         self._exponents)

    def to_json(self, path=None):
        entries = [m.to_dict() for m in self.monomials]
        entries += [replace(m, pruned=True).to_dict() for m in self.removed]
        doc = {
            "family": self.family,
            "truncation": self.truncation,
            "spectrum": self.spec.to_dict(),
            "monomials": entries,
            "metadata": self.metadata,
        }
        text = json.dumps(doc, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def dictionary_from_json(source, rebuild=None):
    """Inverse of Dictionary.to_json; pruned entries go to ``removed``."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    spec = SpectralPartition.from_dict(doc["spectrum"])
    family = doc["family"]
    if family == "integer":
        active = tuple(IntegerMonomial(powers=tuple(e["multi_index"]),
                                       order=e["order"], branch=e["branch"])
                       for e in doc["monomials"] if not e["pruned"])
        return IntegerDictionary(monomials=active, spec=spec,
                                 truncation=doc["truncation"], family="integer",
                                 metadata=doc.get("metadata", {}))
    p, q, r, s = spec.p, spec.q, spec.r, spec.s
    splits = (p, q, q, r, s, s)
    active, removed = [], []
    for e in doc["monomials"]:
        mi = list(e["multi_index"])
        parts, pos = [], 0
        for w in splits:
            parts.append(tuple(mi[pos:pos + w]))
            pos += w
        mono = FractionalMonomial(*parts,
                                  amp_exponents=tuple(e["amp_exponent"]),
                                  phase_coeff=e["phase_coeff"],
                                  order=e["order"], branch=e["branch"],
                                  pruned=bool(e["pruned"]))
        (removed if e["pruned"] else active).append(replace(mono, pruned=False))
    return Dictionary(monomials=tuple(active), spec=spec,
                      truncation=doc["truncation"], family=family,
                      removed=tuple(removed), metadata=doc.get("metadata", {}))


# ---------------------------------------------------------------------------
# ratio helpers
# ---------------------------------------------------------------------------

def _ratios_1d(spec):
    """Fractional exponent per slaved real: kappa_l / lambda_1 (flow) or
    log kappa_l / log |lambda_1| (map)."""
    if spec.p != 1 or spec.q != 0 or spec.s != 0:
        raise WrongShape("1D dictionary needs p=1, q=0, s=0")
    if spec.kind == "flow":
        return [k / spec.lam[0] for k in spec.kappa]
    if any(k <= 0 for k in spec.kappa):
        raise WrongShape("map dictionaries require kappa_l > 0 "
                         "(orientation-preserving slaved directions)")
    denom = math.log(abs(spec.lam[0]))
    return [math.log(k) / denom for k in spec.kappa]


def _ratios_2d(spec):
    """(amplitude exponent, phase rate) per slaved pair for a single complex
    master pair."""
    if spec.p != 0 or spec.q != 1 or spec.r != 0:
        raise WrongShape("2D dictionary needs p=0, q=1, r=0")
    a, w = spec.alpha_omega[0]
    if spec.kind == "flow":
        return [(b / a, nu / a) for b, nu in spec.beta_nu]
    denom = math.log(math.hypot(a, w))
    return [(math.log(math.hypot(b, nu)) / denom,
             math.atan2(nu, b) / denom) for b, nu in spec.beta_nu]


def _enumerate_k4(ratios, budget):
    """All multiplicity vectors over the positive-ratio slaved entries whose
    weighted sum stays within budget; negative-ratio entries are pinned to 0
    (the coefficient-constraint rule)."""
    out = [[]]
    for rho, active in ratios:
        new = []
        for head in out:
            used = sum(h * r for h, (r, a) in zip(head, ratios))
            kmax = int((budget - used + ORDER_SLACK) / rho) if active else 0
            for k in range(kmax + 1):
                new.append(head + [k])
        out = new
    return [tuple(v) for v in out]


# ---------------------------------------------------------------------------
# dictionary generators
# ---------------------------------------------------------------------------

def _library(spec, K, family, include_linear, build, *args):
    """Dictionary of ``family`` with the monomials of build(spec, K,
    include_linear, *args); spec must be of the family's kind."""
    kind = family.split("_")[0]
    if spec.kind != kind:
        raise WrongShape(f"{kind} dictionary on a {spec.kind} spectrum")
    return Dictionary(build(spec, K, include_linear, *args), spec, float(K),
                      family, metadata={"include_linear": include_linear})


def _build_1d(spec, K, include_linear, branch, flag_tol):
    rhos = _ratios_1d(spec)
    weights = [(rho, rho > 0) for rho in rhos]
    monos = []
    for k4 in _enumerate_k4(weights, K):
        frac = sum(k * rho for k, rho in zip(k4, rhos))
        for k1 in range(int(K + ORDER_SLACK) + 1):
            order = k1 + frac
            if order < 1.0 - ORDER_SLACK or order > K + ORDER_SLACK:
                continue
            if k1 == 0 and not any(k4):
                continue
            if not include_linear and k1 == 1 and not any(k4):
                continue  # bare linear master term excluded from graph libraries
            near = any(k > 0 and abs(rho - round(rho)) < flag_tol and round(rho) != 0
                       for k, rho in zip(k4, rhos))
            monos.append(FractionalMonomial(
                k1=(k1,), k4=k4, amp_exponents=(frac,),
                order=order, branch=branch, near_integer=near))
    return tuple(monos)


def dictionary_flow_1d(spec, K, include_linear=True, branch="symmetric",
                       flag_tol=NEAR_INTEGER_FLAG_TOL):
    """Truncated term library u^{k1} |u|^{sum k4_l kappa_l/lambda_1} for a
    flow with one real master direction."""
    return _library(spec, K, "flow_1d", include_linear, _build_1d, branch, flag_tol)


def dictionary_map_1d(spec, K, include_linear=True, branch="positive_only",
                      flag_tol=NEAR_INTEGER_FLAG_TOL):
    """Map analogue with log-ratio exponents log kappa_l / log |lambda_1|."""
    return _library(spec, K, "map_1d", include_linear, _build_1d, branch, flag_tol)


def _build_2d(spec, K, include_linear, flag_tol):
    rates = _ratios_2d(spec)
    weights = [(xi, xi > 0) for xi, _ in rates]
    monos = []
    kmax = int(K + ORDER_SLACK)
    for k5 in _enumerate_k4(weights, K):
        for k6 in _enumerate_k4(weights, K):
            frac = sum((a + b) * xi for a, b, (xi, _) in zip(k5, k6, rates))
            if frac > K + ORDER_SLACK:
                continue
            phase = sum((a - b) * g for a, b, (_, g) in zip(k5, k6, rates))
            for k2 in range(kmax + 1):
                for k3 in range(kmax + 1):
                    order = k2 + k3 + frac
                    if order < 1.0 - ORDER_SLACK or order > K + ORDER_SLACK:
                        continue
                    if k2 == 0 and k3 == 0 and not (any(k5) or any(k6)):
                        continue
                    if (not include_linear and k2 + k3 == 1
                            and not (any(k5) or any(k6))):
                        continue
                    near = any((a + b) > 0 and abs(xi - round(xi)) < flag_tol
                               and round(xi) != 0
                               for a, b, (xi, _) in zip(k5, k6, rates))
                    monos.append(FractionalMonomial(
                        k2=(k2,), k3=(k3,), k5=k5, k6=k6,
                        amp_exponents=(frac,), phase_coeff=phase,
                        order=order, branch="symmetric", near_integer=near))
    return tuple(monos)


def dictionary_flow_2d(spec, K, include_linear=True,
                       flag_tol=NEAR_INTEGER_FLAG_TOL):
    """Library z^{k2} zbar^{k3} |z|^{sum (k5+k6) beta_m/alpha_1}
    e^{i sum (k5-k6) (nu_m/alpha_1) log|z|} for one complex master pair."""
    return _library(spec, K, "flow_2d", include_linear, _build_2d, flag_tol)


def dictionary_map_2d(spec, K, include_linear=True,
                      flag_tol=NEAR_INTEGER_FLAG_TOL):
    """Map analogue using Xi (log-modulus quotients) and Gamma
    (arctan(nu/beta) / log-modulus) exponents."""
    return _library(spec, K, "map_2d", include_linear, _build_2d, flag_tol)


def integer_dictionary(n_vars, K, spec=None, kind="flow"):
    """Plain integer monomial library in n_vars master variables, total
    degree 1..K. Used for multi-master graph fits and integer-only
    comparison models."""
    import itertools
    monos = []
    for total in range(1, int(K) + 1):
        for combo in itertools.product(range(total + 1), repeat=n_vars):
            if sum(combo) == total:
                monos.append(IntegerMonomial(powers=combo, order=float(total)))
    if spec is None:
        spec = SpectralPartition(kind=kind, lam=tuple([-1.0] * n_vars))
    return IntegerDictionary(monomials=tuple(monos), spec=spec,
                             truncation=float(K), family="integer")


@dataclass(frozen=True)
class IntegerMonomial:
    """Integer monomial over several real master variables."""
    powers: tuple
    order: float
    branch: str = "symmetric"
    pruned: bool = False

    @property
    def multi_index(self):
        return self.powers

    @property
    def is_integer(self):
        return True

    def to_dict(self):
        return {"multi_index": list(self.powers), "amp_exponent": [],
                "phase_coeff": 0.0, "order": self.order,
                "branch": self.branch, "pruned": self.pruned}


@dataclass(frozen=True)
class IntegerDictionary(Dictionary):
    @cached_property
    def _exponents(self):
        """(n_monomials, n_vars) integer power matrix."""
        return np.array([m.powers for m in self.monomials], dtype=np.int64)

    def evaluate(self, points):
        """(n_samples, n_monomials) values at (n_samples, n_vars) rows."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        powers = self._exponents
        if powers.size and X.shape[1] != powers.shape[1]:
            X = X.T
        out = np.ones((X.shape[0], len(powers)))
        for j, column in enumerate(powers.T):
            out *= X[:, j, None] ** column
        return out


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def prune_near_integer(dictionary, tol):
    """Drop fractional monomials whose exponent ratios collide with integer
    powers already present.

    A monomial is removed iff some slaved ratio it actually uses lies within
    ``tol`` (strictly) of a nonzero integer and the dictionary contains a
    pure-integer monomial of the order it would collide with. Removals are
    kept on the returned dictionary's ``removed`` list.
    """
    if tol < 0:
        raise InputError("tol must be >= 0")
    if tol == 0 or not dictionary.monomials:
        return dictionary
    spec = dictionary.spec
    if dictionary.family.endswith("1d"):
        used_ratios = {m: [rho for k, rho in zip(m.k4, _ratios_1d(spec)) if k > 0]
                       for m in dictionary.monomials}
    elif dictionary.family.endswith("2d"):
        rates = _ratios_2d(spec)
        used_ratios = {m: [xi for a, b, (xi, _) in zip(m.k5, m.k6, rates)
                           if a + b > 0]
                       for m in dictionary.monomials}
    else:
        return dictionary
    integer_orders = {round(m.order) for m in dictionary.monomials if m.is_integer}
    keep, removed = [], list(dictionary.removed)
    for m in dictionary.monomials:
        collide = any(abs(rho - round(rho)) < tol and round(rho) != 0
                      for rho in used_ratios[m])
        if collide and round(m.order) in integer_orders:
            removed.append(m)
        else:
            keep.append(m)
    meta = dict(dictionary.metadata)
    meta["prune_tol"] = tol
    meta["pruned_indices"] = [list(m.multi_index) for m in removed]
    return replace(dictionary, monomials=tuple(keep), removed=tuple(removed),
                   metadata=meta)


# ---------------------------------------------------------------------------
# linear invariant graph families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearGraphCoeffs:
    """Coefficients of the linear-system invariant graph families.

    K (r x p real), L (r x q real), O (s x p complex), Q (s x q complex).
    ``K_neg``/``O_neg`` optionally hold the branch used at u_j <= 0; when
    None the graph is symmetric (same constant both sides).
    """

    K: tuple = ()
    L: tuple = ()
    O: tuple = ()
    Q: tuple = ()
    K_neg: tuple = None
    O_neg: tuple = None

    @staticmethod
    def zeros(spec):
        z = lambda rows, cols: tuple(tuple(0.0 for _ in range(cols))
                                     for _ in range(rows))
        return LinearGraphCoeffs(K=z(spec.r, spec.p), L=z(spec.r, spec.q),
                                 O=z(spec.s, spec.p), Q=z(spec.s, spec.q))


def _graph_exponents(spec):
    """Exponent/phase tables for the V/E families.

    Returns (kv_u, kv_z, ke_u, ke_z, phase_u, phase_z) where each entry is a
    nested list indexed [channel][master].
    """
    if spec.kind == "flow":
        den_u = list(spec.lam)
        den_z = [a for a, _ in spec.alpha_omega]
        num_v = list(spec.kappa)
        num_e = [b for b, _ in spec.beta_nu]
        num_phase = [nu for _, nu in spec.beta_nu]
    else:
        if any(k <= 0 for k in spec.kappa):
            raise WrongShape("map graph families require kappa_l > 0")
        den_u = [math.log(abs(l)) for l in spec.lam]
        den_z = [math.log(math.hypot(a, w)) for a, w in spec.alpha_omega]
        num_v = [math.log(k) for k in spec.kappa]
        num_e = [math.log(math.hypot(b, nu)) for b, nu in spec.beta_nu]
        num_phase = [math.atan2(nu, b) / (spec.p + spec.q)
                     for b, nu in spec.beta_nu]
    return tuple([[n / d for d in den] for n in num]
                 for num in (num_v, num_e, num_phase)
                 for den in (den_u, den_z))


def linear_graph_eval(spec, coeffs, point):
    """Evaluate (V, E) at a master point (u, z).

    u is a length-p real vector, z a length-q complex vector. Returns
    (v in R^r, w in C^s). Coefficient entries attached to negative exponent
    ratios must be zero; the term is skipped either way, matching the
    constraint that forces them to vanish.
    """
    u, z = point
    u = np.atleast_1d(np.asarray(u, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if len(u) != spec.p or len(z) != spec.q:
        raise InputError("point shape does not match the partition")
    kv_u, kv_z, ke_u, ke_z, phase_u, phase_z = _graph_exponents(spec)

    def pow_abs(x, e):
        ax = abs(x)
        if ax <= TINY_AMPLITUDE:
            if e > 0:
                return 0.0
            raise DomainError("zero amplitude with nonpositive exponent")
        return ax ** e

    def terms(ch, on_u, neg_u, exp_u, on_z, exp_z):
        """c |x|^e for each master x whose coefficient c is nonzero and
        whose exponent e is positive; on_u/neg_u hold u > 0 / u <= 0."""
        pairs = [(neg_u[ch][j] if neg_u is not None and u[j] <= 0
                  else on_u[ch][j], u[j], exp_u[ch][j]) for j in range(spec.p)]
        pairs += [(on_z[ch][k] if on_z else 0.0, z[k], exp_z[ch][k])
                  for k in range(spec.q)]
        return [c * pow_abs(x, e) for c, x, e in pairs if c and e > 0]

    v = np.zeros(spec.r)
    for ell in range(spec.r):
        v[ell] = sum(terms(ell, coeffs.K, coeffs.K_neg, kv_u, coeffs.L, kv_z),
                     0.0)

    w = np.zeros(spec.s, dtype=complex)
    masters = list(u) + list(z)
    for m in range(spec.s):
        active = terms(m, coeffs.O, coeffs.O_neg, ke_u, coeffs.Q, ke_z)
        if active:
            theta = sum((ph * math.log(abs(x)) for ph, x in
                         zip(phase_u[m] + phase_z[m], masters)
                         if abs(x) > TINY_AMPLITUDE), 0.0)
            w[m] = sum(active, 0.0 + 0.0j) * np.exp(1j * theta)
    return v, w
