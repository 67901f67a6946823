"""Least-squares identification of invariant-graph and reduced-dynamics
models over a monomial dictionary, prediction with fitted models, error
metrics, and the POD baseline. The DMD baseline is the reduced-map fit over
the degree-1 integer library, whose columns are the states themselves.

All fits, the DMD baseline included, are plain linear least squares on a
design matrix, solved by one routine; a fit over several trajectories
evaluates the dictionary once, over all their samples. Columns are rescaled
to unit RMS before solving (fractional high-order columns are otherwise
tiny). The scaled design is factored in double precision by a row-blocked,
tall-skinny QR: a Householder QR of each block of rows, then one
column-pivoted QR of the blocks' stacked R factors. That gives the condition
number (from R), the solve, a ridge (folded into R) and one step of
iterative refinement. The refinement residual is accumulated in long
double, in the same row blocks and one target channel at a time by einsum
(numpy has no BLAS path for long double, and its einsum loop is faster than
its long-double matmul), so long-double data enters the fit there at full
precision; coefficients are reported in the original scale. The residual
stays in long double because one refinement step with a residual in working
precision gives back no forward accuracy on an ill-conditioned consistent
fit; only the extra precision of the residual does (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 12).

``scipy.linalg``, whose QR, reflector application and triangular solve the
factorization uses, is imported by the solver when it runs, not with the
module, so that ``import ssmfrac`` and the commands that fit nothing load
no scipy: after numpy, ``import scipy.linalg`` takes 0.28-0.36 s
(``python -X importtime``, 2-core host).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, dictionary_from_json
from .errors import (BadFitSettings, BadParams, Diverged, InputError,
                     InsufficientData, LengthMismatch, NonFiniteData,
                     OutOfRadius, RankDeficient, StepTooCoarse)
from .jsonio import dump_json, load_json, member, number, numbers
from .trajectory import Trajectory

RANK_DEFICIENT_COND = 1e12
# rows per block of the factorization and of the refinement residual; a
# complex double block of 70 columns takes 4.6 MB
BLOCK_ROWS = 4096
TRUST_FACTOR = 1.2
DIVERGENCE_NORM = 1e6


# ---------------------------------------------------------------------------
# core solver
# ---------------------------------------------------------------------------

def _long_double_residual(design, targets, x, blocks):
    """targets - design @ x, in the long-double type of x, formed over the
    row slices ``blocks`` one target channel at a time by einsum's
    sum-of-products loop. numpy has no BLAS path for long double; on a
    99,900 x 70 complex design (2-core host) the einsum loop takes
    0.07-0.08 s where the long-double matmul takes 0.13 s, and gives the
    same bits for complex operands. Its real loop adds in another order, so a real residual
    differs from the matmul one by a few ulps of sum_j |a_ij| |x_j|."""
    resid = np.empty(targets.shape, dtype=x.dtype)
    for rows in blocks:
        for c in range(targets.shape[1]):
            resid[rows, c] = targets[rows, c] - np.einsum(
                "ij,j->i", design[rows], x[:, c])
    return resid


def _scaled_lstsq(design, targets, ridge):
    """Column-scaled least squares with optional ridge on the unscaled
    coefficients; returns (coefficients, per-channel RMS residual, cond).

    The scaled design A is factored once, in double precision, by a
    row-blocked (tall-skinny) QR: a Householder QR A_i = Q_i R_i of each
    block of BLOCK_ROWS rows, then one column-pivoted QR of the stacked
    R_i, so that A P = diag(Q_i) Q0 R. cond(A) is taken from R, a ridge is
    folded into R by a small QR of [R; sqrt(ridge) diag(1/scale) P], and the
    solve and one refinement step reuse the factors. The refinement residual
    targets - design (c / scale) is formed in long double, block by block
    and one channel at a time by einsum (``_long_double_residual``), from
    the design and targets as given, so long-double data enters there at
    full precision and consistent ill-conditioned round trips are recovered
    beyond plain double forward accuracy, which a working-precision residual
    would not give. Long-double targets must lie in double range; the design
    is scaled into it.
    """
    design = np.asarray(design)
    targets = np.asarray(targets)
    if targets.ndim == 1:
        targets = targets[:, None]
    n_samp, n_cols = design.shape
    if not (np.isfinite(ridge) and ridge >= 0):
        raise BadFitSettings(f"ridge must be finite and >= 0, got {ridge}")
    if n_cols == 0:
        raise BadFitSettings("the dictionary has no terms; raise the order")
    if n_samp < n_cols:
        raise InsufficientData(
            f"{n_samp} samples for {n_cols} dictionary terms")

    scale = np.sqrt(np.mean(np.abs(design) ** 2, axis=0))
    cplx = np.iscomplexobj(design) or np.iscomplexobj(targets)
    b = np.asarray(targets, dtype=complex if cplx else float)
    # a design column holds NaN or inf exactly when its scale is not finite;
    # the targets are checked in the double precision the solve reads
    if not (np.isfinite(scale).all() and np.isfinite(b).all()):
        raise NonFiniteData("design matrix or targets hold values that are "
                            "NaN or infinite in double precision")
    scale[scale == 0.0] = 1.0
    import scipy.linalg
    # unit-RMS columns put A in double range for long-double data too; each
    # block of A is made once, in Fortran order, and geqrf overwrites it
    # with its reflectors, which the solves then apply. A real reciprocal
    # scales a complex block several times faster than a division.
    inv_scale = 1.0 / scale
    blocks = [slice(lo, lo + BLOCK_ROWS)
              for lo in range(0, n_samp, BLOCK_ROWS)]
    factors, r_factors = [], []
    for rows in blocks:
        a = np.multiply(design[rows], inv_scale, order="F").astype(b.dtype,
                                                                   copy=False)
        (qr, tau), r = scipy.linalg.qr(a, mode="raw", overwrite_a=True,
                                       check_finite=False)
        factors.append((qr[:, :len(tau)], tau))
        r_factors.append(r)
    q0, R, perm = scipy.linalg.qr(np.vstack(r_factors), pivoting=True,
                                  mode="economic", check_finite=False)
    cond = np.linalg.cond(R)
    if ridge == 0.0 and cond > RANK_DEFICIENT_COND:
        raise RankDeficient(
            f"design matrix condition number {cond:.3e} exceeds "
            f"{RANK_DEFICIENT_COND:.0e}")

    ld = np.clongdouble if cplx else np.longdouble
    # penalty acts on the unscaled coefficients c = c_scaled / scale; it
    # joins the double factors, so it is rounded to double
    penalty = (np.sqrt(ridge) * inv_scale).astype(float)
    if ridge > 0.0:
        q_ridge, R = np.linalg.qr(np.vstack([R, np.diag(penalty[perm])]))
    unmqr, = scipy.linalg.get_lapack_funcs(
        ("unmqr" if cplx else "ormqr",), (b,))

    def solve(top, bottom):
        """Scaled c minimizing |A c - top|^2 + |D c - bottom|^2, D the
        ridge penalty. The minimal workspace selects the unblocked
        reflector application, cheaper for a few target channels."""
        y = np.vstack([unmqr("L", "C" if cplx else "T", qr, tau, top[rows],
                             top.shape[1])[0][:len(tau)]
                       for rows, (qr, tau) in zip(blocks, factors)])
        y = q0.conj().T @ y
        if ridge > 0.0:
            y = q_ridge.conj().T @ np.vstack([y, bottom[perm]])
        return scipy.linalg.solve_triangular(
            R, y, check_finite=False)[np.argsort(perm)]

    coeffs = solve(b, np.zeros_like(b[:n_cols]))
    # one step of iterative refinement with the residual accumulated in
    # long double; tightens consistent ill-conditioned round trips
    unscaled = coeffs.astype(ld) / scale[:, None]
    resid = _long_double_residual(design, targets, unscaled, blocks)
    delta = solve(resid.astype(b.dtype), -penalty[:, None] * coeffs)
    if np.all(np.isfinite(delta)):
        coeffs = coeffs + delta
    coeffs = coeffs / scale[:, None]

    resid = targets - design @ coeffs
    rms = np.sqrt(np.mean(np.abs(resid) ** 2, axis=0))
    return coeffs, rms, float(cond)


def _coeffs_to_jsonable(coeffs):
    if np.iscomplexobj(coeffs):
        return [[[float(c.real), float(c.imag)] for c in row] for row in coeffs]
    return [[float(c) for c in row] for row in coeffs]


def _coeffs_from_jsonable(rows, n_terms, what):
    """(n_terms, channels) coefficients from rows of numbers or of [re, im]
    pairs."""
    first = rows[0] if isinstance(rows, list) and rows else None
    if isinstance(first, list) and first and isinstance(first[0], list):
        arr = numbers(rows, what, (n_terms, None, 2))
        return arr[..., 0] + 1j * arr[..., 1]
    return numbers(rows, what, (n_terms, None))


# ---------------------------------------------------------------------------
# graph fits
# ---------------------------------------------------------------------------

@dataclass
class GraphFit:
    """Slaved coordinates regressed on dictionary values of the masters."""

    dictionary: Dictionary
    coefficients: np.ndarray        # (n_monomials, n_slaved_channels)
    residuals: np.ndarray           # per-channel training RMS residual
    condition_number: float
    master_coords: tuple
    slaved_coords: tuple

    def predict_slaved(self, master_states):
        """Slaved coordinates at (n, width) rows of the master columns."""
        d = self.dictionary
        phi = d.evaluate(d.masters(master_states))
        out = phi @ self.coefficients
        return out.real if not np.iscomplexobj(self.coefficients) else out

    def to_json(self, path=None):
        doc = {
            "model": "graph",
            "dictionary": self.dictionary.to_dict(),
            "coefficients": _coeffs_to_jsonable(self.coefficients),
            "diagnostics": {
                "residuals": [float(r) for r in self.residuals],
                "condition_number": self.condition_number,
                "master_coords": list(self.master_coords),
                "slaved_coords": list(self.slaved_coords),
            },
        }
        return dump_json(doc, path)


def _trajectories(data):
    """Training data, one Trajectory or a list of them, as a non-empty
    list."""
    data = [data] if isinstance(data, Trajectory) else list(data)
    if not data:
        raise InputError("no training data")
    return data


def fit_graph(data, dictionary, master_coords, slaved_coords, ridge=0.0):
    """Fit slaved coordinates as a graph over the masters.

    data : Trajectory or list of Trajectory
    master_coords, slaved_coords : disjoint state-column selectors
    """
    master_coords = tuple(master_coords)
    slaved_coords = tuple(slaved_coords)
    if set(master_coords) & set(slaved_coords):
        raise InputError("master and slaved coordinate selectors overlap")
    states = np.vstack([traj.states for traj in _trajectories(data)])
    design = dictionary.evaluate(
        dictionary.masters(states[:, list(master_coords)]))
    targets = states[:, list(slaved_coords)]
    coeffs, rms, cond = _scaled_lstsq(design, targets, ridge)
    return GraphFit(dictionary=dictionary, coefficients=coeffs,
                    residuals=rms, condition_number=cond,
                    master_coords=master_coords, slaved_coords=slaved_coords)


# ---------------------------------------------------------------------------
# reduced-dynamics fits
# ---------------------------------------------------------------------------

@dataclass
class ReducedFit:
    """Reduced dynamics (one-step map or vector field) over a dictionary."""

    dictionary: Dictionary
    coefficients: np.ndarray        # (n_monomials, n_channels)
    kind: str                       # "map" | "flow"
    residuals: np.ndarray
    condition_number: float
    training_amplitude: float       # max |master| seen during training

    def __post_init__(self):
        d = self.dictionary
        if d.family != "integer" and d.spec.kind != self.kind:
            raise InputError(f"a reduced {self.kind} model over a "
                             f"{d.family} library")

    def rhs(self, states):
        """Model value at (n, width) state rows (next sample for a map,
        derivative for a flow), as state rows; a complex channel comes back
        as its real and imaginary parts."""
        d = self.dictionary
        out = d.evaluate(d.masters(states)) @ self.coefficients
        if np.iscomplexobj(out):
            out = np.stack([out.real, out.imag], axis=-1).reshape(len(out), -1)
        return out

    def to_json(self, path=None):
        doc = {
            "model": f"reduced_{self.kind}",
            "dictionary": self.dictionary.to_dict(),
            "coefficients": _coeffs_to_jsonable(self.coefficients),
            "diagnostics": {
                "residuals": [float(r) for r in self.residuals],
                "condition_number": self.condition_number,
                "training_amplitude": self.training_amplitude,
            },
        }
        return dump_json(doc, path)


def model_from_json(source):
    """Load a GraphFit or ReducedFit written by to_json; a document with a
    missing key or a value of the wrong type raises InputError."""
    doc = load_json(source)
    what = "model document"
    model = member(doc, "model", str, what)
    if model not in ("graph", "reduced_map", "reduced_flow"):
        raise InputError(f"{what}: unknown model {model!r}")
    dictionary = dictionary_from_json(member(doc, "dictionary", dict, what))
    coeffs = _coeffs_from_jsonable(member(doc, "coefficients", list, what),
                                   len(dictionary), f"{what} 'coefficients'")
    diag = member(doc, "diagnostics", dict, what)
    what = "model diagnostics"
    residuals = numbers(member(diag, "residuals", list, what),
                        f"{what} 'residuals'", (coeffs.shape[1],))
    condition_number = member(diag, "condition_number", (int, float), what)
    if model == "graph":
        coords = {key: tuple(member(diag, key, list, what))
                  for key in ("master_coords", "slaved_coords")}
        if not all(type(i) is int and i >= 0
                   for i in coords["master_coords"] + coords["slaved_coords"]):
            raise InputError(f"{what}: coordinates must be non-negative "
                             "integers")
        return GraphFit(dictionary=dictionary, coefficients=coeffs,
                        residuals=residuals, condition_number=condition_number,
                        **coords)
    return ReducedFit(dictionary=dictionary, coefficients=coeffs,
                      kind=model.split("_", 1)[1], residuals=residuals,
                      condition_number=condition_number,
                      training_amplitude=number(diag, "training_amplitude",
                                                what))


def fit_reduced_map(series, dictionary, ridge=0.0):
    """Regress the next sample on dictionary values of the current sample."""
    samples, targets = [], []
    amp = 0.0
    for traj in _trajectories(series):
        if len(traj) < 2:
            raise InsufficientData("need at least 2 samples per trajectory")
        vals = dictionary.masters(traj.states)
        samples.append(vals[:-1])
        targets.append(vals[1:].reshape(len(vals) - 1, -1))
        # the last sample enters no design row but bounds the trust region
        amp = max(amp, float(np.max(np.abs(vals))))
    design = dictionary.evaluate(np.concatenate(samples))
    coeffs, rms, cond = _scaled_lstsq(design, np.vstack(targets), ridge)
    return ReducedFit(dictionary=dictionary, coefficients=coeffs, kind="map",
                      residuals=rms, condition_number=cond,
                      training_amplitude=amp)


def _central_differences(values, h):
    """(4th-order, 2nd-order) central-difference derivative estimates at
    the interior samples; drops two samples at each end."""
    v = values
    d4 = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    d2 = (v[3:-1] - v[1:-3]) / (2.0 * h)
    return d4, d2


def fit_reduced_flow(data, dictionary, ridge=0.0):
    """Regress estimated time derivatives on dictionary values.

    Derivatives come from 4th-order central differences on uniformly sampled
    trajectories; the two samples at each end are dropped. The gap between
    the 4th- and 2nd-order estimates gives a step-size error bound; if that
    bound exceeds the training residual the sampling is too coarse to trust.
    """
    samples, targets = [], []
    amp = 0.0
    err2_sq, dot_sq, n_rows = 0.0, 0.0, 0
    for traj in _trajectories(data):
        h = traj.uniform_step
        if h is None:
            raise InputError("flow fits need uniformly sampled trajectories")
        if len(traj) < 5:
            raise InsufficientData("4th-order differences need >= 5 samples")
        vals = dictionary.masters(traj.states)
        d4, d2 = _central_differences(vals, h)
        samples.append(vals[2:-2])
        targets.append(d4.reshape(len(d4), -1))
        amp = max(amp, float(np.max(np.abs(vals))))
        err2_sq += float(np.sum(np.abs(d4 - d2) ** 2))
        dot_sq += float(np.sum(np.abs(d4) ** 2))
        n_rows += len(d4)
    design = dictionary.evaluate(np.concatenate(samples))
    coeffs, rms, cond = _scaled_lstsq(design, np.vstack(targets), ridge)
    # the 2nd-order scheme errs like (wh)^2/6 and the 4th like (wh)^4/30 on
    # a signal of frequency w, so bound4 ~ 1.2 * err2^2 / |udot|
    err2 = np.sqrt(err2_sq / max(n_rows, 1))
    udot = np.sqrt(dot_sq / max(n_rows, 1))
    bound4 = 3.6 * err2 ** 2 / max(udot, 1e-300)
    if bound4 > 0.05 * udot or \
            (bound4 > max(np.max(rms), 1e-300) and bound4 > 1e-3 * udot):
        raise StepTooCoarse(
            f"derivative error bound {bound4:.3e} exceeds training residual "
            f"{float(np.max(rms)):.3e}; refine the sampling step")
    return ReducedFit(dictionary=dictionary, coefficients=coeffs, kind="flow",
                      residuals=rms, condition_number=cond,
                      training_amplitude=amp)


# ---------------------------------------------------------------------------
# prediction and error metrics
# ---------------------------------------------------------------------------

def predict(model, ic, times, tol=1e-9):
    """Iterate (map) or integrate (flow) a fitted reduced model from the
    state row ``ic``; the returned trajectory holds one state row per entry
    of the increasing ``times``, the first being ``ic``.

    A map makes len(times) - 1 iterations. A flow is integrated over
    (times[0], times[-1]) and sampled at ``times`` (``dynamics.integrate``'s
    ``t_eval``), so it needs at least two increasing times. The initial master
    amplitude must lie within 1.2x the training amplitude; the returned
    trajectory carries left_trust_region=True if a later row leaves that
    region.
    """
    masters = model.dictionary.masters
    x0 = np.asarray(ic, dtype=float).reshape(1, -1)
    radius = TRUST_FACTOR * model.training_amplitude
    amp0 = np.max(np.abs(masters(x0)))
    if amp0 > radius:
        raise OutOfRadius(f"initial amplitude {amp0:.3g} outside trust "
                          f"region {radius:.3g}")
    times = np.asarray(times, dtype=float)

    if model.kind == "map":
        rows = [x0]
        for _ in range(len(times) - 1):
            rows.append(model.rhs(rows[-1]))
            if np.linalg.norm(rows[-1]) > DIVERGENCE_NORM:
                raise Diverged("prediction norm exceeded 1e6")
        traj = Trajectory(times=times, states=np.vstack(rows), kind="map")
    else:
        if len(times) < 2 or times[-1] <= times[0]:
            raise InputError("a flow prediction needs at least two "
                             "increasing times")
        from . import dynamics

        sys = dynamics.FlowSystem(dim=x0.shape[1],
                                  f=lambda t, x: model.rhs(x[None])[0],
                                  name="fitted reduced model")
        traj = dynamics.integrate(sys, x0[0], (times[0], times[-1]), tol=tol,
                                  t_eval=times)
        if np.max(np.abs(traj.states)) > DIVERGENCE_NORM:
            raise Diverged("prediction norm exceeded 1e6")
    traj.left_trust_region = bool(
        np.max(np.abs(masters(traj.states))) > radius + 1e-12)
    return traj


def relative_error(true, pred):
    """Per-step |true - pred| / max |true| and its mean over steps."""
    ts = np.asarray(true.states if isinstance(true, Trajectory) else true,
                    dtype=float)
    ps = np.asarray(pred.states if isinstance(pred, Trajectory) else pred,
                    dtype=float)
    if ts.ndim == 1:
        ts = ts[:, None]
    if ps.ndim == 1:
        ps = ps[:, None]
    if ts.shape != ps.shape:
        raise LengthMismatch(
            f"shape mismatch {ts.shape} vs {ps.shape}")
    denom = np.max(np.linalg.norm(ts, axis=1))
    if denom == 0.0:
        denom = 1.0
    per_step = np.linalg.norm(ts - ps, axis=1) / denom
    return per_step, float(np.mean(per_step))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def pod_reduced_model_planar(a, b, c, K):
    """Closed-form 1D quadratic model along the leading data mode of slope K:
    xdot = q2*x^2 + q1*x with q2 = (K + c K^2)/(1 + K^2) and nontrivial fixed
    point x* = (b + c K^2 a)/(K + c K^2)."""
    if K == 0:
        raise BadParams("mode slope K must be nonzero")
    q2 = (K + c * K ** 2) / (1.0 + K ** 2)
    xstar = (b + c * K ** 2 * a) / (K + c * K ** 2)
    q1 = -q2 * xstar
    return {"quadratic": q2, "linear": q1, "fixed_point": xstar}
