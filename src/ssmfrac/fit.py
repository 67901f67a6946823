"""Least-squares identification of invariant-graph and reduced-dynamics
models over a monomial dictionary, prediction with fitted models, error
metrics, and the POD/DMD baselines.

All fits are plain linear least squares on a design matrix of dictionary
values. Columns are rescaled to unit RMS before solving (fractional
high-order columns are otherwise tiny) and the solve uses a column-pivoted
orthogonal factorization; coefficients are reported in the original scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dictionary import Dictionary, dictionary_from_json
from .errors import (BadFitSettings, BadParams, Diverged, InputError,
                     InsufficientData, LengthMismatch, OutOfRadius,
                     RankDeficient, StepTooCoarse)
from .trajectory import Trajectory

RANK_DEFICIENT_COND = 1e12
TRUST_FACTOR = 1.2
DIVERGENCE_NORM = 1e6


# ---------------------------------------------------------------------------
# core solver
# ---------------------------------------------------------------------------

def _mgs_lstsq(A, b):
    """Least squares by modified Gram-Schmidt QR with reorthogonalization.

    Runs in the dtype of its inputs; used for the long-double path where
    LAPACK is unavailable. A must have full column rank.
    """
    n_cols = A.shape[1]
    Q = A.copy()
    R = np.zeros((n_cols, n_cols), dtype=A.dtype)
    for j in range(n_cols):
        for _ in range(2):
            for i in range(j):
                s = np.conj(Q[:, i]) @ Q[:, j]
                R[i, j] += s
                Q[:, j] -= s * Q[:, i]
        R[j, j] = np.sqrt((np.conj(Q[:, j]) @ Q[:, j]).real)
        if R[j, j] == 0.0:
            raise RankDeficient("zero pivot in high-precision factorization")
        Q[:, j] /= R[j, j]
    y = np.conj(Q.T) @ b
    coeffs = np.zeros_like(y)
    for j in range(n_cols - 1, -1, -1):
        coeffs[j] = (y[j] - R[j, j + 1:] @ coeffs[j + 1:]) / R[j, j]
    return coeffs


def _scaled_lstsq(design, targets, ridge):
    """Column-scaled least squares with optional ridge via row augmentation.

    Returns (coefficients, per-channel RMS residual, condition number of the
    scaled design matrix). Long-double inputs are solved entirely in long
    double so that consistent round-trip systems are recovered beyond plain
    double forward accuracy.
    """
    design = np.asarray(design)
    targets = np.asarray(targets)
    if targets.ndim == 1:
        targets = targets[:, None]
    n_samp, n_cols = design.shape
    if ridge < 0:
        raise BadFitSettings(f"ridge must be >= 0, got {ridge}")
    if n_cols == 0:
        raise BadFitSettings("the dictionary has no terms; raise the order")
    if n_samp < n_cols:
        raise InsufficientData(
            f"{n_samp} samples for {n_cols} dictionary terms")
    highprec = design.dtype in (np.longdouble, np.clongdouble) or \
        targets.dtype in (np.longdouble, np.clongdouble)

    scale = np.sqrt(np.mean(np.abs(design) ** 2, axis=0))
    scale[scale == 0.0] = 1.0
    A = design / scale
    A64 = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    cond = np.linalg.cond(A64) if n_cols else 0.0
    if ridge == 0.0 and cond > RANK_DEFICIENT_COND:
        raise RankDeficient(
            f"design matrix condition number {cond:.3e} exceeds "
            f"{RANK_DEFICIENT_COND:.0e}")

    b = targets
    if ridge > 0.0:
        # penalty acts on the unscaled coefficients c = c_scaled / scale
        aug = np.sqrt(ridge) * np.diag(1.0 / scale)
        A = np.vstack([A, aug.astype(A.dtype)])
        b = np.vstack([b, np.zeros((n_cols, b.shape[1]), dtype=b.dtype)])

    if highprec:
        ld = np.clongdouble if (np.iscomplexobj(A) or np.iscomplexobj(b)) \
            else np.longdouble
        coeffs = _mgs_lstsq(A.astype(ld), b.astype(ld))
    else:
        if np.iscomplexobj(A) or np.iscomplexobj(b):
            A = A.astype(complex)
            b = b.astype(complex)
        coeffs, _, _, _ = scipy.linalg.lstsq(A, b, lapack_driver="gelsy")

        # one step of iterative refinement with the residual accumulated in
        # long double; tightens consistent ill-conditioned round trips
        ld = np.clongdouble if np.iscomplexobj(A) else np.longdouble
        resid_ld = b.astype(ld) - A.astype(ld) @ coeffs.astype(ld)
        delta, _, _, _ = scipy.linalg.lstsq(
            A, np.asarray(resid_ld, dtype=A.dtype), lapack_driver="gelsy")
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


def _coeffs_from_jsonable(rows):
    arr = np.asarray(rows, dtype=float)
    if arr.ndim == 3:                       # [re, im] pairs
        return arr[..., 0] + 1j * arr[..., 1]
    return arr


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

    def predict_slaved(self, master_points):
        phi = self.dictionary.evaluate(master_points)
        out = phi @ self.coefficients
        return out.real if not np.iscomplexobj(self.coefficients) else out

    def to_json(self, path=None):
        doc = {
            "model": "graph",
            "dictionary": json.loads(self.dictionary.to_json()),
            "coefficients": _coeffs_to_jsonable(self.coefficients),
            "diagnostics": {
                "residuals": [float(r) for r in self.residuals],
                "condition_number": self.condition_number,
                "master_coords": list(self.master_coords),
                "slaved_coords": list(self.slaved_coords),
            },
        }
        text = json.dumps(doc, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _stack_states(data):
    if isinstance(data, Trajectory):
        data = [data]
    if not data:
        raise InputError("no training data")
    return data, np.vstack([traj.states for traj in data])


def _master_values(dictionary, states, master_coords):
    master_coords = tuple(master_coords)
    if dictionary.family.endswith("2d"):
        if len(master_coords) != 2:
            raise InputError("a 2D dictionary needs two master coordinates "
                             "(real and imaginary parts)")
        return states[:, master_coords[0]] + 1j * states[:, master_coords[1]]
    if dictionary.family.endswith("1d"):
        if len(master_coords) != 1:
            raise InputError("a 1D dictionary needs one master coordinate")
        return states[:, master_coords[0]]
    return states[:, list(master_coords)]


def fit_graph(data, dictionary, master_coords, slaved_coords, ridge=0.0):
    """Fit slaved coordinates as a graph over the masters.

    data : Trajectory or list of Trajectory
    master_coords, slaved_coords : disjoint state-column selectors
    """
    master_coords = tuple(master_coords)
    slaved_coords = tuple(slaved_coords)
    if set(master_coords) & set(slaved_coords):
        raise InputError("master and slaved coordinate selectors overlap")
    _, states = _stack_states(data)
    design = dictionary.evaluate(_master_values(dictionary, states,
                                                master_coords))
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

    def rhs(self, point):
        """Model value (next sample for a map, derivative for a flow)."""
        phi = self.dictionary.evaluate(np.atleast_1d(point))
        out = (phi @ self.coefficients)[0]
        if self.dictionary.family.endswith("2d"):
            return out[0]                       # complex scalar
        if not np.iscomplexobj(out):
            return out if len(out) > 1 else float(out[0])
        return out

    def to_json(self, path=None):
        doc = {
            "model": f"reduced_{self.kind}",
            "dictionary": json.loads(self.dictionary.to_json()),
            "coefficients": _coeffs_to_jsonable(self.coefficients),
            "diagnostics": {
                "residuals": [float(r) for r in self.residuals],
                "condition_number": self.condition_number,
                "training_amplitude": self.training_amplitude,
            },
        }
        text = json.dumps(doc, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def model_from_json(source):
    """Load a GraphFit or ReducedFit written by to_json."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    dictionary = dictionary_from_json(json.dumps(doc["dictionary"]))
    coeffs = _coeffs_from_jsonable(doc["coefficients"])
    diag = doc["diagnostics"]
    if doc["model"] == "graph":
        return GraphFit(dictionary=dictionary, coefficients=coeffs,
                        residuals=np.asarray(diag["residuals"]),
                        condition_number=diag["condition_number"],
                        master_coords=tuple(diag["master_coords"]),
                        slaved_coords=tuple(diag["slaved_coords"]))
    kind = doc["model"].split("_", 1)[1]
    return ReducedFit(dictionary=dictionary, coefficients=coeffs, kind=kind,
                      residuals=np.asarray(diag["residuals"]),
                      condition_number=diag["condition_number"],
                      training_amplitude=diag["training_amplitude"])


def _master_series(dictionary, traj):
    """Per-sample master values of one trajectory as the dictionary reads
    them (real scalar, complex scalar, or row vector)."""
    if dictionary.family.endswith("2d"):
        if traj.dim != 2:
            raise InputError("2D dictionary fit needs 2 state columns "
                             "(Re z, Im z)")
        return traj.states[:, 0] + 1j * traj.states[:, 1]
    if dictionary.family.endswith("1d"):
        if traj.dim != 1:
            raise InputError("1D dictionary fit needs a single state column")
        return traj.states[:, 0]
    return traj.states


def fit_reduced_map(series, dictionary, ridge=0.0):
    """Regress the next sample on dictionary values of the current sample."""
    if isinstance(series, Trajectory):
        series = [series]
    designs, targets = [], []
    amp = 0.0
    for traj in series:
        if len(traj) < 2:
            raise InsufficientData("need at least 2 samples per trajectory")
        vals = _master_series(dictionary, traj)
        designs.append(dictionary.evaluate(vals[:-1]))
        nxt = vals[1:]
        targets.append(nxt[:, None] if nxt.ndim == 1 else nxt)
        amp = max(amp, float(np.max(np.abs(vals))))
    coeffs, rms, cond = _scaled_lstsq(np.vstack(designs), np.vstack(targets),
                                      ridge)
    return ReducedFit(dictionary=dictionary, coefficients=coeffs, kind="map",
                      residuals=rms, condition_number=cond,
                      training_amplitude=amp)


def _central_differences(values, h):
    """4th-order interior derivative estimates plus a Richardson-style error
    bound from the 2nd-order estimates. Drops two samples at each end."""
    v = values
    d4 = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    d2 = (v[3:-1] - v[1:-3]) / (2.0 * h)
    return d4, d2


def fit_reduced_flow(data, dictionary, derivative_scheme="central4",
                     ridge=0.0):
    """Regress estimated time derivatives on dictionary values.

    Derivatives come from 4th-order central differences on uniformly sampled
    trajectories; the two samples at each end are dropped. The gap between
    the 4th- and 2nd-order estimates gives a step-size error bound; if that
    bound exceeds the training residual the sampling is too coarse to trust.
    """
    if derivative_scheme != "central4":
        raise InputError(f"unknown derivative scheme {derivative_scheme!r}")
    if isinstance(data, Trajectory):
        data = [data]
    designs, targets = [], []
    amp = 0.0
    err2_sq, dot_sq, n_rows = 0.0, 0.0, 0
    for traj in data:
        h = traj.uniform_step
        if h is None:
            raise InputError("flow fits need uniformly sampled trajectories")
        if len(traj) < 5:
            raise InsufficientData("4th-order differences need >= 5 samples")
        vals = _master_series(dictionary, traj)
        d4, d2 = _central_differences(vals, h)
        designs.append(dictionary.evaluate(vals[2:-2]))
        targets.append(d4[:, None] if d4.ndim == 1 else d4)
        amp = max(amp, float(np.max(np.abs(vals))))
        err2_sq += float(np.sum(np.abs(d4 - d2) ** 2))
        dot_sq += float(np.sum(np.abs(d4) ** 2))
        n_rows += len(d4)
    coeffs, rms, cond = _scaled_lstsq(np.vstack(designs), np.vstack(targets),
                                      ridge)
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

def _point_to_dict_input(model, ic):
    ic = np.atleast_1d(np.asarray(ic, dtype=float))
    if model.dictionary.family.endswith("2d"):
        if len(ic) != 2:
            raise InputError("2D model initial condition needs (Re z, Im z)")
        return complex(ic[0], ic[1])
    if model.dictionary.family.endswith("1d"):
        if len(ic) != 1:
            raise InputError("1D model initial condition needs one value")
        return float(ic[0])
    return ic


def _to_state_row(value):
    if np.iscomplexobj(np.asarray(value)):
        z = complex(value)
        return np.array([z.real, z.imag])
    return np.atleast_1d(np.asarray(value, dtype=float))


def predict(model, ic, steps_or_tspan, tol=1e-9):
    """Iterate (map) or integrate (flow) a fitted reduced model.

    The initial condition must lie within 1.2x the training amplitude; the
    returned trajectory carries left_trust_region=True if the prediction
    later leaves that region.
    """
    x0 = _point_to_dict_input(model, ic)
    radius = TRUST_FACTOR * model.training_amplitude
    if abs(np.max(np.abs(np.atleast_1d(x0)))) > radius:
        raise OutOfRadius(
            f"initial amplitude {np.max(np.abs(np.atleast_1d(x0))):.3g} "
            f"outside trust region {radius:.3g}")
    left = False

    if model.kind == "map":
        steps = int(steps_or_tspan)
        rows = [_to_state_row(x0)]
        x = x0
        for _ in range(steps):
            x = model.rhs(x)
            row = _to_state_row(x)
            if np.linalg.norm(row) > DIVERGENCE_NORM:
                raise Diverged("prediction norm exceeded 1e6")
            if np.max(np.abs(np.atleast_1d(x))) > radius:
                left = True
            rows.append(row)
        traj = Trajectory(times=np.arange(steps + 1, dtype=float),
                          states=np.array(rows), kind="map")
        traj.left_trust_region = left
        return traj

    from . import dynamics

    def f(t, x):
        val = model.rhs(_point_to_dict_input(model, x))
        return _to_state_row(val)

    dim = len(np.atleast_1d(np.asarray(ic, dtype=float)))
    sys = dynamics.FlowSystem(dim=dim, f=f, name="fitted reduced model")
    traj = dynamics.integrate(sys, np.atleast_1d(ic), steps_or_tspan, tol=tol)
    if np.max(np.abs(traj.states)) > DIVERGENCE_NORM:
        raise Diverged("prediction norm exceeded 1e6")
    traj.left_trust_region = bool(
        np.max(np.abs(traj.states)) > radius + 1e-12)
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

def dmd_fit(snapshots):
    """One-step linear propagator A with x(i+1) = A x(i), least squares."""
    traj = snapshots
    states = traj.states if isinstance(traj, Trajectory) else \
        np.atleast_2d(np.asarray(traj, dtype=float))
    n_samp, n = states.shape
    if n_samp < n + 1:
        raise InsufficientData(f"need at least {n + 1} snapshots, got {n_samp}")
    X, Y = states[:-1], states[1:]
    if np.linalg.cond(X) > RANK_DEFICIENT_COND:
        raise RankDeficient("snapshot matrix is rank deficient")
    A, _, _, _ = np.linalg.lstsq(X, Y, rcond=None)
    return A.T


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
