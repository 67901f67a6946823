"""Numerical dynamics engine.

Adaptive ODE integration with dense output, stroboscopic sampling, Poincare
maps, Newton fixed-point search on maps, monodromy/Floquet analysis, the
built-in testbed systems, and the Lambert-W exact planar graph used as an
oracle for the heteroclinic example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import lambertw

from .errors import (BadParams, InputError, NoConvergence, NonFinite,
                     NotPeriodic, OutOfDomain, OutOfRange, StepUnderflow,
                     UnknownTestbed)
from .trajectory import Trajectory


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSystem:
    """A (possibly time-periodic) smooth vector field with jacobian."""

    dim: int
    f: object                       # f(t, x) -> dx/dt
    jac: object = None              # jac(t, x) -> (dim, dim); None = FD
    period: float = None            # forcing period for Poincare sections
    name: str = ""
    params: dict = field(default_factory=dict)

    def jacobian(self, t, x, step=1e-6):
        if self.jac is not None:
            return np.asarray(self.jac(t, np.asarray(x, dtype=float)))
        x = np.asarray(x, dtype=float)
        J = np.empty((self.dim, self.dim))
        f0 = np.asarray(self.f(t, x))
        for j in range(self.dim):
            h = step * (1.0 + abs(x[j]))
            xp = x.copy()
            xp[j] += h
            J[:, j] = (np.asarray(self.f(t, xp)) - f0) / h
        return J


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def integrate(sys, ic, t_span, tol=1e-9, t_eval=None, max_step=np.inf):
    """Integrate with the embedded 5(4) Runge-Kutta pair; dense output kept
    on the returned trajectory for stroboscopic resampling."""
    ic = np.asarray(ic, dtype=float)
    if not np.all(np.isfinite(ic)):
        raise NonFinite("non-finite initial condition")
    if not (1e-12 <= tol <= 1e-3):
        raise InputError("tol must lie in [1e-12, 1e-3]")

    saw_bad = [False]

    def f(t, x):
        dx = np.asarray(sys.f(t, x), dtype=float)
        if not np.isfinite(dx).all():
            saw_bad[0] = True
        return dx

    sol = solve_ivp(f, t_span, ic, method="RK45", rtol=tol,
                    atol=tol * 1e-3, dense_output=True, t_eval=t_eval,
                    max_step=max_step)
    if not sol.success:
        if saw_bad[0] or not np.all(np.isfinite(sol.y)):
            raise NonFinite(f"integration produced non-finite values: {sol.message}")
        raise StepUnderflow(sol.message)
    if not np.all(np.isfinite(sol.y)):
        raise NonFinite("integration produced non-finite values")
    return Trajectory(times=sol.t, states=sol.y.T, kind="flow",
                      interpolant=sol.sol)


def sample_as_map(traj, delta):
    """Stroboscopic resampling t = t0 + i*delta via dense output; returns an
    iteration-indexed trajectory."""
    if delta <= 0:
        raise InputError("delta must be positive")
    if traj.interpolant is None:
        raise InputError("trajectory carries no dense output")
    t0, t1 = traj.times[0], traj.times[-1]
    n = int(math.floor((t1 - t0) / delta + 1e-12)) + 1
    if n < 2:
        raise OutOfRange("delta exceeds the trajectory span")
    ts = t0 + delta * np.arange(n)
    states = np.array([traj.interpolant(t) for t in ts])
    return Trajectory(times=np.arange(n, dtype=float), states=states, kind="map")


# ---------------------------------------------------------------------------
# Poincare map and fixed points
# ---------------------------------------------------------------------------

class PoincareMap:
    """Time-T flow map of a (forced) system; composable for iteration."""

    def __init__(self, sys, T=None, tol=1e-10):
        self.sys = sys
        self.T = T if T is not None else sys.period
        if self.T is None:
            raise InputError("system has no period and none was given")
        self.tol = tol

    def __call__(self, x, cycles=1):
        traj = integrate(self.sys, x, (0.0, cycles * self.T), tol=self.tol)
        return traj.states[-1]


def poincare_map(sys, x, T=None, tol=1e-10):
    return PoincareMap(sys, T=T, tol=tol)(x)


@dataclass(frozen=True)
class FixedPointResult:
    location: np.ndarray
    residual_norm: float
    multipliers: np.ndarray
    classification: str
    iterations: int


def _map_jacobian(map_fn, x, fx=None):
    x = np.asarray(x, dtype=float)
    n = len(x)
    if fx is None:
        fx = np.asarray(map_fn(x))
    J = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.asarray(map_fn(xp)) - fx) / h
    return J, fx


def classify_multipliers(mults, kind="map"):
    mults = np.asarray(mults)
    if kind == "map":
        inside = np.abs(mults) < 1.0
    else:
        inside = mults.real < 0.0
    oscillatory = np.any(np.abs(mults.imag) > 1e-10)
    if np.all(inside):
        return "stable spiral" if oscillatory else "stable node"
    if not np.any(inside):
        return "unstable spiral" if oscillatory else "unstable node"
    return "saddle"


def newton_fixed_point(map_fn, guess, tol=1e-10, max_iter=50):
    """Damped Newton iteration for map(x) = x with finite-difference
    jacobians of the map."""
    x = np.asarray(guess, dtype=float)
    fx = np.asarray(map_fn(x))
    res = fx - x
    rnorm = np.linalg.norm(res)
    for it in range(max_iter):
        if rnorm < tol:
            J, _ = _map_jacobian(map_fn, x, fx)
            mults = np.linalg.eigvals(J)
            return FixedPointResult(location=x, residual_norm=float(rnorm),
                                    multipliers=mults,
                                    classification=classify_multipliers(mults),
                                    iterations=it)
        J, fx = _map_jacobian(map_fn, x, fx)
        try:
            delta = np.linalg.solve(J - np.eye(len(x)), -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Newton system") from exc
        # damped line search: halve until the residual actually drops
        lam = 1.0
        for _ in range(25):
            xn = x + lam * delta
            fn = np.asarray(map_fn(xn))
            rn = np.linalg.norm(fn - x - lam * delta)
            if rn < rnorm or lam < 1e-6:
                break
            lam *= 0.5
        x, fx = xn, fn
        res = fx - x
        rnorm = np.linalg.norm(res)
    if rnorm < tol:
        J, _ = _map_jacobian(map_fn, x, fx)
        mults = np.linalg.eigvals(J)
        return FixedPointResult(location=x, residual_norm=float(rnorm),
                                multipliers=mults,
                                classification=classify_multipliers(mults),
                                iterations=max_iter)
    raise NoConvergence(f"Newton stalled at residual {rnorm:.3g}")


# ---------------------------------------------------------------------------
# Floquet / monodromy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetResult:
    multipliers: np.ndarray
    monodromy: np.ndarray
    determinant_check: float      # det(M) / exp(integral of trace)


def floquet(sys, periodic_point, T=None, tol=1e-10, periodicity_tol=1e-6):
    """Monodromy matrix by integrating the variational equation alongside
    the flow; the trace integral is carried too so the Liouville determinant
    identity can be verified exactly on the same mesh."""
    T = T if T is not None else sys.period
    if T is None:
        raise InputError("period required")
    x0 = np.asarray(periodic_point, dtype=float)
    n = sys.dim

    def rhs(t, y):
        x = y[:n]
        Phi = y[n:n + n * n].reshape(n, n)
        J = sys.jacobian(t, x)
        return np.concatenate([np.asarray(sys.f(t, x), dtype=float),
                               (J @ Phi).ravel(),
                               [np.trace(J)]])

    y0 = np.concatenate([x0, np.eye(n).ravel(), [0.0]])
    sol = solve_ivp(rhs, (0.0, T), y0, method="RK45", rtol=tol, atol=tol * 1e-3)
    if not sol.success:
        raise StepUnderflow(sol.message)
    yT = sol.y[:, -1]
    xT = yT[:n]
    gap = np.linalg.norm(xT - x0)
    if gap > periodicity_tol * (1.0 + np.linalg.norm(x0)):
        raise NotPeriodic(f"|phi_T(x) - x| = {gap:.3g}")
    M = yT[n:n + n * n].reshape(n, n)
    trace_integral = yT[-1]
    det_check = float(np.linalg.det(M) / math.exp(trace_integral))
    return FloquetResult(multipliers=np.linalg.eigvals(M), monodromy=M,
                         determinant_check=det_check)


# ---------------------------------------------------------------------------
# testbeds
# ---------------------------------------------------------------------------

def _planar(a, b, c):
    if min(a, b, c) <= 0:
        raise BadParams("planar testbed needs a, b, c > 0")

    def f(t, x):
        return np.array([x[0] * (x[1] - b), c * x[1] * (x[0] - a)])

    def jac(t, x):
        return np.array([[x[1] - b, x[0]],
                         [c * x[1], c * (x[0] - a)]])

    return FlowSystem(dim=2, f=f, jac=jac, name="planar",
                      params={"a": a, "b": b, "c": c})


def _mixed3d(k, a, c):
    if k <= 0:
        raise BadParams("mixed3d testbed needs k > 0")

    def f(t, x):
        x1, x2, x3 = x
        return np.array([x2,
                         x1 - c * x2 - x1 ** 3,
                         -k * x3 + k * a * x1 ** 2 + 2 * a * x1 * x2])

    def jac(t, x):
        x1, x2, _ = x
        return np.array([[0.0, 1.0, 0.0],
                         [1.0 - 3 * x1 ** 2, -c, 0.0],
                         [2 * k * a * x1 + 2 * a * x2, 2 * a * x1, -k]])

    return FlowSystem(dim=3, f=f, jac=jac, name="mixed3d",
                      params={"k": k, "a": a, "c": c})


def shaw_pierre_matrix(m=1.0, c=0.3, k=1.0):
    """Linear part of the two-mass oscillator chain in (q1, p1, q2, p2)."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-2 * k / m, -c / m, k / m, c / m],
        [0.0, 0.0, 0.0, 1.0],
        [k / m, c / m, -2 * k / m, -2 * c / m],
    ])


def _shaw_pierre(m, c, k, gamma, A=0.0, Omega=None):
    if min(m, k, gamma) <= 0 or c < 0 or A < 0:
        raise BadParams("shaw_pierre testbed needs m, k, gamma > 0, c >= 0, A >= 0")
    if A > 0 and (Omega is None or Omega <= 0):
        raise BadParams("forced shaw_pierre needs Omega > 0")
    M = shaw_pierre_matrix(m, c, k)
    period = 2 * math.pi / Omega if (A > 0 and Omega) else None

    def f(t, x):
        dx = M @ x
        forcing = A * math.cos(Omega * t) if A > 0 else 0.0
        dx[1] += forcing - gamma * x[0] ** 3 / m
        return dx

    def jac(t, x):
        J = M.copy()
        J[1, 0] += -3 * gamma * x[0] ** 2 / m
        return J

    return FlowSystem(dim=4, f=f, jac=jac, period=period, name="shaw_pierre",
                      params={"m": m, "c": c, "k": k, "gamma": gamma,
                              "A": A, "Omega": Omega})


def shaw_pierre_energy(state, m, k, gamma):
    """Mechanical energy of the unforced chain (conserved when c = 0)."""
    q1, p1, q2, p2 = state
    V = 0.5 * k * q1 ** 2 + 0.5 * k * (q2 - q1) ** 2 + 0.5 * k * q2 ** 2 \
        + 0.25 * gamma * q1 ** 4
    return 0.5 * m * (p1 ** 2 + p2 ** 2) + V


_TESTBEDS = {
    "planar": (_planar, {"a": 1.0, "b": 1.0, "c": 2.5}),
    "mixed3d": (_mixed3d, {"k": math.sqrt(2) / 2, "a": 0.5, "c": 0.2}),
    "shaw_pierre": (_shaw_pierre, {"m": 1.0, "c": 0.3, "k": 1.0,
                                   "gamma": 0.5, "A": 0.0, "Omega": None}),
}


def testbed(name, params=None):
    """Build a named example system; unspecified parameters fall back to the
    documented defaults."""
    if name not in _TESTBEDS:
        raise UnknownTestbed(f"unknown testbed {name!r}; "
                             f"choose from {sorted(_TESTBEDS)}")
    builder, defaults = _TESTBEDS[name]
    merged = dict(defaults)
    for key, val in (params or {}).items():
        if key not in defaults:
            raise BadParams(f"unknown parameter {key!r} for testbed {name!r}")
        merged[key] = val
    return builder(**merged)


# Newton seeds for the three coexisting periodic orbits of the forced
# oscillator chain at c=0.03, A=0.11, Omega=1.07 (states of the time-T map
# at t=0). Found by long map iteration from spread initial conditions (the
# two sinks) and a Newton scan between them (the saddle); see tests.
FORCED_SEEDS = {
    "low": np.array([-0.46701, 0.10086, -0.54721, 0.08872]),
    "middle": np.array([-0.57471, 0.15806, -0.67395, 0.14444]),
    "high": np.array([0.94319, 0.52507, 1.07091, 0.58659]),
}


# ---------------------------------------------------------------------------
# Lambert W and the exact planar graph
# ---------------------------------------------------------------------------

_BRANCH_POINT = -1.0 / math.e


def lambert_w0(zval):
    """Principal real Lambert branch W0 on [-1/e, inf), from scipy.

    The branch point is special-cased: float(-1/e) lies just below the true
    -1/e, where scipy's branch-point series returns NaN, so arguments at or
    within 1e-14 below it map to W = -1 exactly.
    """
    z = np.asarray(zval, dtype=float)
    if (z < _BRANCH_POINT - 1e-14).any():
        raise OutOfDomain("argument below -1/e")
    w = np.where(z <= _BRANCH_POINT, -1.0, lambertw(z, 0).real)
    resid = np.abs(w * np.exp(w) - z)
    if (resid > 1e-13 * np.maximum(1.0, np.abs(z))).any():
        raise NoConvergence("Lambert W residual above tolerance")
    return float(w) if w.ndim == 0 else w


def planar_saddle_constant(a, b, c):
    """Integration constant selecting the graph through the saddle (a, b):
    the level set y - b log y + C = c x - c a log x that contains it."""
    return b * math.log(b * math.exp(-1.0) * a ** (-c * a / b)) + c * a


def _graph_constant(a, b, c, C):
    if isinstance(C, str):
        if C != "through-saddle":
            raise InputError(f"unknown constant selector {C!r}")
        return planar_saddle_constant(a, b, c)
    return C


def exact_graph_planar(a, b, c, C, x):
    """Closed-form slaved coordinate h(x) of the planar invariant graph
    family; C = "through-saddle" picks the member containing the saddle."""
    C = _graph_constant(a, b, c, C)
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise OutOfDomain("graph evaluated at negative x")
    # x^(ca/b) is 0 at x = 0, since ca/b > 0
    arg = -(1.0 / b) * np.exp(-c * x / b + C / b) * x ** (c * a / b)
    if (arg < _BRANCH_POINT - 1e-12).any():
        raise OutOfDomain("x outside the heteroclinic range (W branch violated)")
    return -b * lambert_w0(np.maximum(arg, _BRANCH_POINT))


def exact_reduced_planar(a, b, c, C="through-saddle"):
    """Exact master-coordinate vector field xdot = x (h(x) - b) on the
    selected invariant graph."""
    C = _graph_constant(a, b, c, C)

    def f(x):
        x = np.asarray(x, dtype=float)
        return x * (exact_graph_planar(a, b, c, C, np.abs(x)) - b)
    return f
