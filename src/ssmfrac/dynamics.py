"""Numerical dynamics engine.

Adaptive ODE integration (the embedded Runge-Kutta 5(4) pair, RK45)
sampled at the times the caller names, the time-T flow map with its
variational (monodromy) matrix (the 8(5,3) pair, DOP853), which serves both
the Newton fixed-point search on the period map and Floquet analysis, the
built-in testbed systems, and the Lambert-W exact planar graph used as an
oracle for the heteroclinic example.

scipy is imported at first use, not with the module: ``solve_ivp`` from
``scipy.integrate`` at the first integration and ``lambertw`` from
``scipy.special`` at the first Lambert W value (module ``__getattr__``).
Importing ``scipy.integrate`` took 0.67-0.91 s of a 0.89-1.16 s ``import
ssmfrac`` (``python -X importtime``, 2-core host), which every command and
library user paid, ``ssmfrac spectrum`` included, though it integrates
nothing; without it the import takes 0.14-0.25 s. Both names stay module
attributes, bound to scipy's own functions from their first use on, and
every call site reads the attribute at call time, so a caller may replace
either (a test, or a tracer counting evaluations).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadParams, EvaluationBudget, InputError, NoConvergence,
                     NonFinite, NotPeriodic, OutOfDomain, StepUnderflow,
                     UnknownTestbed, WrongShape)
from .trajectory import Trajectory

# the module attributes imported from scipy at first use, by home module
_FROM_SCIPY = {"solve_ivp": "scipy.integrate", "lambertw": "scipy.special"}

# Right-hand-side evaluations one integration may make: over 50 times the
# most that the examples (2,684 in an ``integrate`` of the mixed-mode 3D
# example, 842 in a ``flow_map`` of the forced pass) and the tests (11,504 in
# ``integrate``, the undamped Shaw-Pierre energy test; 842 in ``flow_map``)
# need, so only a stiff or runaway system reaches it.
MAX_RHS_EVALS = 600_000


def __getattr__(name):
    """``solve_ivp`` and ``lambertw``: scipy's function, imported at the
    first access and bound as a module attribute, so that later accesses
    never come here."""
    if name not in _FROM_SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(_FROM_SCIPY[name]), name)
    return value


def _scipy(name):
    """The module attribute ``name`` as it stands at the call."""
    return globals().get(name) or __getattr__(name)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSystem:
    """A (possibly time-periodic) smooth vector field with jacobian."""

    dim: int
    f: object                       # f(t, x) -> dx/dt
    jac: object = None              # jac(t, x) -> (dim, dim); flow_map needs it
    period: float = None            # forcing period, the period map's T
    name: str = ""
    params: dict = field(default_factory=dict)

    def jacobian(self, t, x):
        if self.jac is None:
            raise InputError(f"system {self.name!r} has no jacobian")
        return np.asarray(self.jac(t, np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _check_start(sys, ic, tol):
    ic = np.asarray(ic, dtype=float)
    if not (sys.dim >= 1 and ic.shape == (sys.dim,)):
        raise WrongShape(f"initial condition of shape {ic.shape} for the "
                         f"{sys.dim}-dimensional system {sys.name!r}")
    if not np.all(np.isfinite(ic)):
        raise NonFinite("non-finite initial condition")
    if not (1e-12 <= tol <= 1e-3):
        raise InputError("tol must lie in [1e-12, 1e-3]")
    return ic


def _check_solution(sol, saw_bad):
    """Map a failed or non-finite solve_ivp result to NonFinite (the
    right-hand side went non-finite) or StepUnderflow (it did not)."""
    if not sol.success:
        if saw_bad or not np.all(np.isfinite(sol.y)):
            raise NonFinite(f"integration produced non-finite values: {sol.message}")
        raise StepUnderflow(sol.message)
    if not np.all(np.isfinite(sol.y)):
        raise NonFinite("integration produced non-finite values")


def _solve(rhs, t_span, y0, tol, t_eval=None, method="RK45"):
    """solve_ivp with the embedded Runge-Kutta pair ``method`` (the 5(4)
    pair RK45, or the 8(5,3) pair DOP853 for ``flow_map``) at rtol = tol,
    atol = tol * 1e-3; every integration goes through here. A span end that
    is not finite, or ``t_eval`` not a 1-D array (WrongShape), empty, with
    entries outside the span or not strictly in its direction, raise
    InputError. A failed or non-finite result raises NonFinite or
    StepUnderflow (_check_solution), and more than MAX_RHS_EVALS
    evaluations of rhs raise EvaluationBudget."""
    lo, hi = sorted(t_span)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"integration span {t_span} must be finite")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1:
            raise WrongShape(f"sample times must be a 1-D array, got shape "
                             f"{t_eval.shape}")
        if not (t_eval.size and np.all((lo <= t_eval) & (t_eval <= hi))):
            raise InputError(f"sample times must be given in the span "
                             f"{t_span}")
        if np.any(np.diff(t_eval) * np.sign(t_span[1] - t_span[0]) <= 0):
            raise InputError(f"sample times must run strictly from "
                             f"{t_span[0]} toward {t_span[1]}")
    saw_bad, calls = False, 0

    def f(t, y):
        nonlocal saw_bad, calls
        calls += 1
        if calls > MAX_RHS_EVALS:
            raise EvaluationBudget(f"integration over {t_span} needs more "
                                   f"than {MAX_RHS_EVALS} right-hand-side "
                                   f"evaluations (stopped at t = {t:.6g})")
        dy = np.asarray(rhs(t, y), dtype=float)
        if not np.isfinite(dy).all():
            saw_bad = True
        return dy

    sol = _scipy("solve_ivp")(f, t_span, y0, method=method, t_eval=t_eval,
                              rtol=tol, atol=tol * 1e-3)
    _check_solution(sol, saw_bad)
    return sol


def integrate(sys, ic, t_span, tol=1e-9, t_eval=None):
    """Integrate with the embedded 5(4) Runge-Kutta pair (RK45); the
    trajectory holds the states at ``t_eval``, or at every solver step if
    it is None. A zero-length or reversed span, or an initial condition
    that is not a vector of ``sys.dim`` entries (WrongShape), raises
    InputError before the first evaluation of the vector field."""
    if t_span[1] <= t_span[0]:
        raise InputError(f"integration span {t_span} must run forward in time")
    sol = _solve(sys.f, t_span, _check_start(sys, ic, tol), tol,
                 t_eval=t_eval)
    return Trajectory(times=sol.t, states=sol.y.T, kind="flow")


# ---------------------------------------------------------------------------
# flow map with sensitivities, its period, fixed points, Floquet
# ---------------------------------------------------------------------------

def flow_map(sys, x0, T, tol=1e-10):
    """(x_T, Phi_T, int_0^T tr J): the state, the variational equation
    dPhi/dt = J Phi from Phi_0 = I (so Phi_T is the map's jacobian at x0)
    and the trace of J, integrated together on one mesh of the embedded
    8(5,3) Runge-Kutta pair (DOP853), whose order suits the tight
    tolerances of Newton and Floquet analysis. An ``x0`` that is not a
    vector of ``sys.dim`` entries raises WrongShape before the first
    evaluation."""
    x0 = _check_start(sys, x0, tol)
    n = len(x0)

    def rhs(t, y):                  # y = (x, Phi row by row, int tr J)
        x = y[:n]
        J = sys.jacobian(t, x)
        dy = np.empty_like(y)
        dy[:n] = sys.f(t, x)
        np.matmul(J, y[n:-1].reshape(n, n), out=dy[n:-1].reshape(n, n))
        dy[-1] = J.trace()
        return dy

    yT = _solve(rhs, (0.0, T), np.concatenate([x0, np.eye(n).ravel(), [0.0]]),
                tol, method="DOP853").y[:, -1]
    return yT[:n], yT[n:-1].reshape(n, n), float(yT[-1])


def _period(sys, T):
    """The period of ``sys``'s time-T map: T, or ``sys.period`` when T is
    None. A missing, non-finite or non-positive period raises InputError,
    since the time-0 map fixes every point and a negative one runs the flow
    backward."""
    T = sys.period if T is None else T
    if T is None or not (math.isfinite(T) and T > 0):
        raise InputError(f"the period map needs a finite period T > 0, "
                         f"got {T}")
    return T


@dataclass(frozen=True)
class FloquetResult:
    multipliers: np.ndarray
    monodromy: np.ndarray
    determinant_check: float      # det(M) / exp(integral of trace)


def _floquet_result(M, trace_integral):
    return FloquetResult(
        multipliers=np.linalg.eigvals(M), monodromy=M,
        determinant_check=float(np.linalg.det(M) / math.exp(trace_integral)))


@dataclass(frozen=True)
class FixedPointResult:
    """``floquet``: the monodromy of ``location``, from the integration
    that gave its residual; ``multipliers`` and ``classification`` read it."""

    location: np.ndarray
    residual_norm: float
    floquet: FloquetResult
    iterations: int

    @property
    def multipliers(self):
        return self.floquet.multipliers

    @property
    def classification(self):
        return classify_multipliers(self.floquet.multipliers)


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


def newton_fixed_point(sys, guess, T=None, tol=1e-10, flow_tol=1e-10,
                       max_iter=50):
    """Damped Newton iteration for P(x) = x, P the time-T map of ``sys``
    (T defaults to its period). One ``flow_map`` integration at
    ``flow_tol`` per trial point gives the residual and the exact jacobian
    Phi_T - I; the converged point's Phi_T is returned as its Floquet
    monodromy. tol must be finite and > 0, max_iter an int >= 0; a step
    that 20 halvings leave without a lower residual raises NoConvergence."""
    T = _period(sys, T)
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"Newton tol must be finite and > 0, got {tol}")
    if isinstance(max_iter, bool) or not (
            isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise InputError(f"Newton max_iter must be an int >= 0: {max_iter!r}")
    x = np.asarray(guess, dtype=float)
    fx, Phi, trace_integral = flow_map(sys, x, T, flow_tol)
    rnorm = np.linalg.norm(fx - x)
    for it in range(max_iter + 1):
        if rnorm < tol:
            return FixedPointResult(
                location=x, residual_norm=float(rnorm),
                floquet=_floquet_result(Phi, trace_integral), iterations=it)
        if it == max_iter:
            break
        try:
            delta = np.linalg.solve(Phi - np.eye(len(x)), x - fx)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Newton system") from exc
        # damped line search: halve until the residual actually drops
        for halvings in range(21):
            xn = x + 0.5 ** halvings * delta
            fn, Phin, trn = flow_map(sys, xn, T, flow_tol)
            rn = np.linalg.norm(fn - xn)
            if rn < rnorm:
                break
        else:
            raise NoConvergence(f"Newton stalled at residual {rnorm:.3g}: "
                                f"no decrease along the step down to 2^-20")
        x, fx, Phi, trace_integral, rnorm = xn, fn, Phin, trn, rn
    raise NoConvergence(f"Newton stalled at residual {rnorm:.3g}")


def floquet(sys, periodic_point, T=None, tol=1e-10, periodicity_tol=1e-6):
    """Monodromy Phi_T of ``flow_map`` at a point that returns to itself
    within ``periodicity_tol`` (relative); ``determinant_check`` is
    det(Phi_T) / exp(int tr J), 1 by Liouville's formula."""
    T = _period(sys, T)
    x0 = np.asarray(periodic_point, dtype=float)
    xT, M, trace_integral = flow_map(sys, x0, T, tol)
    gap = np.linalg.norm(xT - x0)
    if gap > periodicity_tol * (1.0 + np.linalg.norm(x0)):
        raise NotPeriodic(f"|phi_T(x) - x| = {gap:.3g}")
    return _floquet_result(M, trace_integral)


# ---------------------------------------------------------------------------
# testbeds
# ---------------------------------------------------------------------------

def _planar(a, b, c):
    _check_planar(a, b, c)

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


def _per_point(kernel, values):
    """Map a float kernel over values: a float for a float or 0-d input, an
    array of the input's shape otherwise."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return kernel(float(arr))
    return np.array([kernel(v) for v in arr.ravel().tolist()],
                    dtype=float).reshape(arr.shape)


def _lambert_w0_at(z):
    if not math.isfinite(z):
        raise OutOfDomain(f"Lambert W argument {z} is not finite")
    if z < _BRANCH_POINT - 1e-14:
        raise OutOfDomain("argument below -1/e")
    if z <= _BRANCH_POINT:
        return -1.0
    w = float(_scipy("lambertw")(z, 0).real)
    try:
        resid = abs(w * math.exp(w) - z)
    except OverflowError:
        resid = math.inf
    if not resid <= 1e-13 * max(1.0, abs(z)):
        raise NoConvergence("Lambert W residual above tolerance")
    return w


def lambert_w0(zval):
    """Principal real Lambert branch W0 on [-1/e, inf), from scipy, one
    point at a time.

    The branch point is special-cased: float(-1/e) lies just below the true
    -1/e, where scipy's branch-point series returns NaN, so arguments at or
    within 1e-14 below it map to W = -1 exactly. A non-finite argument, or
    one further below, raises OutOfDomain; a value whose residual
    |w e^w - z| exceeds 1e-13 max(1, |z|) raises NoConvergence.
    """
    return _per_point(_lambert_w0_at, zval)


def _check_planar(a, b, c):
    """The planar family's parameter rule, shared by its testbed and its
    exact graph."""
    if not all(math.isfinite(v) and v > 0 for v in (a, b, c)):
        raise BadParams("planar system needs finite a, b, c > 0")


def planar_saddle_constant(a, b, c):
    """Integration constant selecting the graph through the saddle (a, b):
    the level set y - b log y + C = c x - c a log x that contains it."""
    _check_planar(a, b, c)
    C = b * (math.log(b) - 1.0) - c * a * math.log(a) + c * a
    if not math.isfinite(C):
        raise BadParams(f"no finite through-saddle constant at a={a}, "
                        f"b={b}, c={c}")
    return C


def _planar_graph(a, b, c, C):
    """The float kernel x -> h(x) of one member of the planar graph family,
    its constants resolved once."""
    _check_planar(a, b, c)
    if isinstance(C, str):
        if C != "through-saddle":
            raise InputError(f"unknown constant selector {C!r}")
        C = planar_saddle_constant(a, b, c)
    elif not math.isfinite(C):
        raise BadParams(f"graph constant C={C} is not finite")
    scale, power, shift = -(1.0 / b), c * a / b, C / b

    def h(x):
        if not math.isfinite(x):
            raise OutOfDomain(f"graph evaluated at non-finite x={x}")
        if x < 0:
            raise OutOfDomain("graph evaluated at negative x")
        # one exp of the summed logs, so that only an argument itself out
        # of float range overflows; x^(ca/b) is 0 at x = 0, since ca/b > 0
        try:
            arg = scale * (math.exp(-c * x / b + shift + power * math.log(x))
                           if x > 0 else 0.0)
        except OverflowError:
            raise OutOfDomain(f"graph argument overflows at x={x}") from None
        if not arg >= _BRANCH_POINT - 1e-12:
            raise OutOfDomain("x outside the heteroclinic range "
                              "(W branch violated)")
        return -b * lambert_w0(max(arg, _BRANCH_POINT))
    return h


def exact_graph_planar(a, b, c, C, x):
    """Closed-form slaved coordinate h(x) of the planar invariant graph
    family; C = "through-saddle" picks the member containing the saddle.
    Evaluated point by point in float arithmetic: a float for a float or
    0-d x, an array of x's shape otherwise."""
    return _per_point(_planar_graph(a, b, c, C), x)


def exact_reduced_planar(a, b, c, C="through-saddle"):
    """Exact master-coordinate vector field xdot = x (h(x) - b) on the
    selected invariant graph, evaluated point by point."""
    h = _planar_graph(a, b, c, C)

    def at(x):
        return x * (h(abs(x)) - b)
    return lambda x: _per_point(at, x)
