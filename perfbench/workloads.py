"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload object makes its inputs from the seed with plain numpy
(``generate_inputs``), runs one pass of the program (``run_pass``) and
checks what the pass produced (``verify``). A pass is a list of operations;
each operation succeeds only if it returns within its deadline and every
check on its output holds. Only the program calls are timed; output-directory
cleanup and the checks run outside the timed region.

Reference values were recorded from the program by ``record_reference.py``
and live in ``reference.json``; the tolerances are stated next to each
check below.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import time

import numpy as np
from scipy.integrate import solve_ivp

# Tolerances for values compared against reference.json.
PRINTED_REL = 2e-6        # numbers the CLI prints with 7 significant digits
PRINTED_ABS = 2e-6        # numbers the CLI prints with 6 decimals
MULTIPLIER_ABS = 3e-6     # complex multipliers printed with 6 decimals
FULL_REL = 1e-6           # full-precision floats (check details, cond)
SERIES_TOL = 1e-9         # series coefficients, relative to max(1, |c|)
PULLBACK_TOL = 1e-10      # pullback samples against the reference series
NF_REL = 1e-8             # normal-form constants

# Exact identities.
LIOUVILLE_TOL = 1e-6      # |prod(mu) - exp(-3cT/m)| / exp(-3cT/m), printed
LIOUVILLE_CSV_TOL = 1e-5  # same product from the 6-decimal multiplier CSV
NEWTON_TOL = 1e-5         # |P(x) - x| at the 6-decimal printed fixed point
CONJUGACY_TOL = 1e-8      # conjugacy residual of the order-7 linearization
FIT_RESIDUAL_TOL = 1e-12  # RMS residual of a noise-free fit in the span
FIT_COEFF_TOL = 1e-8      # fitted minus generating coefficients
SPECTRUM_TOL = 1e-12      # partitioned eigenvalues minus generated ones

# Deadlines, enforced from outside the program with SIGALRM. The normal-form
# deadline is about 2.5x what the order-6 model needs on a 2-core machine.
CLI_DEADLINE = 60.0
CHAIN_DEADLINE = 60.0
NORMALFORM_DEADLINE = 1.0


class DeadlineMiss(Exception):
    """An operation did not return before its deadline."""


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise DeadlineMiss(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Op:
    """Outcome of one operation of a pass."""

    def __init__(self, name):
        self.name = name
        self.error = None            # raised exception or deadline miss
        self.problems = []           # failed checks

    @property
    def ok(self):
        return self.error is None and not self.problems


def _call(op, seconds, fn, *args):
    """Run fn under a deadline, recording an exception on op."""
    try:
        with deadline(seconds):
            return fn(*args)
    except DeadlineMiss as exc:
        op.error = f"deadline: {exc}"
    except Exception as exc:  # noqa: BLE001 - any raise fails the operation
        op.error = f"{type(exc).__name__}: {exc}"
    return None


def _cli(argv):
    """ssmfrac.cli.main in process, its console output captured."""
    from ssmfrac import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _close(a, b, rel=0.0, abs_=0.0):
    return abs(a - b) <= abs_ + rel * abs(b)


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


def _read_outputs(ops, reader, *args):
    """reader(*args), or None with every op failed if outputs are missing
    or malformed."""
    try:
        return reader(*args)
    except (OSError, ValueError, KeyError) as exc:
        for op in ops:
            op.problems.append(f"outputs unreadable: {exc}")
        return None


def _monomials_2d(xi, phase_rate, order):
    """(k2, k3, k5, k6, frac, phase, order) of every 2D dictionary monomial
    up to order with one slaved pair, written out from the rule the
    flow_2d and map_2d dictionaries document: z^k2 zbar^k3 |z|^frac
    e^{i phase log|z|}, frac = (k5 + k6) xi, phase = (k5 - k6) phase_rate,
    1 <= order <= K."""
    out = []
    kmax = int(order)
    for k5 in range(kmax + 1):
        for k6 in range(kmax + 1):
            frac = (k5 + k6) * xi
            if frac > order + 1e-9:
                continue
            for k2 in range(kmax + 1):
                for k3 in range(kmax + 1):
                    total = k2 + k3 + frac
                    if total < 1.0 - 1e-9 or total > order + 1e-9:
                        continue
                    if k2 == k3 == k5 == k6 == 0:
                        continue
                    out.append((k2, k3, k5, k6, frac,
                                (k5 - k6) * phase_rate, total))
    return out


class Workload:
    """Base class: a working directory, a seed and the stored references."""

    def __init__(self, work_dir, seed, reference):
        self.work_dir = work_dir
        self.seed = seed
        self.reference = reference[self.name]
        self.out_dir = os.path.join(work_dir, "out")
        self._verdicts = {}

    def generate_inputs(self):
        """Make this seed's inputs; may be called more than once."""

    def reference_note(self):
        return "recorded"

    def known_failure(self, op):
        """Whether a failed op is a documented defect of the program."""
        return False

    def run_pass(self, traced=contextlib.nullcontext):
        """One pass: (seconds spent in program calls, list of Op)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        with traced():
            start = time.perf_counter()
            ops, produced = self._run()
            elapsed = time.perf_counter() - start
        self.last_produced = produced
        # the program is deterministic, so identical outputs are checked once
        key = hashlib.sha256(json.dumps(produced, sort_keys=True,
                                        default=repr).encode()).hexdigest()
        if key not in self._verdicts:
            self._verdicts[key] = self.verify(produced)
        for op in ops:
            op.problems.extend(self._verdicts[key].get(op.name, ()))
        return elapsed, ops


# ---------------------------------------------------------------------------
# reproduce planar
# ---------------------------------------------------------------------------

class ReproducePlanar(Workload):
    """``ssmfrac reproduce planar``: scalar fit-and-predict path."""

    name = "reproduce_planar"
    ics = ("0.3", "0.45", "0.6", "0.75", "0.9")

    def reference_note(self):
        return "recorded; inputs are fixed inside the CLI, the seed does " \
               "not change them"

    def _run(self):
        ops = [Op("fit")] + [Op(f"predict_ic_{ic}") for ic in self.ics]
        result = _call(ops[0], CLI_DEADLINE, _cli,
                       ["reproduce", "planar", "--outdir", self.out_dir])
        if result is None:
            for op in ops[1:]:
                op.error = "reproduce did not complete"
            return ops, None
        return ops, _read_outputs(ops, self.read_outputs, result[0])

    def read_outputs(self, code):
        out = {"exit_code": code}
        out["checks"] = _read_json(self.out_dir, "checks.json")
        out["error_table"] = _read_csv_rows(
            os.path.join(self.out_dir, "error_table.csv"))
        return out

    def verify(self, produced):
        if produced is None:
            return {}
        ref = self.reference
        problems = {"fit": []}
        fit = problems["fit"]
        if produced["exit_code"] != 0:
            fit.append(f"exit code {produced['exit_code']}, expected 0")
        checks = {c["name"]: c for c in produced["checks"]}
        for want in ref["checks"]:
            got = checks.get(want["name"])
            if got is None or got["passed"] != want["passed"]:
                fit.append(f"check {want['name']!r} verdict changed")
                continue
            for key, val in want["detail"].items():
                if not _close(got["detail"].get(key, math.nan), val,
                              rel=FULL_REL):
                    fit.append(f"check {want['name']!r} detail {key} "
                               f"{got['detail'].get(key)} != {val}")
        rows = {r["ic"]: r for r in produced["error_table"]}
        for want in ref["error_table"]:
            name = f"predict_ic_{want['ic']}"
            got = rows.get(want["ic"])
            found = problems.setdefault(name, [])
            if got is None:
                found.append("row missing from error_table.csv")
                continue
            for col in ("fractional", "integer", "dmd", "pod"):
                if not _close(float(got[col]), float(want[col]),
                              rel=PRINTED_REL):
                    found.append(f"{col} error {got[col]} != {want[col]}")
            if not float(got["fractional"]) <= float(got["integer"]):
                found.append("fractional error above integer error")
        return problems


# ---------------------------------------------------------------------------
# reproduce shaw_pierre_forced
# ---------------------------------------------------------------------------

FORCED_C, FORCED_M, FORCED_K, FORCED_GAMMA = 0.03, 1.0, 1.0, 0.5
FORCED_A, FORCED_OMEGA = 0.11, 1.07
# Criterion 6 compares the saddle multipliers against published values that
# violate the Liouville identity; the check fails by design and the CLI
# exits 1. That exact outcome is asserted, the check is not dropped.
SADDLE_CHECK = "saddle multipliers match reference values to 2e-2"
LIOUVILLE_CHECK = "Liouville product identity to 1e-6"


def _forced_period_map(x0):
    """Time-T map of the forced oscillator chain, written out here with
    scipy so that the Newton residual is checked independently."""
    m, c, k, g = FORCED_M, FORCED_C, FORCED_K, FORCED_GAMMA
    A = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-2 * k / m, -c / m, k / m, c / m],
                  [0.0, 0.0, 0.0, 1.0],
                  [k / m, c / m, -2 * k / m, -2 * c / m]])

    def rhs(t, x):
        dx = A @ x
        dx[1] += FORCED_A * math.cos(FORCED_OMEGA * t) - g * x[0] ** 3 / m
        return dx

    T = 2.0 * math.pi / FORCED_OMEGA
    sol = solve_ivp(rhs, (0.0, T), x0, method="DOP853", rtol=1e-12,
                    atol=1e-14)
    return sol.y[:, -1]


class ReproduceForced(Workload):
    """``ssmfrac reproduce shaw_pierre_forced``: Poincare map, Newton and
    Floquet; no dictionary, fit or normal-form work."""

    name = "reproduce_forced"
    orbits = ("high", "low", "middle")

    def reference_note(self):
        return "recorded; inputs are fixed inside the CLI, the seed does " \
               "not change them"

    def _run(self):
        ops = [Op(f"orbit_{label}") for label in self.orbits]
        result = _call(ops[0], CLI_DEADLINE, _cli,
                       ["reproduce", "shaw_pierre_forced", "--outdir",
                        self.out_dir])
        if result is None:
            for op in ops[1:]:
                op.error = ops[0].error
            return ops, None
        return ops, _read_outputs(ops, self.read_outputs, result[0])

    def read_outputs(self, code):
        out = {"exit_code": code}
        out["checks"] = _read_json(self.out_dir, "checks.json")
        out["fixed_points"] = _read_csv_rows(
            os.path.join(self.out_dir, "fixed_points.csv"))
        out["multipliers"] = _read_csv_rows(
            os.path.join(self.out_dir, "floquet_multipliers.csv"))
        return out

    def verify(self, produced):
        if produced is None:
            return {}
        ref = self.reference
        common = []
        if produced["exit_code"] != 1:
            common.append(f"exit code {produced['exit_code']}, expected 1 "
                          "(criterion 6 saddle check)")
        failing = [c["name"] for c in produced["checks"] if not c["passed"]]
        if failing != [SADDLE_CHECK]:
            common.append(f"failing checks {failing}, expected exactly "
                          f"[{SADDLE_CHECK!r}]")
        checks = {c["name"]: c for c in produced["checks"]}
        saddle = checks.get(SADDLE_CHECK, {}).get("detail", {})
        want = {c["name"]: c for c in ref["checks"]}[SADDLE_CHECK]["detail"]
        if not _close(saddle.get("max_error", math.nan), want["max_error"],
                      rel=FULL_REL):
            common.append(f"saddle multiplier error "
                          f"{saddle.get('max_error')} != {want['max_error']}")
        liouville = checks.get(LIOUVILLE_CHECK, {}).get("detail", {})
        if not liouville.get("worst_relative_error", math.inf) <= \
                LIOUVILLE_TOL:
            common.append("Liouville product error above 1e-6")

        T = 2.0 * math.pi / FORCED_OMEGA
        det = math.exp(-3.0 * FORCED_C * T / FORCED_M)
        points = {r["orbit"]: r for r in produced["fixed_points"]}
        ref_points = {r["orbit"]: r for r in ref["fixed_points"]}
        problems = {}
        for label in self.orbits:
            found = problems.setdefault(f"orbit_{label}", list(common))
            got, want = points.get(label), ref_points[label]
            if got is None:
                found.append("fixed point missing")
                continue
            x = np.array([float(got[c]) for c in ("q1", "p1", "q2", "p2")])
            for col in ("q1", "p1", "q2", "p2"):
                if not _close(float(got[col]), float(want[col]),
                              abs_=PRINTED_ABS):
                    found.append(f"{col} {got[col]} != {want[col]}")
            if got["classification"] != want["classification"]:
                found.append(f"classification {got['classification']}")
            resid = float(np.linalg.norm(_forced_period_map(x) - x))
            if not resid <= NEWTON_TOL:
                found.append(f"Newton residual {resid:.2e} above "
                             f"{NEWTON_TOL:g}")
            mults = [complex(float(r["re"]), float(r["im"]))
                     for r in produced["multipliers"] if r["orbit"] == label]
            ref_mults = [complex(float(r["re"]), float(r["im"]))
                         for r in ref["multipliers"] if r["orbit"] == label]
            if len(mults) != len(ref_mults) or any(
                    abs(a - b) > MULTIPLIER_ABS
                    for a, b in zip(mults, ref_mults)):
                found.append("Floquet multipliers differ from reference")
            prod = abs(np.prod(mults)) if mults else 0.0
            if not abs(prod - det) / det <= LIOUVILLE_CSV_TOL:
                found.append(f"multiplier product {prod:.7f} vs {det:.7f}")
        return problems


# ---------------------------------------------------------------------------
# series: linearization, inverse series, pullback, extended normal forms
# ---------------------------------------------------------------------------

SERIES_ORDER = 7
GRID_POINTS = 24
NF_GAMMA = complex(-1.0, 2.0)
NF_RATIO = 1.3                               # beta1 / alpha1
NF_PHASE_RATE = -NF_GAMMA.real / NF_GAMMA.real   # nu1 / alpha1
# removable terms seeded in the order-6 model, as in acceptance criterion 11
NF_REMOVABLE = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (3, 0, 0, 0),
                (0, 0, 2, 0))
R_GRID = np.linspace(0.05, 0.4, 7)


def _series_key(m):
    return ",".join(map(str, m))


def _eval_series(series, points):
    """y + sum_m G_m y^m for a {key: (n,) complex} series, plain numpy."""
    out = points.copy()
    for key, vec in series.items():
        powers = [int(p) for p in key.split(",")]
        mono = np.prod(points ** np.array(powers), axis=1)
        out = out + mono[:, None] * vec[None, :]
    return out


def _flow2d_keys(order):
    """(k2, k3, k5, k6) of every flow_2d monomial of the normal-form
    models up to order."""
    return [t[:4] for t in _monomials_2d(NF_RATIO, NF_PHASE_RATE, order)]


def _polar(nf, quad, lead, first, plain, second):
    """Polar normal-form curve on R_GRID from the constants in nf (a dict),
    written out independently of normalform.backbone/damping."""
    theta = 2.0 * (nf["Q"] + nf["phase_exponent"] * np.log(R_GRID))
    ratio = nf["ratio"]
    return (nf[lead] + nf[quad] * R_GRID ** 2
            + nf[first] * R_GRID ** ratio * np.sin(theta)
            + nf[plain] * R_GRID ** (2.0 * ratio)
            + nf[second] * R_GRID ** (2.0 * ratio) * np.sin(theta))


class Series(Workload):
    """Library calls on the order-7 oscillator chain (criterion 9) and two
    extended 2D normal forms."""

    name = "series"
    nf_fields = ("A", "B", "P1", "P2", "P3", "Q", "R1", "R2", "R3")

    def known_failure(self, op):
        # At the source commit extended_normalform_2d never returns on a
        # dense order-3 model: sweeps at order 1.3 re-create the same
        # non-resonant terms with |c| just above COEFF_DROP (see NOTES.md).
        return op.name == "normalform_dense_order3" and not op.problems \
            and (op.error or "").startswith("deadline")

    def reference_note(self):
        if str(self.seed) in self.reference["normalform"]:
            return "recorded"
        return "inverse series recorded; normal-form constants for this " \
               "seed not recorded, identity checks only"

    def generate_inputs(self):
        rng = np.random.default_rng(self.seed)
        amps = np.exp(rng.uniform(math.log(0.02), math.log(0.3),
                                  GRID_POINTS))
        self.grid_z = amps * np.exp(1j * rng.uniform(0.0, 2 * math.pi,
                                                     GRID_POINTS))
        keys6 = _flow2d_keys(6)
        c6 = {}
        for k in keys6:
            if k[0] == k[1] + 1 and k != (1, 0, 0, 0):
                c6[k] = 0.1 * complex(rng.normal(), rng.normal())
        for k in NF_REMOVABLE:
            c6[k] = 0.1 * complex(rng.normal(), rng.normal())
        c6[(1, 0, 0, 0)] = NF_GAMMA
        self.coeffs6 = c6
        # what a fit returns: every coefficient of the order-3 model nonzero
        keys3 = _flow2d_keys(3)
        c3 = {k: 0.1 * complex(rng.normal(), rng.normal()) for k in keys3}
        c3[(1, 0, 0, 0)] = NF_GAMMA
        self.coeffs3 = c3
        self._models = None

    def _build_models(self):
        """Program objects for the generated inputs (built once; not
        timed)."""
        from ssmfrac import dictionary, dynamics, fit, spectrum

        A = dynamics.shaw_pierre_matrix()
        self.A = A
        self.terms = {(3, 0, 0, 0): np.array([0.0, -0.5, 0.0, 0.0])}
        self.part = spectrum.partition_spectrum(A, spectrum.slowest(2),
                                                kind="flow")
        self.graph = dictionary.LinearGraphCoeffs.zeros(self.part)
        self.grid = [(np.array([]), np.array([z])) for z in self.grid_z]
        self.nf_spec = spectrum.SpectralPartition(
            kind="flow", alpha_omega=((NF_GAMMA.real, NF_GAMMA.imag),),
            beta_nu=((NF_RATIO * NF_GAMMA.real,
                      NF_PHASE_RATE * NF_GAMMA.real),))
        models = []
        for order, coeffs in ((6, self.coeffs6), (3, self.coeffs3)):
            d = dictionary.dictionary_flow_2d(self.nf_spec, order)
            keys = [(m.k2[0], m.k3[0], m.k5[0], m.k6[0]) for m in d.monomials]
            if sorted(keys) != sorted(_flow2d_keys(order)):
                raise RuntimeError(f"order-{order} flow_2d dictionary has "
                                   "unexpected monomials")
            vec = np.array([coeffs.get(k, 0.0) for k in keys],
                           dtype=complex)
            models.append(fit.ReducedFit(
                dictionary=d, coefficients=vec[:, None], kind="flow",
                residuals=np.zeros(1), condition_number=1.0,
                training_amplitude=1.0))
        self._models = models

    def _chain(self):
        from ssmfrac import normalform

        ps, _ = normalform.PolySystem.from_real_system(
            self.A, self.terms, K=SERIES_ORDER)
        transform = normalform.linearize(ps, SERIES_ORDER)
        resid = normalform.conjugacy_residual(transform, ps)
        inverse = transform.inverse_coefficients()
        samples = normalform.pullback_graph(transform, self.part, self.graph,
                                            self.grid)
        return resid, inverse, samples

    def _normalform(self, model):
        from ssmfrac import normalform

        nf = normalform.extended_normalform_2d(model, self.nf_spec)
        return nf, normalform.backbone(nf, R_GRID), \
            normalform.damping(nf, R_GRID)

    def run_pass(self, traced=contextlib.nullcontext):
        if self._models is None:
            self._build_models()
        return super().run_pass(traced)

    def _run(self):
        ops = [Op("chain"), Op("normalform_order6"),
               Op("normalform_dense_order3")]
        chain = _call(ops[0], CHAIN_DEADLINE, self._chain)
        nf6 = _call(ops[1], NORMALFORM_DEADLINE, self._normalform,
                    self._models[0])
        nf3 = _call(ops[2], NORMALFORM_DEADLINE, self._normalform,
                    self._models[1])
        produced = {}
        if chain is not None:
            resid, inverse, samples = chain
            produced["chain"] = {
                "residual": float(resid),
                "inverse": {_series_key(m): [[v.real, v.imag] for v in vec]
                            for m, vec in inverse.items()},
                "pullback": [[v.real, v.imag] for v in np.ravel(samples)],
            }
        for label, result in (("normalform_order6", nf6),
                              ("normalform_dense_order3", nf3)):
            if result is not None:
                nf, bb, dp = result
                produced[label] = {
                    **{f: getattr(nf, f) for f in self.nf_fields},
                    "omega1": nf.omega1, "alpha1": nf.alpha1,
                    "ratio": nf.ratio, "phase_exponent": nf.phase_exponent,
                    "resonant_terms": nf.resonant_terms,
                    "backbone": list(bb), "damping": list(dp),
                }
        return ops, produced

    def verify(self, produced):
        problems = {}
        if "chain" in produced:
            problems["chain"] = self._verify_chain(produced["chain"])
        for label in ("normalform_order6", "normalform_dense_order3"):
            if label in produced:
                problems[label] = self._verify_nf(label, produced[label])
        return problems

    def _verify_chain(self, got):
        found = []
        if not got["residual"] <= CONJUGACY_TOL:
            found.append(f"conjugacy residual {got['residual']:.2e}")
        ref = {k: np.array([complex(*v) for v in vec])
               for k, vec in self.reference["inverse"].items()}
        inv = {k: np.array([complex(*v) for v in vec])
               for k, vec in got["inverse"].items()}
        for k in set(ref) | set(inv):
            a, b = inv.get(k, np.zeros(4)), ref.get(k, np.zeros(4))
            if np.max(np.abs(a - b)) > SERIES_TOL * max(1.0,
                                                       np.max(np.abs(b))):
                found.append(f"inverse coefficient {k} differs")
                break
        y = np.zeros((GRID_POINTS, 4), dtype=complex)
        y[:, 0], y[:, 1] = self.grid_z, np.conj(self.grid_z)
        want = _eval_series(ref, y)
        flat = np.array([complex(*v) for v in got["pullback"]])
        if flat.shape != (GRID_POINTS * 4,):
            found.append(f"pullback shape {flat.shape}")
        elif np.max(np.abs(flat.reshape(GRID_POINTS, 4) - want)) > \
                PULLBACK_TOL:
            found.append("pullback samples differ from the reference series")
        return found

    def _verify_nf(self, label, got):
        found = []
        for term in got["resonant_terms"]:
            a, b = complex(*term["a"]), complex(*term["b"])
            if abs((a - b).real - 1.0) > 1e-9:
                found.append(f"non-resonant survivor a={a}, b={b}")
                break
        bb = _polar(got, "B", "omega1", "R1", "R2", "R3")
        dp = _polar(got, "A", "alpha1", "P1", "P2", "P3")
        if np.max(np.abs(bb - got["backbone"])) > 1e-12 or \
                np.max(np.abs(dp - got["damping"])) > 1e-12:
            found.append("backbone/damping disagree with the constants")
        if label == "normalform_order6":
            kept = {(round(t["a"][0], 6), round(t["a"][1], 6),
                     round(t["b"][0], 6), round(t["b"][1], 6))
                    for t in got["resonant_terms"]}
            for (k2, k3, k5, k6) in self.coeffs6:
                if k2 != k3 + 1:
                    continue
                frac = (k5 + k6) * NF_RATIO
                phase = (k5 - k6) * NF_PHASE_RATE
                key = (round(k2 + frac / 2, 6), round(phase / 2, 6),
                       round(k3 + frac / 2, 6), round(phase / 2, 6))
                if key not in kept:
                    found.append(f"seeded resonant term {key} dropped")
                    break
            want = self.reference["normalform"].get(str(self.seed))
            if want is not None:
                for f in self.nf_fields:
                    if not _close(got[f], want[f], rel=NF_REL, abs_=1e-12):
                        found.append(f"constant {f} {got[f]} != {want[f]}")
                if len(got["resonant_terms"]) != want["resonant_terms"]:
                    found.append("number of resonant terms changed")
        return found


# ---------------------------------------------------------------------------
# fit_bulk: spectrum from a matrix CSV, then an order-5 map_2d fit
# ---------------------------------------------------------------------------

N_TRAJ, N_SAMPLES = 100, 1000
MASTER_MODULUS, MASTER_ANGLE = 0.993, 0.7
RATE_RATIO, SLAVED_ANGLE = 1.3, 1.9
FIT_ORDER = 5
NONLINEAR_ORDER = 3.0       # generating model: every term of order <= 3
COEFF_SCALE = 0.02


class FitBulk(Workload):
    """``ssmfrac spectrum --kind map`` then ``ssmfrac fit`` on 100 x 1000
    samples: bulk dictionary evaluation and the least-squares solve."""

    name = "fit_bulk"

    def reference_note(self):
        if str(self.seed) in self.reference:
            return "recorded; coefficients checked against the generating " \
                   "model"
        return "condition number for this seed not recorded; coefficients " \
               "checked against the generating model"

    def generate_inputs(self):
        rng = np.random.default_rng(self.seed)
        mu = MASTER_MODULUS * np.exp(1j * MASTER_ANGLE)
        sigma = MASTER_MODULUS ** RATE_RATIO * np.exp(1j * SLAVED_ANGLE)
        self.mu, self.sigma = mu, sigma

        def block(z):
            return np.array([[z.real, -z.imag], [z.imag, z.real]])
        B = np.zeros((4, 4))
        B[:2, :2], B[2:, 2:] = block(mu), block(sigma)
        Qm, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        matrix = Qm @ B @ Qm.T

        log_mod = math.log(abs(mu))
        xi = math.log(abs(sigma)) / log_mod
        rate = math.atan2(sigma.imag, sigma.real) / log_mod
        truth = {}
        active = []
        for k2, k3, k5, k6, frac, phase, total in _monomials_2d(xi, rate,
                                                                 FIT_ORDER):
            key = (k2, k3, k5, k6)
            if key == (1, 0, 0, 0):
                c = mu
            elif total <= NONLINEAR_ORDER + 1e-9:
                c = COEFF_SCALE * complex(rng.normal(), rng.normal())
            else:
                c = 0.0
            truth[key] = c
            if c != 0.0:
                active.append((k2, k3, frac, phase, c))
        self.truth = truth

        z = (0.05 + 0.25 * rng.random(N_TRAJ)) * \
            np.exp(2j * math.pi * rng.random(N_TRAJ))
        Z = np.empty((N_SAMPLES, N_TRAJ), dtype=complex)
        Z[0] = z
        for i in range(1, N_SAMPLES):
            az = np.abs(z)
            nxt = np.zeros_like(z)
            for k2, k3, frac, phase, c in active:
                nxt += c * z ** k2 * np.conj(z) ** k3 * az ** frac * \
                    np.exp(1j * phase * np.log(az))
            z = nxt
            Z[i] = z
        if not (np.all(np.isfinite(Z)) and np.max(np.abs(Z)) < 0.5):
            raise RuntimeError(f"seed {self.seed}: generated trajectories "
                               "leave the unit disc")

        self.data_dir = os.path.join(self.work_dir, "data")
        shutil.rmtree(self.data_dir, ignore_errors=True)
        os.makedirs(self.data_dir)
        self.matrix_path = os.path.join(self.work_dir, "matrix.csv")
        np.savetxt(self.matrix_path, matrix, delimiter=",", fmt="%.17g")
        idx = np.arange(N_SAMPLES, dtype=float)
        for j in range(N_TRAJ):
            np.savetxt(os.path.join(self.data_dir, f"traj_{j:03d}.csv"),
                       np.column_stack([idx, Z[:, j].real, Z[:, j].imag]),
                       delimiter=",", header="idx,x1,x2", comments="",
                       fmt="%.17g")

    def _run(self):
        ops = [Op("spectrum"), Op("fit")]
        spec_dir = os.path.join(self.out_dir, "spectrum")
        fit_dir = os.path.join(self.out_dir, "fit")
        spec = _call(ops[0], CLI_DEADLINE, _cli,
                     ["spectrum", "--matrix", self.matrix_path, "--kind",
                      "map", "--masters", "2", "--outdir", spec_dir])
        if spec is None:
            ops[1].error = "spectrum step did not complete"
            return ops, {}
        fitted = _call(ops[1], CLI_DEADLINE, _cli,
                       ["fit", "--data", self.data_dir, "--spectrum",
                        os.path.join(spec_dir, "spectrum.json"), "--order",
                        str(FIT_ORDER), "--kind", "map", "--outdir",
                        fit_dir])
        produced = {"spectrum_exit": spec[0],
                    "spectrum": _read_outputs(ops, _read_json, spec_dir,
                                              "spectrum.json")}
        if fitted is not None:
            produced["fit_exit"] = fitted[0]
            produced["model"] = _read_outputs(ops[1:], _read_json, fit_dir,
                                              "model.json")
            produced["report"] = _read_outputs(ops[1:], _read_json, fit_dir,
                                               "report.json")
        return ops, produced

    def verify(self, produced):
        problems = {"spectrum": [], "fit": []}
        found = problems["spectrum"]
        if produced.get("spectrum_exit") != 0:
            found.append(f"spectrum exit code {produced.get('spectrum_exit')}")
        spec = produced.get("spectrum") or {}
        try:
            (a, w), = spec["alpha_omega"]
            (b, nu), = spec["beta_nu"]
        except (KeyError, ValueError):
            found.append("partition is not one master and one slaved pair")
        else:
            if abs(complex(a, w) - self.mu) > SPECTRUM_TOL or \
                    abs(complex(b, nu) - self.sigma) > SPECTRUM_TOL:
                found.append("partitioned eigenvalues differ from the "
                             "generated ones")
        if not produced.get("model") or not produced.get("report"):
            return problems
        found = problems["fit"]
        if produced["fit_exit"] != 0:
            found.append(f"fit exit code {produced['fit_exit']}")
        monos = produced["model"]["dictionary"]["monomials"]
        coeffs = produced["model"]["coefficients"]
        active = [m for m in monos if not m["pruned"]]
        if len(active) != len(self.truth):
            found.append(f"{len(active)} dictionary terms, expected "
                         f"{len(self.truth)}")
        worst = 0.0
        for m, row in zip(active, coeffs):
            c = complex(*row[0])
            worst = max(worst, abs(c - self.truth.get(
                tuple(m["multi_index"]), math.inf)))
        if not worst <= FIT_COEFF_TOL:
            found.append(f"coefficients off the generating model by "
                         f"{worst:.2e}")
        report = produced["report"]
        resid = max(report["training_residuals"])
        if not resid <= FIT_RESIDUAL_TOL:
            found.append(f"training residual {resid:.2e}")
        want = self.reference.get(str(self.seed))
        if want is not None and not _close(report["condition_number"],
                                           want["condition_number"],
                                           rel=FULL_REL):
            found.append(f"condition number {report['condition_number']} "
                         f"!= {want['condition_number']}")
        return problems


WORKLOADS = {cls.name: cls for cls in
             (ReproducePlanar, ReproduceForced, Series, FitBulk)}
