"""Batch command-line front end.

Subcommands
-----------
spectrum
    Partition a spectrum from a matrix CSV, a named testbed, or tabulated
    log-eigenvalues; write the partition JSON, the spectral ratio table, and
    a smoothness report.
fit
    Build a dictionary from a stored spectrum and fit a reduced model to a
    directory of trajectory CSVs; write the model JSON and an error report.
reproduce
    Run the full pipeline for one of the built-in examples and write
    pass/fail check results plus plot-ready CSVs.

Exit codes: 0 success, 1 check failure, 2 input error, 3 numerical failure.
Every command writes a manifest.json (config echo + version + outputs) into
its output directory. The SSMFRAC_THREADS environment variable caps BLAS
parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# honour the thread cap before numpy spins up its thread pools
_threads = os.environ.get("SSMFRAC_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import numpy as np

from . import __version__, dictionary as dct, dynamics, fit, spectrum
from .errors import BadParams, InputError, NumericalError, SSMError
from .trajectory import Trajectory

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_params(text):
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise InputError(f"bad parameter item {item!r}, expected k=v")
        key, val = item.split("=", 1)
        try:
            value = float(val)
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise BadParams(f"bad parameter item {item!r}, "
                            "value is not a finite number")
        out[key.strip()] = value
    return out


def _write_manifest(outdir, command, config, outputs):
    doc = {"version": __version__, "command": command, "config": config,
           "outputs": sorted(outputs)}
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_config(args):
    """Config file values override flags, per the external-interface rule."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            overrides = json.load(fh)
        for key, val in overrides.items():
            setattr(args, key.replace("-", "_"), val)
    return args


def _config_echo(args):
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _load_trajectories(path):
    if not os.path.isdir(path):
        raise InputError(f"{path} is not a directory")
    names = sorted(f for f in os.listdir(path) if f.endswith(".csv"))
    if not names:
        raise InputError(f"no trajectory CSVs in {path}")
    return [Trajectory.read_csv(os.path.join(path, f)) for f in names]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args):
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    outputs = []

    if args.map_logs:
        logs = spectrum.read_matrix_csv(args.map_logs).ravel()
        if len(logs) < 2:
            raise InputError("map-logs needs a master log plus slaved logs")
        part = spectrum.SpectralPartition.from_map_logs([logs[0]], logs[1:])
    else:
        if args.testbed:
            sys_ = dynamics.testbed(args.testbed,
                                    params=_parse_params(args.params))
            A = sys_.jacobian(0.0, np.zeros(sys_.dim))
        elif args.matrix:
            A = spectrum.read_matrix_csv(args.matrix)
        else:
            raise InputError("need --matrix, --testbed, or --map-logs")
        part = spectrum.partition_spectrum(
            A, spectrum.slowest(args.masters, args.kind), kind=args.kind)

    spec_path = os.path.join(outdir, "spectrum.json")
    part.to_json(spec_path)
    outputs.append("spectrum.json")

    ratio_path = os.path.join(outdir, "ratios.csv")
    if part.kind == "map" and part.p == 1 and part.q == 0:
        rows = spectrum.spectral_ratio_table(part)
        with open(ratio_path, "w") as fh:
            fh.write("slaved_index,ratio\n")
            for i, ratio in rows:
                fh.write(f"{i},{ratio:.6f}\n")
    else:
        rates = part.master_rates()
        with open(ratio_path, "w") as fh:
            fh.write("slaved_index,ratio\n")
            for i, rate in enumerate(part.slaved_rates()):
                fh.write(f"{i + 1},{rate / rates[0]:.6f}\n")
    outputs.append("ratios.csv")

    smooth = spectrum.smoothness_class(part)
    with open(os.path.join(outdir, "smoothness.json"), "w") as fh:
        json.dump({"eta": smooth.eta, "ratios": list(smooth.ratios)},
                  fh, indent=2)
        fh.write("\n")
    outputs.append("smoothness.json")

    _write_manifest(outdir, "spectrum", _config_echo(args), outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _build_dictionary(part, args):
    if args.integer_only:
        n_vars = 1 if part.p == 1 and part.q == 0 else 2
        return dct.integer_dictionary(n_vars, int(args.order), spec=part,
                                      kind=part.kind)
    if part.p == 1 and part.q == 0:
        build = dct.dictionary_flow_1d if part.kind == "flow" \
            else dct.dictionary_map_1d
    elif part.p == 0 and part.q == 1:
        build = dct.dictionary_flow_2d if part.kind == "flow" \
            else dct.dictionary_map_2d
    else:
        raise InputError("dictionary fitting needs a 1D or 2D master block")
    built = build(part, args.order)
    if args.prune is not None:
        built = dct.prune_near_integer(built, args.prune)
    return built


def cmd_fit(args):
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    outputs = []

    part = spectrum.SpectralPartition.from_json(args.spectrum)
    trajs = _load_trajectories(args.data)
    kind = args.kind or trajs[0].kind
    built = _build_dictionary(part, args)

    if kind == "map":
        model = fit.fit_reduced_map(trajs, built, ridge=args.ridge)
    else:
        model = fit.fit_reduced_flow(trajs, built, ridge=args.ridge)

    model.to_json(os.path.join(outdir, "model.json"))
    outputs.append("model.json")

    report = {
        "dictionary_size": len(built),
        "training_residuals": [float(r) for r in model.residuals],
        "condition_number": model.condition_number,
        "training_amplitude": model.training_amplitude,
    }
    if args.test_data:
        tests = _load_trajectories(args.test_data)
        errors = []
        for traj in tests:
            if kind == "map":
                pred = fit.predict(model, traj.states[0], len(traj) - 1)
            else:
                pred = fit.predict(model, traj.states[0],
                                   (traj.times[0], traj.times[-1]),
                                   )
                pred = Trajectory(
                    times=traj.times,
                    states=np.array([pred.interpolant(t) for t in traj.times]),
                    kind="flow") if pred.interpolant is not None else pred
            _, mean = fit.relative_error(traj, pred)
            errors.append(mean)
        report["test_mean_relative_errors"] = errors
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    outputs.append("report.json")

    _write_manifest(outdir, "fit", _config_echo(args), outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _check(checks, name, passed, detail):
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _reproduce_planar(outdir, checks, outputs):
    a, b, c = 1.0, 1.0, 2.5
    part = spectrum.SpectralPartition(kind="flow", lam=(-b,), kappa=(-c * a,))
    built = dct.dictionary_flow_1d(part, K=5)
    vf = dynamics.exact_reduced_planar(a, b, c)
    sys_ = dynamics.FlowSystem(dim=1, f=lambda t, x: vf(x), name="planar")

    grid = np.linspace(0.0, 4.0, 400)
    train = [dynamics.integrate(sys_, [0.95], (0.0, 4.0), tol=1e-12,
                                t_eval=grid)]
    tests = [dynamics.integrate(sys_, [x0], (0.0, 4.0), tol=1e-12,
                                t_eval=grid)
             for x0 in (0.3, 0.45, 0.6, 0.75, 0.9)]

    frac = fit.fit_reduced_flow(train, built, ridge=1e-12)
    integer = fit.fit_reduced_flow(train, dct.integer_dictionary(1, 5),
                                   ridge=1e-12)
    dmd = fit.dmd_fit(Trajectory(times=np.arange(len(train[0]), dtype=float),
                                 states=train[0].states, kind="map"))
    pod = fit.pod_reduced_model_planar(a, b, c, K=0.95764)

    rows = []
    worst_frac = 0.0
    frac_le_int = True
    for traj in tests:
        tspan = (traj.times[0], traj.times[-1])
        per = {}
        for label, model in (("fractional", frac), ("integer", integer)):
            pred = fit.predict(model, traj.states[0], tspan, tol=1e-10)
            resampled = np.array([pred.interpolant(t) for t in traj.times])
            _, mean = fit.relative_error(traj.states, resampled)
            per[label] = mean
        dmd_states = [traj.states[0]]
        for _ in range(len(traj) - 1):
            dmd_states.append(dmd @ dmd_states[-1])
        _, per["dmd"] = fit.relative_error(traj.states, np.array(dmd_states))
        pod_sys = dynamics.FlowSystem(
            dim=1, f=lambda t, x: pod["quadratic"] * x ** 2
            + pod["linear"] * x)
        pod_pred = dynamics.integrate(pod_sys, traj.states[0], tspan,
                                      tol=1e-10, t_eval=traj.times)
        _, per["pod"] = fit.relative_error(traj.states, pod_pred.states)
        rows.append((float(traj.states[0, 0]), per))
        worst_frac = max(worst_frac, per["fractional"])
        frac_le_int = frac_le_int and per["fractional"] <= per["integer"]

    with open(os.path.join(outdir, "error_table.csv"), "w") as fh:
        fh.write("ic,fractional,integer,dmd,pod\n")
        for ic, per in rows:
            fh.write(f"{ic},{per['fractional']:.6e},{per['integer']:.6e},"
                     f"{per['dmd']:.6e},{per['pod']:.6e}\n")
    outputs.append("error_table.csv")

    xg = np.linspace(0.02, 0.95, 200)
    true_vf = vf(xg)
    pred_vf = np.array([float(frac.rhs(x)) for x in xg])
    vf_err = float(np.max(np.abs(true_vf - pred_vf))
                   / np.max(np.abs(true_vf)))

    _check(checks, "fractional error <= integer error on every test",
           frac_le_int, {"rows": len(rows)})
    _check(checks, "fractional mean relative error <= 5%",
           worst_frac <= 0.05, {"worst": worst_frac})
    _check(checks, "vector-field error vs exact model < 1e-2",
           vf_err < 1e-2, {"error": vf_err})


def _reproduce_mixed3d(outdir, checks, outputs):
    sys_ = dynamics.testbed("mixed3d")
    a = sys_.params["a"]
    grid = np.linspace(0.0, 8.0, 120)
    trajs = [dynamics.integrate(sys_, np.array([x1, 0.0, a * x1 ** 2]),
                                (0.0, 8.0), tol=1e-11, t_eval=grid)
             for x1 in (0.4, -0.5)]
    built = dct.integer_dictionary(2, 3)
    graph = fit.fit_graph(trajs, built, master_coords=[0, 1],
                          slaved_coords=[2])
    coeff_map = {m.powers: float(c) for m, c in
                 zip(built.monomials, graph.coefficients.ravel())}
    with open(os.path.join(outdir, "graph_coefficients.csv"), "w") as fh:
        fh.write("powers,coefficient\n")
        for powers, c in sorted(coeff_map.items()):
            fh.write(f"{'_'.join(map(str, powers))},{c:.8e}\n")
    outputs.append("graph_coefficients.csv")
    lead = coeff_map.get((2, 0), 0.0)
    others = max(abs(c) for p, c in coeff_map.items() if p != (2, 0))
    _check(checks, "x1^2 coefficient within 1e-3 of 0.5",
           abs(lead - a) < 1e-3, {"coefficient": lead})
    _check(checks, "all other coefficients < 1e-3",
           others < 1e-3, {"largest": others})


def _reproduce_sp_unforced(outdir, checks, outputs):
    from . import normalform

    A = dynamics.shaw_pierre_matrix()
    eigs = np.linalg.eigvals(A)
    order = np.argsort(np.abs(eigs.real))
    eigs = eigs[order]
    with open(os.path.join(outdir, "eigenvalues.csv"), "w") as fh:
        fh.write("re,im\n")
        for z in eigs:
            fh.write(f"{z.real:.8f},{z.imag:.8f}\n")
    outputs.append("eigenvalues.csv")

    refs = [complex(-0.0741, 1.0027), complex(-0.3759, 1.6812)]
    err = max(min(abs(z - r) for z in eigs) for r in refs)
    _check(checks, "eigenvalues match reference values to 1e-3",
           err < 1e-3, {"max_error": err})

    gamma, m = 0.5, 1.0
    ps, _ = normalform.PolySystem.from_real_system(
        A, {(3, 0, 0, 0): np.array([0.0, -gamma / m, 0.0, 0.0])}, K=7)
    transform = normalform.linearize(ps, 7)
    resid = normalform.conjugacy_residual(transform, ps)
    _check(checks, "order-7 linearization residual < 1e-8",
           resid < 1e-8, {"residual": resid})


def _reproduce_sp_forced(outdir, checks, outputs):
    c, m, A_f, Omega = 0.03, 1.0, 0.11, 1.07
    T = 2.0 * np.pi / Omega
    sys_ = dynamics.testbed("shaw_pierre",
                            params=dict(c=c, A=A_f, Omega=Omega))
    pmap = dynamics.PoincareMap(sys_, T=T, tol=1e-11)
    found = {}
    for label, seed in dynamics.FORCED_SEEDS.items():
        res = dynamics.newton_fixed_point(pmap, seed, tol=1e-9)
        fl = dynamics.floquet(sys_, res.location, T, tol=1e-11)
        found[label] = (res, fl)

    with open(os.path.join(outdir, "fixed_points.csv"), "w") as fh:
        fh.write("orbit,q1,p1,q2,p2,classification\n")
        for label, (res, _) in sorted(found.items()):
            loc = ",".join(f"{v:.6f}" for v in res.location)
            fh.write(f"{label},{loc},{res.classification}\n")
    outputs.append("fixed_points.csv")
    with open(os.path.join(outdir, "floquet_multipliers.csv"), "w") as fh:
        fh.write("orbit,re,im\n")
        for label, (_, fl) in sorted(found.items()):
            for mu in fl.multipliers:
                fh.write(f"{label},{mu.real:.6f},{mu.imag:.6f}\n")
    outputs.append("floquet_multipliers.csv")

    locs = [res.location for res, _ in found.values()]
    distinct = all(np.linalg.norm(locs[i] - locs[j]) > 1e-3
                   for i in range(3) for j in range(i + 1, 3))
    _check(checks, "three distinct fixed points located", distinct,
           {"locations": [list(np.round(loc, 5)) for loc in locs]})

    stable = all(np.all(np.abs(found[k][1].multipliers) < 1.0)
                 for k in ("low", "high"))
    _check(checks, "low and high orbits have multipliers inside unit circle",
           stable, {})

    liouville = np.exp(-3.0 * c * T / m)
    worst = max(abs(np.prod(fl.multipliers).real - liouville) / liouville
                for _, fl in found.values())
    _check(checks, "Liouville product identity to 1e-6", worst < 1e-6,
           {"worst_relative_error": worst})

    refs = [1.0835, 0.7726, complex(-0.4132, 0.6474),
            complex(-0.4132, -0.6474)]
    mults = found["middle"][1].multipliers
    err = max(min(abs(mu - r) for mu in mults) for r in refs)
    _check(checks, "saddle multipliers match reference values to 2e-2",
           err < 2e-2, {"max_error": err,
                        "computed": [[mu.real, mu.imag] for mu in mults]})


_REPRODUCE = {
    "planar": _reproduce_planar,
    "mixed3d": _reproduce_mixed3d,
    "shaw_pierre_unforced": _reproduce_sp_unforced,
    "shaw_pierre_forced": _reproduce_sp_forced,
}


def cmd_reproduce(args):
    if args.example not in _REPRODUCE:
        raise InputError(
            f"unknown example {args.example!r}; choose from "
            f"{sorted(_REPRODUCE)}")
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    checks, outputs = [], []
    _REPRODUCE[args.example](outdir, checks, outputs)
    with open(os.path.join(outdir, "checks.json"), "w") as fh:
        json.dump(checks, fh, indent=2)
        fh.write("\n")
    outputs.append("checks.json")
    _write_manifest(outdir, "reproduce", _config_echo(args), outputs)
    for entry in checks:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"[{status}] {entry['name']}")
    return EXIT_OK if all(e["passed"] for e in checks) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ssmfrac",
        description="Fractional/mixed-mode invariant-manifold toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="partition a spectrum")
    sp.add_argument("--matrix", help="linearization matrix CSV")
    sp.add_argument("--testbed", help="built-in testbed name")
    sp.add_argument("--params", default="", help="testbed params k=v,...")
    sp.add_argument("--map-logs", dest="map_logs",
                    help="CSV of log eigenvalue moduli (master first)")
    sp.add_argument("--kind", choices=("flow", "map"), default="flow")
    sp.add_argument("--masters", type=int, default=2,
                    help="master subspace dimension")
    sp.add_argument("--outdir", default="spectrum_out")
    sp.add_argument("--config", help="JSON config overriding flags")
    sp.set_defaults(func=cmd_spectrum)

    fp = sub.add_parser("fit", help="fit a reduced model")
    fp.add_argument("--data", required=True, help="trajectory CSV directory")
    fp.add_argument("--spectrum", required=True, help="spectrum.json path")
    fp.add_argument("--order", type=float, default=5.0,
                    help="dictionary truncation order")
    fp.add_argument("--prune", type=float, default=None,
                    help="near-integer pruning tolerance")
    fp.add_argument("--kind", choices=("flow", "map"), default=None)
    fp.add_argument("--ridge", type=float, default=0.0)
    fp.add_argument("--integer-only", dest="integer_only",
                    action="store_true")
    fp.add_argument("--test-data", dest="test_data", default=None)
    fp.add_argument("--outdir", default="fit_out")
    fp.add_argument("--config", help="JSON config overriding flags")
    fp.set_defaults(func=cmd_fit)

    rp = sub.add_parser("reproduce", help="rerun a built-in example")
    rp.add_argument("example", help="|".join(sorted(_REPRODUCE)))
    rp.add_argument("--outdir", default=None)
    rp.add_argument("--config", help="JSON config overriding flags")
    rp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce" and args.outdir is None:
        args.outdir = f"reproduce_{args.example}"
    try:
        args = _load_config(args)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SSMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
