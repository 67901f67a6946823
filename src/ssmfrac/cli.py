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
its output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import (__version__, dictionary as dct, dynamics, examples, fit,
               spectrum)
from .errors import BadParams, InputError, NumericalError, SSMError
from .jsonio import dump_json, load_json
from .trajectory import Trajectory, read_table

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
    dump_json(doc, os.path.join(outdir, "manifest.json"), sort_keys=True)


def _write_csv(path, header, rows, formats):
    """One CSV line per row, each cell formatted by its column's spec
    (tuples are joined by "_")."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("_".join(map(str, v)) if isinstance(v, tuple)
                              else format(v, spec)
                              for v, spec in zip(row, formats)) + "\n")


def _config_value(action, val):
    """A config value checked as the command line would check the flag:
    the option's type and choices, a boolean for a switch, and null only
    for an optional setting whose default is null."""
    if isinstance(action.default, bool):
        ok = isinstance(val, bool)
    elif val is None:
        ok = action.default is None and not action.required
    elif isinstance(val, bool) or not isinstance(val, (str, int, float)) \
            or "\0" in str(val):           # no flag can carry a NUL
        ok = False
    else:
        try:
            val = (action.type or str)(str(val))
            ok = action.choices is None or val in action.choices
        except ValueError:
            ok = False
    if not ok:
        raise InputError(f"config value {val!r} is not valid for "
                         f"{action.dest}")
    return val


def _load_config(args):
    """Config file values override flags, per the external-interface rule.
    The file holds a JSON object keyed by the subcommand's option names."""
    if getattr(args, "config", None):
        overrides = load_json(args.config)
        if not isinstance(overrides, dict):
            raise InputError(f"config {args.config} must hold a JSON object")
        actions = {a.dest: a for a in args.parser._actions
                   if a.dest not in ("help", "config")}
        for key, val in overrides.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise InputError(f"config key {key!r} is not an option of "
                                 f"{args.command}")
            setattr(args, action.dest, _config_value(action, val))
    return args


def _config_echo(args):
    skip = {"func", "config", "parser"}
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
    if args.map_logs:
        logs = read_table(args.map_logs)[1].ravel()
        if len(logs) < 2:
            raise InputError("map-logs needs a master log plus slaved logs")
        part = spectrum.SpectralPartition.from_map_logs([logs[0]], logs[1:])
    else:
        if args.testbed:
            sys_ = dynamics.testbed(args.testbed,
                                    params=_parse_params(args.params))
            A = sys_.jacobian(0.0, np.zeros(sys_.dim))
        elif args.matrix:
            A = read_table(args.matrix)[1]
        else:
            raise InputError("need --matrix, --testbed, or --map-logs")
        part = spectrum.partition_spectrum(
            A, spectrum.slowest(args.masters, args.kind), kind=args.kind)
    # every number is computed before the first file is written
    ratios = spectrum.spectral_ratio_table(part)
    smooth = spectrum.smoothness_class(part)
    masters = part.p + part.q
    header = ["ratio"] if masters == 1 else [f"ratio_{j + 1}"
                                             for j in range(masters)]

    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    part.to_json(os.path.join(outdir, "spectrum.json"))
    _write_csv(os.path.join(outdir, "ratios.csv"), ["slaved_index"] + header,
               ratios, [""] + [".6f"] * masters)
    dump_json({"eta": smooth.eta, "ratios": list(smooth.ratios)},
              os.path.join(outdir, "smoothness.json"))

    _write_manifest(outdir, "spectrum", _config_echo(args),
                    ["spectrum.json", "ratios.csv", "smoothness.json"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _build_dictionary(part, args):
    """The library the spectrum gives (``dictionary.family_of``), or the
    integer one over its p + 2q master columns, pruned at --prune."""
    family = "integer" if args.integer_only else dct.family_of(part)
    built = dct.BUILDERS[family](part, args.order)
    if args.prune is not None:
        built = dct.prune_near_integer(built, args.prune)
    return built


def cmd_fit(args):
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)

    part = spectrum.SpectralPartition.from_json(args.spectrum)
    trajs = _load_trajectories(args.data)
    kind = args.kind or trajs[0].kind
    built = _build_dictionary(part, args)

    if kind == "map":
        model = fit.fit_reduced_map(trajs, built, ridge=args.ridge)
    else:
        model = fit.fit_reduced_flow(trajs, built, ridge=args.ridge)

    model.to_json(os.path.join(outdir, "model.json"))

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
            pred = fit.predict(model, traj.states[0], traj.times)
            _, mean = fit.relative_error(traj, pred)
            errors.append(mean)
        report["test_mean_relative_errors"] = errors
    dump_json(report, os.path.join(outdir, "report.json"))

    _write_manifest(outdir, "fit", _config_echo(args),
                    ["model.json", "report.json"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

# column formats of each reproduce table, by file name; multi-index tuples
# are written joined by "_"
_TABLE_FORMATS = {
    "error_table.csv": ("", ".6e", ".6e", ".6e", ".6e"),
    "graph_coefficients.csv": ("", ".8e"),
    "eigenvalues.csv": (".8f", ".8f"),
    "fixed_points.csv": ("", ".6f", ".6f", ".6f", ".6f", ""),
    "floquet_multipliers.csv": ("", ".6f", ".6f"),
}


def cmd_reproduce(args):
    if args.example not in examples.EXAMPLES:
        raise InputError(
            f"unknown example {args.example!r}; choose from "
            f"{sorted(examples.EXAMPLES)}")
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    run = examples.EXAMPLES[args.example]()
    for name, (header, rows) in run.tables.items():
        _write_csv(os.path.join(outdir, name), header, rows,
                   _TABLE_FORMATS[name])
    dump_json(run.checks, os.path.join(outdir, "checks.json"))
    _write_manifest(outdir, "reproduce", _config_echo(args),
                    [*run.tables, "checks.json"])
    for entry in run.checks:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"[{status}] {entry['name']}")
    return EXIT_OK if all(e["passed"] for e in run.checks) \
        else EXIT_CHECK_FAILED


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
    sp.set_defaults(func=cmd_spectrum, parser=sp)

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
    fp.set_defaults(func=cmd_fit, parser=fp)

    rp = sub.add_parser("reproduce", help="rerun a built-in example")
    rp.add_argument("example", help="|".join(sorted(examples.EXAMPLES)))
    rp.add_argument("--outdir", default=None)
    rp.add_argument("--config", help="JSON config overriding flags")
    rp.set_defaults(func=cmd_reproduce, parser=rp)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _load_config(args)
        if args.command == "reproduce" and args.outdir is None:
            args.outdir = f"reproduce_{args.example}"
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
