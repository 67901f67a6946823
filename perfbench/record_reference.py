"""Record reference.json from the program as it is now.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py [--seeds N]

Seed-independent outputs (both reproduce targets and the order-7 inverse
series) are stored once; the seeded normal-form constants and fit condition
numbers are stored for seeds 0..N-1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

run.fix_threads()
sys.path.insert(0, run.SRC)
import workloads  # noqa: E402  (after the thread cap)

HERE, ROOT = run.HERE, run.ROOT

BLANK = {"reproduce_planar": {}, "reproduce_forced": {},
         "series": {"inverse": {}, "normalform": {}}, "fit_bulk": {}}


def produced(name, seed=0):
    work = os.path.join(ROOT, ".perfbench_work", "record", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.WORKLOADS[name](work, seed, BLANK)
    wl.generate_inputs()
    os.makedirs(wl.out_dir)
    if name == "series":
        wl._build_models()
    ops, out = wl._run()
    errors = [f"{op.name}: {op.error}" for op in ops
              if op.error and not wl.known_failure(op)]
    if errors:
        raise SystemExit(f"{name} seed {seed} failed: {errors}")
    return wl, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args()

    ref = {}
    _, out = produced("reproduce_planar")
    ref["reproduce_planar"] = {"checks": out["checks"],
                               "error_table": out["error_table"]}
    _, out = produced("reproduce_forced")
    ref["reproduce_forced"] = {"checks": out["checks"],
                               "fixed_points": out["fixed_points"],
                               "multipliers": out["multipliers"]}

    _, out = produced("series")
    series = {"inverse": out["chain"]["inverse"], "normalform": {}}
    for seed in range(args.seeds):
        wl = workloads.Series(os.path.join(ROOT, ".perfbench_work"), seed,
                              BLANK)
        wl.generate_inputs()
        wl._build_models()
        nf, _, _ = wl._normalform(wl._models[0])
        series["normalform"][str(seed)] = {
            **{f: getattr(nf, f) for f in wl.nf_fields},
            "resonant_terms": len(nf.resonant_terms)}
    ref["series"] = series

    fits = {}
    for seed in range(args.seeds):
        _, out = produced("fit_bulk", seed)
        fits[str(seed)] = {
            "condition_number": out["report"]["condition_number"],
            "residual": max(out["report"]["training_residuals"])}
        print(f"fit_bulk seed {seed}: {fits[str(seed)]}", flush=True)
    ref["fit_bulk"] = fits

    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(os.path.join(ROOT, ".perfbench_work", "record"))


if __name__ == "__main__":
    main()
