"""Self-test of the benchmark's tracing and output checks.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it checks that

* a traced pass produces exactly the outputs of an untraced pass, and
* corrupting one stored reference value makes a pass fail, so the checks
  can fail.

Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys

import run

def _corrupt_planar(ref, seed):
    row = ref["error_table"][0]
    row["fractional"] = repr(1.01 * float(row["fractional"]))
    return "fractional error at ic 0.3 scaled by 1.01", "predict_ic_0.3"


def _corrupt_forced(ref, seed):
    row = ref["fixed_points"][0]
    row["q1"] = repr(float(row["q1"]) + 1e-3)
    return f"q1 of the {row['orbit']} orbit shifted by 1e-3", \
        f"orbit_{row['orbit']}"


def _corrupt_series(ref, seed):
    key = sorted(ref["inverse"])[0]
    ref["inverse"][key][0][0] += 1e-6
    return f"inverse-series coefficient {key} shifted by 1e-6", "chain"


def _corrupt_fit(ref, seed):
    ref[str(seed)]["condition_number"] *= 1.01
    return "condition number scaled by 1.01", "fit"


# each edits one value of a copy of the workload's reference and returns
# (what it changed, the op that must then fail)
CORRUPTIONS = {"reproduce_planar": _corrupt_planar,
               "reproduce_forced": _corrupt_forced,
               "series": _corrupt_series,
               "fit_bulk": _corrupt_fit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run.fix_threads()
    sys.path.insert(0, run.SRC)
    import tracing
    import workloads

    with open(os.path.join(run.HERE, "reference.json")) as fh:
        reference = json.load(fh)
    failures = []
    for name in args.workload or run.WORKLOADS:
        work = os.path.join(run.WORK, "selftest", name)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        wl = workloads.WORKLOADS[name](work, args.seed, reference)
        wl.generate_inputs()
        _, plain = wl.run_pass()
        untraced = wl.last_produced
        tracer = tracing.Tracer()
        _, traced_ops = wl.run_pass(tracer.installed)
        same = json.dumps(untraced, sort_keys=True, default=repr) == \
            json.dumps(wl.last_produced, sort_keys=True, default=repr)
        print(f"{name}: traced outputs identical to untraced: {same} "
              f"({len(tracer.names)} spans)")
        if not same:
            failures.append(f"{name}: tracing changed the outputs")
        unexpected = [op.name for op in plain + traced_ops
                      if not op.ok and not wl.known_failure(op)]
        if unexpected:
            failures.append(f"{name}: ops failed on the stored reference: "
                            f"{unexpected}")

        bad = copy.deepcopy(reference)
        what, op_name = CORRUPTIONS[name](bad[name], args.seed)
        wl_bad = workloads.WORKLOADS[name](work, args.seed, bad)
        wl_bad.generate_inputs()
        _, ops = wl_bad.run_pass()
        failed = [op for op in ops if not op.ok and not wl.known_failure(op)]
        caught = any(op.name == op_name for op in failed)
        ratio = sum(not op.ok for op in ops) / len(ops)
        print(f"{name}: reference corrupted ({what}): op {op_name} failed: "
              f"{caught}, fail ratio {ratio:.3f}")
        if not caught:
            failures.append(f"{name}: corrupted reference not detected")
    shutil.rmtree(os.path.join(run.WORK, "selftest"), ignore_errors=True)
    for line in failures:
        print(f"SELFTEST FAILED: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
