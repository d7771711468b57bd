"""Benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload against the program in ``src/`` through its
public API, checks a sample of its answers against reference solves,
prints every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload with layer spans
and reports the per-layer metrics.  Native thread pools are pinned to
one thread, and NumPy's huge-page requests are off, before NumPy loads.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    # NumPy asks for transparent huge pages on large arrays; whether the
    # host grants them varies with its memory fragmentation and moves
    # both speed and RSS between two modes.  Ask for none.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("update_stream", "paper_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from perfbench import common, workloads

    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    stamp = common.run_stamp(ROOT, args.workload, args.seed, args.seconds, args.trace)
    run = workloads.WORKLOADS[args.workload]
    outcome = run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  workdir=workdir)
    errors = outcome.claim_errors
    met = [err <= tol for err, tol in errors]
    broken = [(err, tol) for err, tol in errors if err > common.BROKEN_FACTOR * tol]
    if args.trace:
        metrics = outcome.layers
    else:
        metrics = dict(outcome.end_to_end)
        metrics["claim_met_frac"] = sum(met) / len(met) if met else 0.0
        metrics = {name: metrics[name] for name in common.END_TO_END}
    notes = dict(outcome.notes)
    notes["claims"] = f"{sum(met)} of {len(met)} sampled answers within their claimed tol"
    if errors:
        notes["claims"] += f"; worst error {max(err / tol for err, tol in errors):.3g}x its tol"
    if broken:
        notes["broken"] = (
            f"{len(broken)} answers miss by more than "
            f"{common.BROKEN_FACTOR:g}x their claim; worst error "
            f"{max(e for e, _ in broken):.3e}"
        )
    if args.trace:
        spans_path = os.path.join(workdir, f"spans-{args.workload}-{args.seed}.jsonl")
        outcome.recorder.dump(spans_path)
        notes["spans"] = os.path.relpath(spans_path, ROOT)
    common.emit(stamp, outcome.attempted, outcome.failed, not broken, metrics, notes)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
