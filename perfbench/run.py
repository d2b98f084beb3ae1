"""Run one workload and print its result line.

    python3 perfbench/run.py --workload conv-kernels --seed 0 --seconds 20 --trace 0

Run from the repository root.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Diagnostics go to stderr.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# The package under test lives in src/; this script's own directory must not
# shadow stdlib modules, so it is replaced rather than kept on the path.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="test scale: small inputs")
    args = parser.parse_args(argv)

    from perfbench import common, workloads

    module = workloads.load(args.workload)
    seconds = args.seconds if args.seconds is not None else common.catalog()["run_seconds"]
    ctx = common.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        quick=args.quick,
        import_s=time.perf_counter() - _T0,
    )
    outcome = module.run(ctx)
    line = common.result_line(outcome, ctx.trace)
    print(f"[perfbench] {args.workload} seed={args.seed} {json.dumps(outcome.notes)}", file=sys.stderr)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
