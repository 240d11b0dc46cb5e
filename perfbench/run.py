"""Benchmark command for the protoreplay engine.

    python3 perfbench/run.py --workload class_cifar32 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, each in a fresh process

Run it from the repository root; it imports the engine from ``src/``. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a further, traced repetition. ``--tiny`` swaps in the
smoke-test shapes. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` counts
the tasks run and ``failed`` the tasks that raised or gave non-finite
results plus every failed check. The line before it records the software
and hardware. The exit code is 0 only if every check passed.

BLAS runs one thread: at these float64 shapes a second thread did not
shorten a run on a 2-core box, and one thread keeps runs steadier when
other processes share the cores.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("class_cifar32", "class_vector_d500", "domain_mnist28")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload in this process (default: all, each in a child)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test shapes")
    return p.parse_args(argv)


def _run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload is None:
        return _run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "protoreplay", "__init__.py")):
        print(f"perfbench: no protoreplay sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import bench, tracing, workloads

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    units = tracing.PER_LAYER if args.trace else bench.END_TO_END
    print(json.dumps({"env": bench.environment()}), flush=True)
    out = bench.run_workload(table[args.workload], args.seed, args.seconds,
                             bool(args.trace), ROOT)
    for failure in out.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    metrics = {name: value.item() if hasattr(value, "item") else value
               for name, value in out.metrics.items()}     # numpy scalars to JSON
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name][0]}")
    print(json.dumps({
        "correct": not out.failures,
        "attempted": max(1, out.attempted),
        "failed": len(out.failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0 if not out.failures else 1


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS    # before numpy is first imported
    sys.exit(main())
