"""efglab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; efglab is imported from its src/
directory. With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer ones. The last line of standard output is the
result object; a copy and the run's details go to bench/out/. The exit code
is 0 when every check passed, 1 when one failed and 2 when efglab's sources
are missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# One thread: the workloads measure efglab's own single-threaded loops.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each workload in a few seconds, for "
                        "smoke tests")
    args = p.parse_args(argv)

    if not (SRC / "efglab" / "__init__.py").is_file():
        print(f"error: no efglab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    table = workloads.WORKLOADS if args.size == "full" else workloads.TINY
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    result, detail = workloads.measure(table[args.workload], args.seed,
                                       args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"result": result, **detail}, f, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for problem in detail["operation_problems"]:
        print(f"FAILED {problem}")
    if detail["workload_problem"]:
        print(f"CHECK FAILED {detail['workload_problem']}")
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
