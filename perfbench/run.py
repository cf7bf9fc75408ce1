#!/usr/bin/env python3
"""Run one benchmark workload against the entrange sources of this checkout.

    python3 perfbench/run.py --workload exact-1d --seed 1 --seconds 12 --trace 0

Prints the end-to-end report (every metric by name and unit, ``n/a`` where
the workload has no such operation), then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the gated
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Traced runs also write their spans to
``.perfbench/spans-<workload>.jsonl``. Exits non-zero without a result when
the library sources are missing or the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("exact-1d", "region-2d", "approx-2d", "series-1d")
MAX_MISS_FRAC = 0.05   # README: estimator bounds hold in >= 95% of runs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's own smoke tests")
    return p.parse_args(argv)


def import_library() -> bool:
    """Import entrange from this checkout's sources, and only from there."""
    if not (SRC / "entrange" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return False
    # the package is imported as perfbench.*, never as top-level modules
    sys.path[:] = [str(SRC), str(ROOT)] + [p for p in sys.path if Path(p).resolve() != HERE]
    import entrange

    if not Path(entrange.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported entrange from {entrange.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_library():
        return 2
    from perfbench import metrics, workloads

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        ctx = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), tmp,
                            args.size)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for err in ctx.errors:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
    report = workloads.report(ctx)
    miss = report["approx_miss_frac"][0] or 0.0
    correct = ctx.failed == 0 and miss <= MAX_MISS_FRAC
    if args.trace:
        values = workloads.layer_metrics(ctx)
        units = metrics.LAYER
        ctx.tracer.write(OUT / f"spans-{args.workload}.jsonl")
        print(f"# {args.workload} seed={args.seed} per-layer, {len(ctx.tracer.spans)} spans")
        for name, value in values.items():
            print(f"{name:<34} {fmt(value):>14} {units[name]}")
    else:
        values = workloads.gated(ctx)
        units = metrics.GATED
        print(f"# {args.workload} seed={args.seed} end-to-end, times at reference speed "
              f"(host ran at {ctx.clock.host_speed():.3g}x the reference loop's nominal time)")
        for name, unit in metrics.REPORT.items():
            value, samples = report[name]
            n = "" if samples is None or value is None else f"  (n={samples})"
            print(f"{name:<22} {fmt(value):>14} {unit}{n}")
        print("# wall clock: " + ", ".join(f"{k} {fmt(v)}" for k, v in ctx.raw.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
