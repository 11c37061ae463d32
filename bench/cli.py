"""``python3 -m bench run|compare`` — the one command that prints every metric."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from typing import Dict, List, Optional

from . import spec as spec_module
from . import speed
from .procs import proc_usage
from .trace import Tracer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=None, help="plan seed (default 17)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                     help="1: traced run reporting the per-layer metrics")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, one round (contract test)")
    run.add_argument("--out", help="append one JSON record per workload run to this file")
    compare = sub.add_parser("compare", help="compare two --out files")
    compare.add_argument("base")
    compare.add_argument("change")
    return parser


def _print_table(title: str, names: List[str], values: Dict[str, float], table: Dict[str, dict],
                 samples: Dict[str, int], flagged: List[str]) -> None:
    print(f"  {title}")
    for name in names:
        note = f"  n={samples[name]}" if name in samples else ""
        if name in flagged:
            note += "  (fewer than 10 samples beyond this tail)"
        print(f"    {name:<48} {values[name]:>16.6f} {table[name]['unit']}{note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    """Run one workload; return its result record (printing metrics as it goes)."""
    from .harness import Measurement, Ops, RunContext
    from .workloads import WORKLOADS

    tracer = Tracer(enabled=trace)
    ctx = RunContext(seed=seed, seconds=seconds, trace=trace, smoke=smoke, tracer=tracer)
    calib_before = speed.calibrate()
    began = time.perf_counter()
    try:
        measurement = WORKLOADS[name](ctx)
    except Exception as error:  # noqa: BLE001 - a crashed workload is a failed run, reported as such
        traceback.print_exc()
        measurement = Measurement(Ops())
        measurement.ops.fail(f"workload raised {type(error).__name__}: {error}")
    finally:
        ctx.speed.close()
    wall = time.perf_counter() - began
    for key, value in proc_usage(os.getpid()).items():
        measurement.per_layer[f"proc.bench.{key}"] = value
    calib_after = speed.calibrate()

    section = "per_layer" if trace else "end_to_end"
    table = spec_module.metric_table(spec, section)
    measured = measurement.per_layer if trace else measurement.end_to_end
    ops = measurement.ops
    missing = [metric for metric in table if metric not in measured]
    if not trace and missing and not ops.failed:
        ops.fail(f"workload reported no value for end-to-end metrics {missing}")
    # A layer this workload never calls spent no time and did no work there.
    values = {metric: float(measured.get(metric, 0.0)) for metric in table}

    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  smoke={int(smoke)}")
    other = spec_module.metric_table(spec, "end_to_end" if trace else "per_layer")
    also = measurement.end_to_end if trace else measurement.per_layer
    _print_table(section, list(table), values, table, measurement.samples, measurement.unsupported_tails)
    shown = [metric for metric in other if metric in also]
    if shown:
        _print_table("also measured", shown, also, other, measurement.samples, measurement.unsupported_tails)
    if measurement.raw:
        print("  raw wall clock (unscaled twins of the tick-scaled timings above)")
        for metric, value in measurement.raw.items():
            print(f"    raw.{metric:<44} {value:>16.6f}")
    drift = (calib_after - calib_before) / calib_before
    tick_ms, tick_spread, tick_count = ctx.speed.summary()
    print(f"  calib_ms before={calib_before:.3f} after={calib_after:.3f} drift={drift:+.1%}"
          f"  ticks: n={tick_count} median={tick_ms:.3f}ms spread={tick_spread:.1%}"
          f" (reference {speed.REFERENCE_TICK_MS}ms)")
    print(f"  phase_s={measurement.phase_seconds:.2f} wall_s={wall:.2f}")
    print(f"  operations attempted={ops.attempted} failed={ops.failed}")
    for message in ops.messages:
        print(f"  FAILED: {message}")
    if trace and tracer.spans:
        path = spec_module.OUT_DIR / f"trace-{name}-{seed}.json"
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans -> {path.relative_to(spec_module.ROOT)}")

    result = {
        "correct": ops.failed == 0,
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": {metric: {"value": values[metric], "unit": table[metric]["unit"]} for metric in table},
    }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": int(smoke),
        "calib_ms": [calib_before, calib_after], "tick_ms": tick_ms, "wall_s": wall, "result": result,
        "also": {metric: also[metric] for metric in shown}, "raw": measurement.raw,
        "segments": measurement.segments,
    }


def command_run(args: argparse.Namespace) -> int:
    spec = spec_module.load_spec()
    spec_module.make_program_importable()
    names = args.workload or spec_module.workload_names(spec)
    unknown = [name for name in names if name not in spec_module.workload_names(spec)]
    if unknown:
        print(f"unknown workload(s) {unknown}; BENCHMARK.json names {spec_module.workload_names(spec)}",
              file=sys.stderr)
        return 2
    from .inputs import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if not args.smoke:  # a smoke run checks the contract, not timings
        cpu = speed.pin_to_one_cpu()
        print(f"pinned to CPU {cpu}" if cpu is not None else "no CPU affinity on this platform: not pinned")
    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    failed = False
    for name in names:
        record = run_workload(name, seed, seconds, bool(args.trace), args.smoke, spec)
        failed = failed or not record["result"]["correct"]
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        # The result line: last line of standard output for this workload.
        print(json.dumps(record["result"]), flush=True)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return command_run(args)
    from .compare import command_compare

    return command_compare(args.base, args.change)
