"""``python3 -m bench compare BASE CHANGE`` — two ``--out`` files, row by row.

Each file holds one JSON record per workload run (append several runs of each
side to its file).  For every pairing of end-to-end metric and workload the
comparison prints each side's median and quartiles and the ratio of the
medians with its base, and a verdict against the bound ``BENCHMARK.json``
fixes for the metric.  Where either side's own run-to-run spread (quartile
distance over median) exceeds the bound, the verdict is ``unresolved`` — the
runs cannot tell ``unchanged`` from a regression of that size.
"""

from __future__ import annotations

import json
from typing import Dict, List

from . import spec as spec_module
from . import stats


def _load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> per-run values`` of the untraced full-size runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    calib: Dict[str, List[float]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] or record["smoke"]:
                continue
            per_metric = values.setdefault(record["workload"], {})
            for metric, cell in record["result"]["metrics"].items():
                per_metric.setdefault(metric, []).append(cell["value"])
            calib.setdefault(record["workload"], []).extend(record["calib_ms"])
    for workload, samples in calib.items():
        values[workload]["calib_ms"] = samples
    return values


def verdict(better: str, bound: float, base: Dict[str, float], change: Dict[str, float]) -> str:
    if max(base["spread"], change["spread"]) > bound:
        return "unresolved"
    ratio = change["median"] / base["median"]
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse > bound:
        return "REGRESSED"
    if -worse > bound:
        return "improved"
    return "unchanged"


def command_compare(base_path: str, change_path: str) -> int:
    spec = spec_module.load_spec()
    table = spec_module.metric_table(spec, "end_to_end")
    base, change = _load(base_path), _load(change_path)
    regressed = False
    for workload in spec_module.workload_names(spec):
        if workload not in base or workload not in change:
            print(f"== {workload}: missing on one side, skipped")
            continue
        runs = (len(base[workload]["setup_s"]), len(change[workload]["setup_s"]))
        print(f"== {workload}  runs: base={runs[0]} change={runs[1]}")
        for side, data in (("base", base), ("change", change)):
            calib = stats.quartiles(data[workload]["calib_ms"])
            print(f"   calib_ms {side}: median {calib['median']:.3f} spread {calib['spread']:.1%}")
        print(f"   {'metric':<22}{'base median [q1, q3]':>40}{'change median [q1, q3]':>40}"
              f"{'change/base':>14}  verdict (bound)")
        for metric, entry in table.items():
            a = stats.quartiles(base[workload][metric])
            b = stats.quartiles(change[workload][metric])
            outcome = verdict(entry["better"], entry["bound"], a, b)
            regressed = regressed or outcome == "REGRESSED"
            print(
                f"   {metric:<22}"
                f"{a['median']:>16.4f} [{a['q1']:.4f}, {a['q3']:.4f}]".ljust(65)
                + f"{b['median']:>16.4f} [{b['q1']:.4f}, {b['q3']:.4f}]".ljust(43)
                + f"{b['median'] / a['median']:>8.3f}x of {a['median']:.4f} {entry['unit']}"
                + f"  {outcome} ({entry['bound']:.0%}, spreads {a['spread']:.1%}/{b['spread']:.1%})"
            )
    return 1 if regressed else 0
