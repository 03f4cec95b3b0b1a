"""Compare runs of a parent commit and of a change, one row per workload.

Each side is a directory of result files written by `run.py --out`.  Runs
are paired by workload and seed; traced runs are ignored.  For each
end-to-end metric of BENCHMARK.json a cell reads:

* `gain`: the change wins at least 9 of 10 pairs (ties count for neither)
  and its median beats the parent's by more than the parent's
  interquartile spread.  It reads `gain?` when a larger share of
  operations failed than at the parent, which voids the gain.
* `REGRESSION`: the change's median is worse than the parent's by more
  than the metric's bound, a share of the parent's median.
* `unresolved`: the parent's interquartile spread, as a share of its
  median, exceeds the bound, and not every change run beats every parent
  run.
* `same`: none of these.

Each cell also gives the change of the median in percent (positive means
better) and the pairs won.
"""

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{workload: {seed: result}} of the untraced result files."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        s = result["settings"]
        if not s["trace"]:
            runs.setdefault(s["workload"], {})[s["seed"]] = result
    return runs


def verdict(metric, parent, change, more_failures):
    """(label, median change as a share, better direction positive; pairs won)."""
    sign = 1 if metric["better"] == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    delta = sign * (c_med - p_med) / p_med if p_med else 0.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        return ("gain?" if more_failures else "gain"), delta, wins
    if delta < -metric["bound"]:
        return "REGRESSION", delta, wins
    dominated = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and (q3 - q1) / p_med > metric["bound"] and not dominated:
        return "unresolved", delta, wins
    return "same", delta, wins


def main(parent_dir, change_dir):
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load(parent_dir), load(change_dir)
    lengths = {r["settings"]["run_seconds"] for side in (parent, change)
               for runs in side.values() for r in runs.values()}
    if len(lengths) > 1:
        print(f"warning: runs of different lengths {sorted(lengths)} s are not comparable")
    print("workload   pairs  fail_ratio(parent->change)  "
          + "  ".join(f"{m['name']:<26}" for m in metrics))
    for name in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[name]) & set(change[name]))
        if not seeds:
            continue
        p_runs = [parent[name][s] for s in seeds]
        c_runs = [change[name][s] for s in seeds]
        p_failed = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        cells = []
        for m in metrics:
            label, delta, wins = verdict(
                m, [r["metrics"][m["name"]] for r in p_runs],
                [r["metrics"][m["name"]] for r in c_runs], c_failed > p_failed)
            cells.append(f"{label} {delta:+.1%} {wins}/{len(seeds)}".ljust(26))
        print(f"{name:<10} {len(seeds):>5}  {p_failed:>8.2%} -> {c_failed:<12.2%} " + "  ".join(cells))
    return 0
