"""Benchmark of the nottingham library: seeded workloads, checked outputs.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py ... --out perfbench/results/parent   # also write a result file
    python3 perfbench/run.py --compare perfbench/results/parent perfbench/results/change
    python3 perfbench/run.py --record-digests

Run it from the root of a source tree; it imports the library from `src/`.
Load is a closed loop with one caller in one thread: the next operation
starts when the previous one returns.  A run repeats whole rounds (one
pass over the workload's input pool) until `--seconds` of wall time have
passed.  Outputs are checked after the timed loop (see workloads.py).

`--trace 0` prints the end-to-end metrics, with times scaled to a fixed
machine speed by a reference kernel timed between operations (see
reference.py), and the unscaled wall times.  `--trace 1` alternates
untraced rounds with rounds in which every layer's public functions are
wrapped (see spans.py); it prints the per-layer metrics, per round, and
fails if tracing changed a single output byte.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `failed` counts operations that
raised, refused a valid input (CLI exit 2) or returned a wrong result.
`correct` is false when any operation returned a wrong result (wrong
output bytes or exit code) or when repeated or traced runs of an operation
disagree; an operation that only raised or refused is a failure, not a
wrong result.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy       # imported once here, so the timed set-ups exclude it

import compare
import spans
import workloads
from reference import Reference
from workloads import Record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "nottingham"
DIGESTS = HERE / "digests.json"
# set-ups per run, median reported: at least 3, and up to 40 within 2 s
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 40, 2.0
SETUP_PROBES = 5            # reference probes before the first set-up and after each
P90_MIN_SAMPLES = 100

clock = time.perf_counter


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()          # only if no other run is using it
    except OSError:
        pass


def import_library():
    """A fresh import of the package and its CLI from this tree's src/."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    nt = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not Path(nt.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {nt.__file__}, not the tree's src/")
    return nt


def setup(name, seed, tiny, workdir):
    """Import, generate the inputs, write the input files and run one
    untimed warm-up operation.  Returns ((start, end), pool, order, calls)."""
    t0 = clock()
    nt = import_library()
    pool, order = workloads.generate(name, seed, tiny)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calls = workloads.bind(name, pool, workloads.write_files(pool, workdir), nt)
    try:
        calls[0]()
    except Exception:
        pass                        # the timed loop counts it
    return (t0, clock()), pool, order, calls


class Pass:
    """One closed-loop pass: latencies and, per pool index, the first record
    and whether every later record of that index matched it."""

    def __init__(self):
        self.latencies = []         # seconds, per executed operation
        self.starts = []            # clock() at its start
        self.executed = []          # pool index, per executed operation
        self.first = {}
        self.unstable = set()
        self.rounds = 0

    def failed_mask(self, bad):
        return [i in bad or i in self.unstable for i in self.executed]


def run_round(res, calls, pool, order, ref=None):
    """One pass over the pool, timing each operation; appends to `res`.
    With `ref`, the reference kernel is probed between operations."""
    for i in order:
        call = calls[i]
        if ref:
            ref.maybe_probe()
        t0 = clock()
        try:
            result = call()
        except Exception as exc:    # an operation that raises is a failure
            dt = clock() - t0
            rec = Record(f"raised={type(exc).__name__}".encode(), raised=True)
        else:
            dt = clock() - t0
            rec = workloads.finish(pool[i], result)
        res.latencies.append(dt)
        res.starts.append(t0)
        res.executed.append(i)
        if i not in res.first:
            res.first[i] = rec
        elif res.first[i].data != rec.data:
            res.unstable.add(i)
    res.rounds += 1
    return res


def run_pass(calls, pool, order, seconds, ref):
    """Whole rounds until `seconds` of wall time have passed."""
    res = Pass()
    start = clock()
    while not res.rounds or clock() - start < seconds:
        run_round(res, calls, pool, order, ref)
    ref.probe()                     # so the last operation has one after it
    return res


def run_traced(calls, pool, order, seconds):
    """(untraced, traced) passes of alternating rounds, so both see the same
    machine speed, until `seconds` of wall time have passed."""
    base, run = Pass(), Pass()
    tracer = spans.Tracer()
    start = clock()
    while not run.rounds or clock() - start < seconds:
        run_round(base, calls, pool, order)
        tracer.install(PACKAGE)
        try:
            run_round(run, calls, pool, order)
        finally:
            tracer.uninstall()
    return base, run, tracer


def bad_indices(name, pool, first, digests):
    """(errors, wrong): pool indices whose operation raised or refused a
    valid input, and those whose output failed its check or its digest."""
    errors, wrong = set(), set()
    for i, rec in first.items():
        try:
            ok = workloads.check(name, pool[i], rec)
        except (ValueError, IndexError):     # output too mangled to parse
            ok = False
        if ok and (digests is None or digests[i] in (None, _sha(rec))):
            continue
        (errors if workloads.is_error(pool[i], rec) else wrong).add(i)
    return errors, wrong


def _sha(rec):
    return hashlib.sha256(rec.data).hexdigest()


def load_digests(name, seed, tiny, pool):
    """Recorded digests for the default seed at full size, else None."""
    if tiny or seed != workloads.DEFAULT_SEED:
        return None
    recorded = json.loads(DIGESTS.read_text())["workloads"][name]
    if len(recorded) != len(pool):
        raise RuntimeError(f"{DIGESTS.name} is stale for {name}: re-record it")
    return recorded


def entry_median(executed, latencies, failed):
    """Median over pool entries of each entry's median latency; a failed
    operation counts as infinitely slow.  Every round visits each entry
    once, so this is the median latency of the mix, but the rank of an entry
    does not flip with the jitter of single operations."""
    by_entry = {}
    for i, t, f in zip(executed, latencies, failed):
        by_entry.setdefault(i, []).append(math.inf if f else t)
    return statistics.median(statistics.median(ts) for ts in by_entry.values())


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(name, seed, seconds, traced, tiny=False):
    """Run one workload and return the result dict (see main)."""
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    ref = Reference()
    try:
        setups = []                 # (start, end) of each set-up
        ref.probe(SETUP_PROBES)
        while True:
            span, pool, order, calls = setup(name, seed, tiny, workdir)
            ref.probe(SETUP_PROBES)
            setups.append(span)
            if traced or len(setups) >= SETUPS_MAX or (
                    len(setups) >= SETUPS_MIN
                    and sum(e - s for s, e in setups) >= SETUP_BUDGET_S):
                break
        if not traced:
            run = run_pass(calls, pool, order, seconds, ref)
        else:
            base, run, tracer = run_traced(calls, pool, order, seconds)
            changed = sorted({i for i, rec in run.first.items() if rec.data != base.first[i].data}
                             | run.unstable | base.unstable)
            if changed:
                raise RuntimeError(f"outputs differ between traced and untraced rounds "
                                   f"at pool entries {changed}")
    finally:
        remove_workdir(workdir)

    errors, wrong = bad_indices(name, pool, run.first, load_digests(name, seed, tiny, pool))
    failed = run.failed_mask(errors | wrong)
    n_failed = sum(failed)
    attempted = len(run.latencies)
    busy = sum(run.latencies)
    result = {
        "correct": not wrong and not run.unstable,
        "attempted": attempted,
        "failed": n_failed,
        "settings": settings(name, seed, tiny, pool, seconds, traced),
    }
    result["settings"].update(rounds=run.rounds, measured_s=busy)
    if traced:
        result["metrics"] = tracer.metrics(run.rounds, busy / sum(base.latencies))
        return result
    scaled = [t * ref.scale(s, s + t) for t, s in zip(run.latencies, run.starts)]
    setup_s = [(e - s) * ref.scale(s, e) for s, e in setups]
    result["metrics"] = {
        "ops_per_s": (attempted - n_failed) / sum(scaled),
        "latency_p50_ms": entry_median(run.executed, scaled, failed) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - n_failed / attempted,
    }
    timed = [math.inf if f else t for t, f in zip(scaled, failed)]
    result["extra"] = {
        "fail_ratio": n_failed / attempted,
        "latency_p90_ms": (percentile(timed, 0.9) * 1e3
                           if attempted >= P90_MIN_SAMPLES else None),
        "latency_samples": attempted,
        "setup_samples": setup_s,
        "machine_speed": ref.speed(),
        "wall_ops_per_s": (attempted - n_failed) / busy,
        "wall_latency_p50_ms": entry_median(run.executed, run.latencies, failed) * 1e3,
        "wall_setup_s": statistics.median(e - s for s, e in setups),
        "errors": sorted(errors),
        "wrong": sorted(wrong),
    }
    return result


def settings(name, seed, tiny, pool, seconds, traced):
    return {
        "workload": name, "seed": seed, "tiny": tiny, "trace": int(traced),
        "run_seconds": seconds,
        "load": "closed loop, one caller, one thread, one process",
        **workloads.describe(name, pool, tiny),
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _commit(),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """HEAD of the tree's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def report(result):
    """Human-readable lines, then the one-line JSON result."""
    s = result["settings"]
    print(f"# {s['workload']} seed={s['seed']} trace={s['trace']}: "
          f"{result['attempted']} ops in {s['rounds']} rounds of {s['pool_size']}, "
          f"{s['measured_s']:.2f} s busy; {s['cpu_model']}, nproc={s['nproc']}, "
          f"python {s['python']}, numpy {s['numpy']}, commit {s['commit'][:12]}")
    if s["trace"]:
        units = {n: u for n, u, _ in spans.metric_specs()}
    else:
        units = UNITS
        x = result["extra"]
        p90 = x["latency_p90_ms"]
        print(f"  latency_p90_ms       "
              + (f"{p90:.4f} ms" if p90 is not None
                 else f"n/a (fewer than {P90_MIN_SAMPLES} samples)")
              + f"  [n={x['latency_samples']}]")
        print(f"  fail_ratio           {x['fail_ratio']:.6f}  "
              f"[{result['failed']}/{result['attempted']}]")
        print(f"  machine speed {x['machine_speed']:.3f} of nominal; unscaled wall times: "
              f"{x['wall_ops_per_s']:.6g} ops/s, p50 {x['wall_latency_p50_ms']:.6g} ms, "
              f"setup {x['wall_setup_s']:.6g} s")
    for key, value in result["metrics"].items():
        print(f"  {key:<36} {value:.6g} {units[key]}")
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(line))


def record_digests():
    """Write digests.json from the default seed's outputs.  Refuses when an
    output fails its check; operations that fail get no digest."""
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.NAMES:
        workdir = HERE / "_work" / f"record-{os.getpid()}"
        try:
            _, pool, order, calls = setup(name, workloads.DEFAULT_SEED, False, workdir)
            run = run_round(Pass(), calls, pool, order)
        finally:
            remove_workdir(workdir)
        errors, wrong = bad_indices(name, pool, run.first, None)
        if wrong:
            raise RuntimeError(f"{name}: wrong outputs at pool entries {sorted(wrong)}")
        if errors:
            print(f"{name}: no digest for failing pool entries {sorted(errors)}")
        out["workloads"][name] = [None if "hostile" in pool[i] or i in errors
                                  else _sha(run.first[i]) for i in range(len(pool))]
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="directory for a result file")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
