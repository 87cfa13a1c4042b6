"""The repo's wall-clock benchmark.  See ``bench/README.md``.

One workload, as the benchmark driver runs it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` every workload runs in
turn, each in a process of its own (so peak RSS and heap state are per
workload), and the results print as one table; ``--traced`` adds the
per-layer pass and ``--aa`` runs the set twice and compares the two.

Exits non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN_SEED = 7
COUNT_UNITS = {
    "switchboard.pipeline_calls": "count",
    "switchboard.heartbeats_answered": "count",
    "switchboard.calls_failed": "count",
    "net.messages_sent": "count",
    "net.bytes_sent": "bytes",
    "net.batches_sent": "count",
    "net.frames_per_batch": "ratio",
    "drbac.cache_hit_ratio": "ratio",
    "drbac.cache_misses": "count",
    "drbac.cache_invalidated": "count",
    "drbac.cache_evicted": "count",
    "drbac.search_edges": "count",
    "drbac.incr_work": "count",
    "drbac.regime_residency": "ratio",
}
"""Counters read off the layers after a repetition; a workload that does
not drive a layer reads 0 there."""

Metrics = dict[str, tuple[float | None, str]]


# -- one workload -------------------------------------------------------------------

def golden_digest(workload: harness.Workload) -> str | None:
    if not workload.deterministic or workload.seed != GOLDEN_SEED:
        return None
    golden = json.loads((BENCH_DIR / "golden" / f"seed{GOLDEN_SEED}.json").read_text())
    return golden[workload.name]["smoke" if workload.smoke else "full"]


def verdict(workload: harness.Workload, reps: list[harness.Rep]) -> tuple[int, int]:
    """``(attempted, failed)`` over ``reps``.  A seed-7 transcript digest
    that differs from the committed one fails every op of the workload."""
    attempted = sum(rep.rec.attempted for rep in reps)
    failed = sum(rep.rec.failed for rep in reps)
    expected = golden_digest(workload)
    digests = {rep.rec.digest for rep in reps}
    if workload.deterministic:
        print(f"digest {workload.name} seed={workload.seed} {sorted(digests)}")
    if expected is not None and digests != {expected}:
        print(f"GOLDEN-MISMATCH {workload.name}: expected {expected}")
        failed = attempted
    return attempted, failed


def untraced(workload: harness.Workload, seconds: float) -> tuple[Metrics, list]:
    prep_s = []
    for _ in range(1 if workload.smoke else harness.SETUP_REPEATS):
        prep, elapsed = harness.timed_prepare(workload)
        prep_s.append(elapsed)
    reps = harness.run_reps(workload, prep, seconds)
    samples = sum(len(rep.rec.latencies_ns) for rep in reps)
    print(f"reps {len(reps)}  latency samples {samples}")
    return harness.end_to_end(prep_s, reps), reps


def traced(workload: harness.Workload, out: str | None) -> tuple[Metrics, list]:
    import probes

    prep, _elapsed = harness.timed_prepare(workload)
    plain = [harness.run_rep(workload, prep) for _ in range(harness.MIN_REPS)]
    rec = harness.Recorder()
    tracer = layers.Tracer(rec)
    with layers.installed(tracer) as lost:
        shimmed = harness.run_rep(
            workload, prep, rec, measure=tracer.root(workload.measure)
        )
    if out:
        tracer.dump(out)

    metrics: Metrics = probes.run_all()
    counts = plain[-1].counts
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (counts.get(name, 0), unit)
    misses = plain[-1].rec.miss_ns
    metrics["drbac.miss_in_run_us"] = (
        statistics.median(misses) / 1e3 if misses else 0.0, "us"
    )

    metrics.update(layer_shares(tracer, rec, lost))
    metrics["bench.trace_overhead_frac"] = (
        shimmed.rec.window_ns / statistics.median(rep.rec.window_ns for rep in plain)
        - 1,
        "ratio",
    )

    latencies = [v for rep in plain for v in rep.rec.latencies_ns]
    metrics["bench.op_p99_us"] = (harness.percentile(sorted(latencies), 99) / 1e3, "us")
    ordered = plain[-1].rec.latencies_ns
    half = len(ordered) // 2
    metrics["bench.drift_ratio"] = (
        harness.percentile(sorted(ordered[half:]), 90)
        / harness.percentile(sorted(ordered[:half]), 90),
        "ratio",
    )
    rates = [rep.ops_per_s for rep in plain]
    metrics["bench.rep_spread"] = (
        (max(rates) - min(rates)) / statistics.median(rates), "ratio"
    )
    metrics["bench.virt_ops_per_s"] = (virt_ops_per_s(plain[-1]), "ops/s")
    return metrics, plain + [shimmed]


def layer_shares(tracer: layers.Tracer, rec: harness.Recorder, lost: dict) -> Metrics:
    """Each layer's share of the traced repetition's self time; prints
    the ten span names with the most."""
    by_layer, by_name = tracer.self_times(by=1), tracer.self_times(by=0)
    # The oracle's own searches ran inside the root span, unrecorded.
    by_layer["bench"] -= rec.oracle_ns
    by_name["bench.measure"] -= rec.oracle_ns
    total = sum(by_layer.values())
    for name, nanos in sorted(by_name.items(), key=lambda item: -item[1])[:10]:
        print(f"self-time {nanos / total:6.1%}  {name}")
    shares: Metrics = {
        f"{layer}.self_frac":
            (None if lost[layer] else by_layer.get(layer, 0) / total, "ratio")
        for layer in layers.LAYERS
    }
    shares["bench.other_frac"] = (by_layer["bench"] / total, "ratio")
    shares["bench.spans"] = (len(tracer.spans), "count")
    return shares


def virt_ops_per_s(rep: harness.Rep) -> float:
    return harness.ratio(rep.rec.window_ops, rep.rec.virt_elapsed)


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    if args.trace or args.traced:
        metrics, reps = traced(workload, args.out)
    else:
        metrics, reps = untraced(workload, args.seconds)
    attempted, failed = verdict(workload, reps)
    if args.trace or args.traced:
        metrics["bench.fail_ratio"] = (failed / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{workload.name:<16} {name:<34} {shown:>14} {unit}")
    # Deterministic by-products the A/A check compares exactly.
    print("INFO " + json.dumps({
        "virt_ops_per_s": virt_ops_per_s(reps[0]),
        "fail_ratio": failed / attempted,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


# -- every workload -----------------------------------------------------------------

def spawn(args: argparse.Namespace, name: str, trace: int) -> tuple[dict, dict]:
    """Run one workload in its own process; returns (result, info)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.out:
        command += ["--out", f"{args.out}.{name}"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: benchmark process failed ({done.returncode})")
    for line in lines:
        if line.startswith(("LAYER-COVERAGE-LOST", "GOLDEN-MISMATCH")):
            print(line)
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("INFO "))


def run_set(args: argparse.Namespace, names: list[str], trace: int) -> dict:
    return {name: spawn(args, name, trace) for name in names}


def print_table(results: dict) -> None:
    names = list(results)
    print(f"{'':<34}" + "".join(f"{name:>16}" for name in names))
    rows: dict[str, str] = {}
    for name in names:
        for metric, cell in results[name][0]["metrics"].items():
            rows.setdefault(metric, cell["unit"])
    for metric, unit in rows.items():
        cells = []
        for name in names:
            value = results[name][0]["metrics"][metric]["value"]
            cells.append(f"{'null' if value is None else format(value, '.6g'):>16}")
        print(f"{metric + ' [' + unit + ']':<34}" + "".join(cells))
    cells = [f"{results[name][1]['fail_ratio']:>16.6g}" for name in names]
    print(f"{'fail_ratio [ratio]':<34}" + "".join(cells))


def all_correct(results: dict) -> bool:
    return all(result["correct"] for result, _info in results.values())


def run_suite(args: argparse.Namespace) -> int:
    names = list(WORKLOADS)
    first = run_set(args, names, 0)
    print_table(first)
    ok = all_correct(first)
    if args.aa:
        second = run_set(args, names[::-1], 0)
        ok = all_correct(second) and compare(first, second) and ok
    if args.traced:
        per_layer = run_set(args, names, 1)
        print_table(per_layer)
        ok = all_correct(per_layer) and ok
    return 0 if ok else 1


def compare(first: dict, second: dict) -> bool:
    """The A/A self-check: two runs of the same code must agree within
    the benchmark's own bounds; prints the observed spread next to each."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    ok = True
    print(f"\n{'A/A':<16} {'metric':<16} {'first':>14} {'second':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in first:
        a, a_info = first[name]
        b, b_info = second[name]
        for metric, bound in bounds.items():
            x = a["metrics"][metric]["value"]
            y = b["metrics"][metric]["value"]
            spread = abs(x - y) / min(x, y)
            flag = "" if spread <= bound else "  EXCEEDS"
            ok = ok and spread <= bound
            print(f"{name:<16} {metric:<16} {x:>14.6g} {y:>14.6g} "
                  f"{spread:>8.3f} {bound:>6.2f}{flag}")
        # Exact: a failure is never noise, and virtual time on the fully
        # deterministic network workload may not move at all.
        exact = ["fail_ratio"] + ["virt_ops_per_s"] * (name == "guarded_rpc")
        for key in exact:
            same = a_info[key] == b_info[key]
            ok = ok and same
            print(f"{name:<16} {key:<16} {a_info[key]:>14.6g} {b_info[key]:>14.6g} "
                  f"{'exact' if same else 'DIFFERS':>8}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one workload's untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: add the per-layer pass")
    parser.add_argument("--aa", action="store_true",
                        help="run the untraced set twice and compare the two")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny repetition per workload")
    parser.add_argument("--out", help="write the traced pass's spans here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
