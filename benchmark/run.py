#!/usr/bin/env python3
"""End-to-end benchmark of fmeter: build, run, check and compare.

Usage (from the repository root):

  python3 benchmark/run.py [--seed N] [--seconds S] [--smoke] [--trace]
      Builds fmeter_bench, runs every workload in its own process from a
      scratch directory under .bench_work/, prints one row per workload with
      every metric and its unit, and writes .bench_work/results.json.
      --trace adds a traced run per workload: per-layer metrics, a
      self-time table, a Chrome trace under .bench_work/traces/ and the
      tracing overhead on each end-to-end latency.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      Runs one workload once. The last line of standard output is one JSON
      object: {"correct", "attempted", "failed", "metrics"}, where metrics
      holds every end_to_end metric of BENCHMARK.json (--trace 0) or every
      per_layer metric (--trace 1; 0 for a layer the workload never calls).

  python3 benchmark/run.py compare ROOT_A ROOT_B [--pairs N]
      Builds this benchmark against two source trees (in .bench_work/build-a
      and build-b), runs N pairs per workload alternating which side runs
      first (same seed within a pair), and reports per (workload, metric)
      each side's median and quartiles, B's pair win fraction and a verdict:
      gain, unchanged, regression or unresolved (run-to-run spread wider
      than the metric's bound). Writes .bench_work/compare.json.

Exit status: 0 success; 1 a correctness check failed, a run failed or (for
compare) a metric regressed; 2 bad usage or a tree that cannot be built;
3 (compare) a metric is unresolved but none regressed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("monitor", "archive-search", "ingest-query")
PREPARED = ("archive-search", "ingest-query")
# Together under three minutes; a normal run needs about a fifth of each.
PREPARE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 110
BUILD_TIMEOUT_S = 900
SMOKE_SECONDS = 0.5


class BenchError(Exception):
    """A failure that ends the command without a result."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ build


def build(source_root, build_dir):
    """Configures and builds fmeter_bench; returns the binary path.

    Configuring every time is cheap and points a reused build directory at
    `source_root` even when it last built another tree.
    """
    source_root = Path(source_root).resolve()
    if not (source_root / "CMakeLists.txt").is_file() or not (
            source_root / "src").is_dir():
        raise BenchError(f"{source_root} holds no fmeter source tree", 2)
    build_dir = Path(build_dir)
    build_dir.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 f"-DFMETER_SOURCE_DIR={source_root}"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(build_dir), "-j", jobs,
                "--target", "fmeter_bench"]
    for command in (configure, compile_):
        try:
            done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError("build timed out", 2) from None
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}", 2)
    return build_dir / "fmeter_bench"


def default_build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target


# -------------------------------------------------------------------- run


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns its result record."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    common = ["--seed", str(seed), "--dir", str(scratch),
              "--smoke", "1" if smoke else "0"]
    try:
        if workload in PREPARED:
            _call([str(binary), "prepare", workload] + common,
                  PREPARE_TIMEOUT_S, scratch, f"prepare {workload}")
        out = scratch / "result.json"
        command = [str(binary), "run", workload, "--seconds", str(seconds),
                   "--trace", "1" if trace else "0", "--out", str(out)] + common
        if trace:
            traces = work / "traces"
            traces.mkdir(exist_ok=True)
            command += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
        _call(command, RUN_TIMEOUT_S, scratch, f"run {workload}",
              allowed=(0, 1))
        if not out.exists():
            raise BenchError(f"{workload} wrote no result")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # Flush the deletion now (and the discards it triggers) so its disk
        # traffic cannot land in the next run's fsyncs.
        os.sync()


def _call(command, timeout, cwd, what, allowed=(0,)):
    try:
        done = subprocess.run(command, cwd=cwd, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out after {timeout} s") from None
    if done.returncode not in allowed:
        raise BenchError(f"{what} exited with {done.returncode}")


def contract_line(record, spec, trace):
    """The one-line result: every metric BENCHMARK.json names for the mode."""
    metrics = {}
    if trace:
        reported = record["per_layer"]
        known = {m["name"] for m in spec["per_layer"]}
        unknown = sorted(set(reported) - known)
        if unknown:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: "
                             f"{unknown}")
        for m in spec["per_layer"]:
            value = reported.get(m["name"], {"value": 0.0})["value"]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        reported = record["end_to_end"]
        for m in spec["end_to_end"]:
            entry = reported.get(m["name"])
            if entry is None or not entry["value"] > 0:
                raise BenchError(f"end-to-end metric {m['name']} missing or "
                                 f"not positive: {entry}")
            metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


# ------------------------------------------------------------- report


def print_table(records, spec):
    """One row per workload: every metric measured with tracing off, those
    without a bound in BENCHMARK.json (such as request_us_p99) last."""
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for r in records:
        for name, entry in r["end_to_end"].items():
            if name not in units:
                names.append(name)
                units[name] = entry["unit"]
    header = ["workload", "ok"] + [f"{n} ({units[n]})" for n in names]
    rows = [[r["workload"], "yes" if r["correct"] else "NO"] +
            [_fmt(r["end_to_end"].get(n, {}).get("value")) for n in names]
            for r in records]
    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    for row in [header] + rows:
        print("  ".join(str(x).rjust(w) for x, w in zip(row, widths)))


def print_traced(untraced, traced, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n== {traced['workload']} (traced) ==")
    for name, entry in traced["per_layer"].items():
        print(f"  {name:36s} {_fmt(entry['value']):>14s} {units.get(name, '')}")
    print("  self time by layer:")
    for row in traced["layers"]:
        print(f"    {row['name']:22s} n={row['count']:<6d} self "
              f"{row['self_ms']:10.1f} ms  of {row['total_ms']:10.1f} ms  "
              f"self p50 {row['self_us_p50']:10.1f} us")
    for q in ("p50", "p99"):
        # ingest-query's traced run spends only the first half of its
        # schedule at the untraced run's rate: compare the same queries.
        first_half = untraced["per_layer"].get("bench.first_half_request_us_" + q)
        base = (first_half or untraced["end_to_end"]["request_us_" + q])["value"]
        with_spans = traced["per_layer"]["bench.traced_request_us_" + q]["value"]
        print(f"  tracing overhead on request_us_{q}: "
              f"{(with_spans / base - 1) * 100:+.1f}% "
              f"({base:.1f} -> {with_spans:.1f} us)")
    layers = {row["name"]: row for row in traced["layers"]}
    if traced["workload"] == "monitor":
        children = ["collector.roll", "vsm.transform", "live.add_batch",
                    "database.classify", "live.search"]
        total = sum(layers[c]["self_us_p50"] for c in children if c in layers)
        verdict = untraced["end_to_end"]["request_us_p50"]["value"]
        traced_verdict = traced["per_layer"]["bench.traced_request_us_p50"][
            "value"]
        print(f"  verdict children self p50 sum {total:.1f} us = "
              f"{total / verdict * 100:.1f}% of request_us_p50, "
              f"{total / traced_verdict * 100:.1f}% of the traced run's")
    layer = traced["per_layer"]
    if "bench.max_ingest_rate_within_limit" in layer:
        print("  ingest ramp (us):")
        for step in ("2k", "5k", "10k"):
            values = [_fmt(layer[f"bench.{m}_at_{step}"]["value"]) for m in
                      ("query_us_p50", "query_us_p99", "ingest_lag_us_p99")]
            print(f"    {step:>3s} signatures/s: query p50 {values[0]}, "
                  f"query p99 {values[1]}, ingest lag p99 {values[2]}")
        print(f"    highest rate within the limit: "
              f"{_fmt(layer['bench.max_ingest_rate_within_limit']['value'])}"
              f" signatures/s")
        print(f"    whole ramp: "
              f"{_fmt(layer['bench.ramp_cpu_us_per_doc']['value'])} CPU us "
              f"per signature, peak RSS "
              f"{_fmt(layer['bench.ramp_peak_rss_mb']['value'])} MB")
    if traced["workload"] == "ingest-query" and "live.add_batch" in layers:
        lag = traced["per_layer"]["bench.ingest_lag_us_p50"]["value"]
        add = layers["live.add_batch"]["self_us_p50"]
        print(f"  live.add_batch self p50 {add:.1f} us = "
              f"{add / lag * 100:.1f}% of ingest lag p50 {lag:.1f} us")


def _fmt(value):
    if value is None:
        return "-"
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4g}" if abs(value) < 100 else f"{value:.1f}"
    return f"{value:.4g}"


# ------------------------------------------------------------ compare


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(a_runs, b_runs, better, bound):
    """Verdict for one (workload, metric) over paired runs of A and B.

    a_runs[i] and b_runs[i] ran with the same seed. B wins a pair when it
    reads strictly better; ties count for neither side.
    """
    a_q1, a_med, a_q3 = quartiles(a_runs)
    b_q1, b_med, b_q3 = quartiles(b_runs)
    lower = better == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(a_runs, b_runs))
    win_fraction = wins / len(a_runs)
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = (max(b_runs) < min(a_runs)) if lower else (
        min(b_runs) > max(a_runs))
    all_worse = (min(b_runs) > max(a_runs)) if lower else (
        max(b_runs) < min(a_runs))
    if win_fraction >= 0.9 and worse < 0 and abs(b_med - a_med) > a_q3 - a_q1:
        verdict = "gain"
    elif worse > bound and (worse > spread or all_worse):
        # Worse by more than the bound and by more than the noise: a noisy
        # side cannot hide a shift larger than its own spread.
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
            "b_median": b_med, "b_q1": b_q1, "b_q3": b_q3,
            "win_fraction": win_fraction, "worse": worse, "spread": spread,
            "bound": bound, "within_bound": worse <= bound,
            "verdict": verdict}


def compare_runs(runs_a, runs_b, spec):
    """Rows for every workload and end-to-end metric.

    runs_a / runs_b map a workload to its list of result records, in pair
    order. A pair with a failed or incorrect run on either side is reported
    in `failures` and left out of the statistics.
    """
    rows, failures = [], []
    for workload in runs_a:
        pairs = []
        for a, b in zip(runs_a[workload], runs_b[workload]):
            bad = [side for side, r in (("A", a), ("B", b))
                   if r is None or not r["correct"]]
            if bad:
                failures.append(f"{workload}: run failed on {'/'.join(bad)}")
            else:
                pairs.append((a, b))
        if not pairs:
            continue
        for m in spec["end_to_end"]:
            a_vals = [a["end_to_end"][m["name"]]["value"] for a, _ in pairs]
            b_vals = [b["end_to_end"][m["name"]]["value"] for _, b in pairs]
            row = compare_metric(a_vals, b_vals, m["better"], m["bound"])
            row.update(workload=workload, metric=m["name"], unit=m["unit"],
                       pairs=len(pairs))
            rows.append(row)
    return rows, failures


def compare_exit_code(rows, failures):
    verdicts = {row["verdict"] for row in rows}
    if failures or "regression" in verdicts:
        return 1
    if "unresolved" in verdicts:
        return 3
    return 0


def print_compare(rows, failures):
    print(f"{'workload':15s} {'metric':18s} {'A median [Q1, Q3]':>32s} "
          f"{'B median [Q1, Q3]':>32s} {'B wins':>6s} {'B worse':>8s} "
          f"{'bound':>6s}  verdict")
    for r in rows:
        a = f"{_fmt(r['a_median'])} [{_fmt(r['a_q1'])}, {_fmt(r['a_q3'])}]"
        b = f"{_fmt(r['b_median'])} [{_fmt(r['b_q1'])}, {_fmt(r['b_q3'])}]"
        print(f"{r['workload']:15s} {r['metric']:18s} {a:>32s} {b:>32s} "
              f"{r['win_fraction']:6.2f} {r['worse'] * 100:+7.1f}% "
              f"{r['bound'] * 100:5.0f}%  {r['verdict']}")
    for failure in failures:
        print(f"FAILED {failure}")


def compare(args, spec):
    roots = [Path(args.root_a).resolve(), Path(args.root_b).resolve()]
    binaries = [build(root, ROOT / ".bench_work" / f"build-{side}")
                for root, side in zip(roots, "ab")]
    workloads = args.workloads or list(WORKLOADS)
    runs = [{w: [] for w in workloads}, {w: [] for w in workloads}]
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for workload in workloads:
            for side in order:
                log(f"pair {pair + 1}/{args.pairs} {workload} "
                    f"side {'AB'[side]} seed {seed}")
                try:
                    record = run_workload(binaries[side], workload, seed,
                                          args.seconds, False)
                except BenchError as error:
                    log(f"  failed: {error}")
                    record = None
                runs[side][workload].append(record)
    rows, failures = compare_runs(runs[0], runs[1], spec)
    print_compare(rows, failures)
    out = ROOT / ".bench_work" / "compare.json"
    out.write_text(json.dumps({"roots": [str(r) for r in roots],
                               "runs": runs, "rows": rows,
                               "failures": failures}, indent=1))
    log(f"wrote {out}")
    return compare_exit_code(rows, failures)


# ---------------------------------------------------------------- main


def main(argv):
    spec = load_spec()
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("root_a")
        parser.add_argument("root_b")
        parser.add_argument("--pairs", type=int, default=10)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float,
                            default=spec["run_seconds"])
        parser.add_argument("--workloads", nargs="*", choices=WORKLOADS)
        args = parser.parse_args(argv[1:])
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        return compare(args, spec)

    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(ROOT / ".bench_work" /
                                             "results.json"))
    args = parser.parse_args(argv)
    trace = args.trace == "1"
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    binary = build(ROOT, default_build_dir())

    if args.workload:
        record = run_workload(binary, args.workload, args.seed, seconds, trace,
                              args.smoke)
        line = contract_line(record, spec, trace)
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] and line["failed"] == 0 else 1

    records, traced = [], []
    for workload in WORKLOADS:
        log(f"running {workload} (seed {args.seed})")
        records.append(run_workload(binary, workload, args.seed, seconds,
                                    False, args.smoke))
        if trace:
            log(f"running {workload} traced")
            traced.append(run_workload(binary, workload, args.seed, seconds,
                                       True, args.smoke))
    print_table(records, spec)
    for untraced, with_spans in zip(records, traced):
        print_traced(untraced, with_spans, spec)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"untraced": records,
                                          "traced": traced}, indent=1))
    log(f"wrote {args.out}")
    ok = all(r["correct"] and r["failed"] == 0 for r in records + traced)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        log(f"error: {error}")
        sys.exit(error.code)
