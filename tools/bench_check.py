#!/usr/bin/env python3
"""Diff a freshly emitted BENCH_*.json against a committed baseline.

Every bench binary writes a machine-readable ``{"bench": ..., "rows": [...]}``
trajectory file (see bench_common.hpp's emit_json). This script joins the
fresh rows against the committed baseline on their identity fields (every
field except the measured ones) and fails when ``us_per_query`` regressed by
more than the threshold on rows large enough to be stable — by default >20%
at >= 10k docs, the sizes where the measurement noise is far below the gate.

Caveats, by design:

* Absolute microseconds only compare meaningfully on the machine that
  produced the baseline. CI's smoke runs cap the corpus below the enforced
  sizes, so there the script validates schema and row identity and reports
  the small-row deltas without failing; the enforced gate matters for full
  runs on the baseline machine (and for refreshing the baseline alongside
  any intentional perf change).
* Every row carries host facts (emit_json stamps them): ``cores`` (hardware
  threads), ``simd`` (the exact path's scoring kernel) and ``cpu_model``
  (the CPU's model name). They are measured fields, not row identity, and when any matched row's host facts
  differ from its baseline row's, the script prints one ``[host]`` note
  for the file naming the differences, since its deltas then compare two
  machines.
* Rows present in the baseline but missing from the fresh file are warnings
  (smoke runs legitimately truncate the ladder); brand-new fresh rows are
  reported, not failed, so adding a policy to a bench does not break CI.

Usage:
  tools/bench_check.py FRESH BASELINE [--threshold 0.20] [--min-docs 10000]
  tools/bench_check.py BENCH_index_scaling.json /tmp/baseline.json

Exit status: 0 ok, 1 enforced regression, 2 usage/schema error.
"""

import argparse
import json
import sys

MEASURED_FIELDS = {
    "us_per_query", "queries_per_sec", "prune_rate", "postings_visited",
    "blocks_skipped", "seconds", "docs_per_sec",
    # Host facts (see HOST_FIELDS).
    "cores", "simd", "cpu_model",
    "file_mb", "mb_per_sec", "speedup", "forward_gathers",
    # query_engine_scaling: per-cell scheduler measurements...
    "speedup_vs_scalar", "dispatch_inline", "dispatch_pooled",
    "spans_reserved", "tasks_executed",
    # ...its per-chunk latency distribution (p99 is gated like the median;
    # p50/p95 are tracked but not enforced)...
    "us_p50", "us_p95", "us_p99",
    # ...and its threshold-seeding comparison row.
    "work_ratio", "seeded_docs_scored", "seeded_postings_visited",
    "independent_docs_scored", "independent_postings_visited",
    # durability_scaling: journaled-ingest cost relative to the no-journal
    # baseline of the same run (machine-relative, like speedup_vs_scalar).
    "overhead_vs_off",
    # robustness_scaling: checkpoint poll counts of the deadline-armed
    # sweep and the shed-load rejection count (both deterministic, but
    # measured, not identity).
    "checkpoint_polls", "rejected", "deadline_exceeded",
    # live_ingest_scaling: sustained ingest throughput while serving a
    # concurrent query load, and the paired same-run ratio of the served
    # query p99 against the idle-ingest p99 (machine-relative, like
    # speedup_vs_scalar, so it gates off the baseline machine).
    "sigs_per_sec", "p99_vs_idle", "refreezes", "queries_served",
    # snapshot_scaling: a restore's peak RSS (measured in a fresh process),
    # the restored index's memory_bytes, the restore's read/verify and
    # shard-restore phases, and the file's bytes per document in both
    # formats.
    "load_peak_rss_mb", "index_mb", "read_s", "build_s",
    "bytes_per_doc", "v1_bytes_per_doc",
}
# Measured fields that describe the host rather than the run.
HOST_FIELDS = ("cores", "simd", "cpu_model")
# Lower-is-better metrics, in preference order; each file is gated on the
# first one its rows actually carry (query benches emit us_per_query, the
# build bench emits seconds).
METRIC_FIELDS = ("us_per_query", "seconds")


def pick_metric(rows):
    for field in METRIC_FIELDS:
        if any(field in row for row in rows):
            return field
    return None


def load_rows(path):
    # Exit 2 (usage/schema), matching the documented contract — a bare
    # SystemExit(str) would exit 1 and masquerade as a perf regression.
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_check: cannot read {path}: {error}", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(payload, dict) or "rows" not in payload:
        print(f"bench_check: {path} is not an emit_json file",
              file=sys.stderr)
        raise SystemExit(2)
    return payload.get("bench", "?"), payload["rows"]


def row_key(row):
    return tuple(sorted(
        (field, value) for field, value in row.items()
        if field not in MEASURED_FIELDS))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional us_per_query increase")
    parser.add_argument("--min-docs", type=float, default=10000,
                        help="enforce only on rows with docs >= this")
    parser.add_argument("--speedup-floor", type=float, default=None,
                        help="fail when a fresh row's speedup_vs_scalar falls "
                             "below this (a machine-relative ratio, so unlike "
                             "us_per_query it is enforceable off the baseline "
                             "machine); enforced at docs >= min-docs")
    parser.add_argument("--overhead-ceiling", type=float, default=None,
                        help="fail when a fresh row's overhead_vs_off exceeds "
                             "this fraction (paired same-run ratio against "
                             "the feature-off baseline of the same run, so "
                             "it is enforceable off the baseline machine); "
                             "applies to mode=async rows (durability: "
                             "journaled ingest) and mode=deadline rows "
                             "(robustness: armed checkpoints) at docs >= "
                             "min-docs — fsync overhead is storage-bound "
                             "and only tracked")
    parser.add_argument("--p99-ratio-ceiling", type=float, default=None,
                        help="fail when a fresh row's p99_vs_idle exceeds "
                             "this ratio (query p99 under concurrent ingest "
                             "vs the idle p99 of the same run — a paired "
                             "same-run ratio, enforceable off the baseline "
                             "machine); enforced at docs >= min-docs")
    parser.add_argument("--require-rows", action="store_true",
                        help="treat a baseline row missing from the fresh "
                             "file as a failure instead of a truncation "
                             "warning (full-ladder runs; smoke runs "
                             "legitimately truncate)")
    args = parser.parse_args()

    fresh_name, fresh_rows = load_rows(args.fresh)
    base_name, base_rows = load_rows(args.baseline)
    if fresh_name != base_name:
        print(f"bench_check: bench name mismatch: fresh '{fresh_name}' vs "
              f"baseline '{base_name}'", file=sys.stderr)
        return 2

    fresh_by_key = {row_key(row): row for row in fresh_rows}
    base_by_key = {row_key(row): row for row in base_rows}
    metric = pick_metric(base_rows)
    if metric is None:
        print(f"bench_check: {args.baseline} rows carry no known metric "
              f"field {METRIC_FIELDS}", file=sys.stderr)
        return 2

    failures = 0
    compared = 0
    missing_failures = 0
    host_changes = set()
    for key, base in sorted(base_by_key.items()):
        fresh = fresh_by_key.get(key)
        ident = ", ".join(f"{f}={v}" for f, v in key)
        if fresh is None:
            # Never a bare KeyError: a row the baseline has but the fresh
            # file lacks is either a truncated smoke ladder (warn) or, under
            # --require-rows, a hard failure with the row spelled out.
            if args.require_rows:
                print(f"bench_check: missing baseline row ({ident})",
                      file=sys.stderr)
                missing_failures += 1
            else:
                print(f"  [missing] {ident} (fresh run truncated?)")
            continue
        for field in HOST_FIELDS:
            if field in fresh and base.get(field) != fresh[field]:
                host_changes.add(
                    (field, str(base.get(field, "unrecorded")),
                     str(fresh[field])))
        if metric not in base or metric not in fresh:
            continue
        compared += 1
        enforced = base.get("docs", 0) >= args.min_docs
        # Tail latency regresses independently of the median (e.g. a new
        # allocation on a rare path), so us_p99 is gated with the same
        # threshold wherever both files carry it.
        gated = [metric] + (["us_p99"] if "us_p99" in base and
                            "us_p99" in fresh else [])
        for field in gated:
            base_us = base[field]
            fresh_us = fresh[field]
            delta = (fresh_us - base_us) / base_us if base_us > 0 else 0.0
            status = "ok"
            if delta > args.threshold:
                status = "REGRESSION" if enforced else "slow (not enforced)"
                failures += enforced
            print(f"  [{status}] {ident}: {base_us:.4g} -> {fresh_us:.4g} "
                  f"{field} ({delta:+.1%})")
    for key in sorted(set(fresh_by_key) - set(base_by_key)):
        ident = ", ".join(f"{f}={v}" for f, v in key)
        print(f"  [new] {ident} (no baseline yet)")
    if host_changes:
        changes = ", ".join(f"{field} {base} -> {fresh}"
                            for field, base, fresh in sorted(host_changes))
        print(f"  [host] {fresh_name}: rows were measured on a different "
              f"host than the baseline ({changes}); absolute times compare "
              f"two machines")

    floor_failures = 0
    if args.speedup_floor is not None:
        # The speedup floor gates the fresh run directly: speedup_vs_scalar
        # is a paired same-machine ratio (scheduler cell vs the scalar
        # baseline interleaved rep by rep), so it transfers across machines
        # where absolute microseconds do not.
        for row in fresh_rows:
            if "speedup_vs_scalar" not in row:
                continue
            if row.get("docs", 0) < args.min_docs:
                continue
            ratio = row["speedup_vs_scalar"]
            if ratio < args.speedup_floor:
                ident = ", ".join(f"{f}={row[f]}" for f in
                                  ("docs", "shards", "batch", "mode")
                                  if f in row)
            else:
                continue
            print(f"  [FLOOR] {ident}: speedup_vs_scalar {ratio:.3f} "
                  f"< {args.speedup_floor:.3f}")
            floor_failures += 1

    ceiling_failures = 0
    if args.overhead_ceiling is not None:
        # Same transferability argument as the speedup floor: the overhead
        # is measured against the feature-off baseline of the same run, so
        # the gate holds on any machine. Gated modes: "async" (durability's
        # journaled ingest — pure copy + bookkeeping; per-record fsync
        # latency is a property of the storage stack, not the code) and
        # "deadline" (robustness's armed-checkpoint serving sweep).
        for row in fresh_rows:
            if "overhead_vs_off" not in row or \
                    row.get("mode") not in ("async", "deadline"):
                continue
            if row.get("docs", 0) < args.min_docs:
                continue
            overhead = row["overhead_vs_off"]
            if overhead > args.overhead_ceiling:
                ident = ", ".join(f"{f}={row[f]}" for f in
                                  ("docs", "shards", "phase", "mode")
                                  if f in row)
                print(f"  [CEILING] {ident}: overhead_vs_off "
                      f"{overhead:+.1%} > {args.overhead_ceiling:.1%}")
                ceiling_failures += 1

    p99_failures = 0
    if args.p99_ratio_ceiling is not None:
        # Paired same-run ratio like the overhead ceiling: the live bench
        # measures query p99 idle and under concurrent ingest in one run,
        # so the ratio gates on any machine.
        for row in fresh_rows:
            if "p99_vs_idle" not in row:
                continue
            if row.get("docs", 0) < args.min_docs:
                continue
            ratio = row["p99_vs_idle"]
            if ratio > args.p99_ratio_ceiling:
                ident = ", ".join(f"{f}={row[f]}" for f in
                                  ("docs", "shards", "mode")
                                  if f in row)
                print(f"  [CEILING] {ident}: p99_vs_idle {ratio:.3f} "
                      f"> {args.p99_ratio_ceiling:.3f}")
                p99_failures += 1

    print(f"bench_check: {fresh_name}: {compared} rows compared, "
          f"{failures} enforced regressions "
          f"(threshold {args.threshold:.0%} at docs >= {args.min_docs:g})"
          + (f", {floor_failures} below speedup floor "
             f"{args.speedup_floor:g}" if args.speedup_floor is not None
             else "")
          + (f", {ceiling_failures} above overhead ceiling "
             f"{args.overhead_ceiling:g}" if args.overhead_ceiling is not None
             else "")
          + (f", {p99_failures} above p99 ratio ceiling "
             f"{args.p99_ratio_ceiling:g}"
             if args.p99_ratio_ceiling is not None else "")
          + (f", {missing_failures} required rows missing"
             if args.require_rows else ""))
    return 1 if (failures or floor_failures or ceiling_failures or
                 p99_failures or missing_failures) else 0


if __name__ == "__main__":
    sys.exit(main())
