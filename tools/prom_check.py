#!/usr/bin/env python3
"""Validate Prometheus text exposition output and require metric names.

CI pipes ``fmeter_inspect metrics`` through this script: it parses every
line of the text format (HELP/TYPE comments, ``name[{labels}] value``
samples), fails on malformed lines and on a HELP line with no text (an
undocumented series), and then checks that every metric name
passed via ``--require`` appeared with at least one sample. Histogram
conventions are enforced where a TYPE declares one: its ``_bucket`` series
must carry an ``le`` label, end with ``le="+Inf"``, and the +Inf count must
equal the ``_count`` sample.

Usage:
  ./build/fmeter_inspect metrics | tools/prom_check.py \
      --require fmeter_query_batch_us --require fmeter_taskpool_workers

Exit status: 0 ok, 1 validation failure, 2 usage error.
"""

import argparse
import re
import sys

NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
HELP_RE = re.compile(rf"^# HELP ({NAME})(?: (.*))?$")
TYPE_RE = re.compile(rf"^# TYPE ({NAME}) (counter|gauge|histogram|summary|untyped)$")
SAMPLE_RE = re.compile(
    rf"^({NAME})(\{{[^{{}}]*\}})? "
    r"(-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|\+?Inf|NaN))$")
LABEL_RE = re.compile(rf'^{NAME}="(?:[^"\\]|\\.)*"$')


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default="-",
                        help="file to check ('-' or absent: stdin)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="metric name that must have >= 1 sample "
                             "(repeatable)")
    args = parser.parse_args()

    text = (sys.stdin.read() if args.path == "-"
            else open(args.path).read())
    errors = []
    seen = set()          # base metric names with at least one sample
    types = {}            # name -> declared type
    # Histogram bookkeeping: name -> {"last_le": str, "inf": float,
    # "count": float}
    histograms = {}

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            help_match = HELP_RE.match(line)
            if help_match:
                if not (help_match.group(2) or "").strip():
                    errors.append(f"line {lineno}: {help_match.group(1)} "
                                  f"has an empty HELP text")
                continue
            type_match = TYPE_RE.match(line)
            if type_match:
                name, kind = type_match.groups()
                if name in types and types[name] != kind:
                    errors.append(f"line {lineno}: {name} re-declared as "
                                  f"{kind} (was {types[name]})")
                types[name] = kind
                continue
            errors.append(f"line {lineno}: malformed comment: {line!r}")
            continue
        sample = SAMPLE_RE.match(line)
        if not sample:
            errors.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name, labels, value = sample.groups()
        if labels:
            for label in labels[1:-1].split(","):
                if label and not LABEL_RE.match(label):
                    errors.append(f"line {lineno}: malformed label "
                                  f"{label!r}")
        seen.add(name)
        # Fold histogram series into their base metric name.
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                seen.add(base)
                hist = histograms.setdefault(
                    base, {"last_le": None, "inf": None, "count": None})
                if suffix == "_bucket":
                    le = re.search(r'le="([^"]*)"', labels or "")
                    if le is None:
                        errors.append(f"line {lineno}: {name} sample "
                                      f"without an le label")
                    else:
                        hist["last_le"] = le.group(1)
                        if le.group(1) == "+Inf":
                            hist["inf"] = float(value)
                elif suffix == "_count":
                    hist["count"] = float(value)

    for name, hist in sorted(histograms.items()):
        if hist["last_le"] != "+Inf":
            errors.append(f"{name}: bucket series does not end with "
                          f'le="+Inf" (last was {hist["last_le"]!r})')
        elif hist["count"] is not None and hist["inf"] != hist["count"]:
            errors.append(f"{name}: +Inf bucket {hist['inf']:g} != _count "
                          f"{hist['count']:g}")

    for name in args.require:
        if name not in seen:
            errors.append(f"required metric missing: {name}")

    for error in errors:
        print(f"prom_check: {error}", file=sys.stderr)
    print(f"prom_check: {len(seen)} metrics, {len(histograms)} histograms, "
          f"{len(args.require)} required, {len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
