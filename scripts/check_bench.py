#!/usr/bin/env python3
"""Bench regression gate: diff two bench-baselines CSV directories.

CI archives each run's --quick bench tables as CSV artifacts
(bench-baselines/*.csv, written by bench_util's --csv mirror: every row is
`section,cell,cell,...`, including the header rows). This script compares
the current run's CSVs against the previous main run's artifact and flags
numeric regressions beyond a tolerance. It is wired as a *non-blocking* CI
job: quick-mode wall times are noisy, so the gate reports and fails softly
(the job uses continue-on-error) rather than rejecting PRs outright.

Matching model
--------------
Rows are keyed by (file, section, first cell, occurrence index) so repeated
labels (e.g. several `warm1` rows across sections) stay distinguishable.
Within a matched row pair, cells are matched by *header name* across the
two runs (so inserting or reordering a bench column compares the right
metrics); a section without a header row in either run is skipped with a
notice, since its timing columns cannot be identified. Only cells that
parse as numbers in *both* runs are compared (strings like `yes`/`ref`
are ignored). A cell regresses when

    current > baseline * (1 + tolerance)   and   current - baseline > slack

where the absolute slack (default 1.0 — one millisecond for the timing
columns this gate mostly watches) suppresses noise on near-zero baselines.
A baseline at or below --min-baseline (zero cells included: quick-mode
timers legitimately round tiny waits down to 0) has no meaningful ratio —
any measurable current value would look like an unbounded slowdown — so for
those cells only the absolute slack decides, and the report prints the
absolute delta instead of a divide-by-zero factor.
Only columns whose header cell mentions a time-like name (`ms`, `wall`,
`time`) are treated as regressions-when-larger; other numeric columns
(counts, speedups, hit rates) are informational only, since "larger" is not
worse for them.

A CSV present only in the current run (a newly added bench) is a *new
baseline*, not a regression: it is reported as such and skipped. A CSV
present only in the previous artifact (a removed or renamed bench, e.g.
`columnar.csv` or `server.csv` once servebench took over their checks) is
likewise reported and skipped.

Usage:
    check_bench.py --baseline DIR --current DIR [--tolerance 0.25]
                   [--slack 1.0]

Exit codes: 0 = no regression (or nothing comparable), 1 = regression
found, 2 = usage error.
"""

import argparse
import csv
import io
import pathlib
import sys
from collections import defaultdict

TIME_HINTS = ("ms", "wall", "time")


def parse_number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def load_rows(directory):
    """Maps (file, section, label, occurrence) -> list of cells."""
    rows = {}
    counts = defaultdict(int)
    for path in sorted(pathlib.Path(directory).glob("*.csv")):
        with open(path, newline="", encoding="utf-8", errors="replace") as f:
            for cells in csv.reader(f):
                if len(cells) < 2:
                    continue
                section, label = cells[0], cells[1]
                counts[(path.name, section, label)] += 1
                occurrence = counts[(path.name, section, label)]
                rows[(path.name, section, label, occurrence)] = cells[1:]
    return rows


def header_for(rows, key):
    """The header row of `key`'s section (first row of that section), used
    to decide which columns are time-like."""
    file, section, _, _ = key
    for (f, s, _, occ), cells in rows.items():
        if f == file and s == section and occ == 1:
            if all(parse_number(c) is None for c in cells):
                return cells
            return None  # section has no textual header row
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="previous run's bench-baselines directory")
    parser.add_argument("--current", required=True,
                        help="this run's bench-baselines directory")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative slowdown allowed (default 0.25 = 25%%)")
    parser.add_argument("--slack", type=float, default=1.0,
                        help="absolute increase always allowed (default 1.0)")
    parser.add_argument("--min-baseline", type=float, default=1e-6,
                        help="baselines at or below this have no meaningful "
                             "ratio; only the absolute slack applies "
                             "(default 1e-6)")
    args = parser.parse_args()

    for d in (args.baseline, args.current):
        if not pathlib.Path(d).is_dir():
            print(f"check_bench: not a directory: {d}", file=sys.stderr)
            return 2

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)

    # Per-file accounting first: a bench that exists on only one side is a
    # lifecycle event (new baseline / removed bench), never a regression.
    baseline_files = {key[0] for key in baseline}
    current_files = {key[0] for key in current}
    for name in sorted(current_files - baseline_files):
        print(f"check_bench: new baseline — {name} has no data in the "
              "previous artifact; recording without comparison")
    for name in sorted(baseline_files - current_files):
        print(f"check_bench: note — {name} present in the previous artifact "
              "but not in this run (bench removed or renamed?); skipping")

    shared = sorted(set(baseline) & set(current))
    if not shared:
        # First run on a branch, renamed sections, or an empty artifact:
        # nothing to compare is not a failure for a soft gate.
        print("check_bench: no comparable rows between "
              f"{args.baseline} and {args.current}; skipping")
        return 0

    regressions = []
    compared = 0
    skipped_headerless = set()
    for key in shared:
        base_cells, cur_cells = baseline[key], current[key]
        base_header = header_for(baseline, key)
        cur_header = header_for(current, key)
        if not base_header or not cur_header:
            # Without a header row the timing columns cannot be told apart
            # from counters, so comparing would be guesswork: skip loudly.
            skipped_headerless.add((key[0], key[1]))
            continue
        # Match columns by header name so layout changes between runs
        # never pair unrelated metrics (first occurrence wins).
        cur_index = {}
        for j, name in enumerate(cur_header):
            cur_index.setdefault(name, j)
        pairs = []
        seen = set()
        for i, name in enumerate(base_header):
            if name in cur_index and name not in seen:
                pairs.append((name, i, cur_index[name]))
                seen.add(name)
        for column, bi, ci in pairs:
            if bi >= len(base_cells) or ci >= len(cur_cells):
                continue
            base_v = parse_number(base_cells[bi])
            cur_v = parse_number(cur_cells[ci])
            if base_v is None or cur_v is None:
                continue
            if not any(hint in column.lower() for hint in TIME_HINTS):
                continue
            compared += 1
            near_zero = base_v <= args.min_baseline
            # On a zero/near-zero baseline the relative test is vacuous
            # (everything is an "infinite" slowdown), so the absolute slack
            # alone makes the call there.
            relative_bad = near_zero or cur_v > base_v * (1.0 + args.tolerance)
            if relative_bad and cur_v - base_v > args.slack:
                file, section, label, occ = key
                detail = (f"+{cur_v - base_v:g} over a ~0 baseline"
                          if near_zero else f"{cur_v / base_v:.2f}x")
                regressions.append(
                    f"  {file} [{section}] {label}#{occ} {column}: "
                    f"{base_v:g} -> {cur_v:g} ({detail})")

    print(f"check_bench: compared {compared} time-like cells across "
          f"{len(shared)} matched rows "
          f"(tolerance {args.tolerance:.0%}, slack {args.slack:g})")
    for file, section in sorted(skipped_headerless):
        print(f"check_bench: note — skipped {file} [{section}]: "
              "no header row to identify timing columns")
    if regressions:
        print(f"check_bench: {len(regressions)} regression(s) beyond "
              "tolerance:")
        print("\n".join(regressions))
        return 1
    print("check_bench: OK — no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
