#!/usr/bin/env python3
"""Compare fresh bench --json reports against the committed baseline.

The regression gate for simulated query times: BENCH_baseline.json pins
each (bench, query, profile) run's `sim.total_s`, and CI fails when a
fresh report differs from its baseline by more than the tolerance, in
either direction (default: a relative 1e-9, i.e. exact up to the last
printed digits). Simulated seconds are a pure function of the cost model
and the data — fully deterministic, no host noise — so any drift, slower
or faster, is a real modeling or engine change and must be acknowledged
by regenerating the baseline in the same commit:

    ./build/bench/fig10_small_cluster --json BENCH_fig10.json
    ./build/bench/fig09_q21_breakdown --json BENCH_fig09.json
    python3 tools/bench_diff.py --update BENCH_fig10.json BENCH_fig09.json

Standard library only. Exit codes: 0 ok, 1 regression, unblessed
improvement, missing run, or a failed/DNF record that was not failed in
the baseline; 2 usage error.

--update --only <run-id> refreshes just the matching baseline entries
(run-id is bench, bench/query or bench/query/profile) and keeps every
other committed entry, so one bench's change doesn't re-bless the rest.

Usage:
    tools/bench_diff.py [--baseline PATH] [--tolerance FRAC]
                        [--write-diff PATH] [--update [--only RUN-ID]...]
                        REPORT [REPORT...]
"""
import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_baseline.json",
)


def load_reports(paths):
    """{(bench, query, profile): {"sim_total_s": float, "failed": bool}}"""
    entries = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        bench = report.get("bench", os.path.basename(path))
        for rec in report.get("records", []):
            key = (bench, rec["query"], rec["profile"])
            if key in entries:
                print(f"warning: duplicate record {key}", file=sys.stderr)
            entries[key] = {
                "sim_total_s": rec["sim"]["total_s"],
                "failed": rec["failed"],
            }
    return entries


def baseline_to_entries(baseline):
    entries = {}
    for bench, recs in baseline.get("benches", {}).items():
        for rec in recs:
            entries[(bench, rec["query"], rec["profile"])] = {
                "sim_total_s": rec["sim_total_s"],
                "failed": rec.get("failed", False),
            }
    return entries


def entries_to_baseline(entries):
    benches = {}
    for (bench, query, profile), e in sorted(entries.items()):
        rec = {"query": query, "profile": profile,
               "sim_total_s": e["sim_total_s"]}
        if e["failed"]:
            rec["failed"] = True
        benches.setdefault(bench, []).append(rec)
    return {"schema_version": 1, "benches": benches}


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="allowed relative sim-time change either way (default 1e-9)",
    )
    ap.add_argument(
        "--write-diff", metavar="PATH",
        help="write a machine-readable JSON diff (CI uploads it as an artifact)",
    )
    ap.add_argument(
        "--update", action="store_true",
        help="regenerate the baseline from the given reports instead of comparing",
    )
    ap.add_argument(
        "--only", action="append", metavar="RUN-ID",
        help="with --update: refresh only the runs matching RUN-ID "
             "(bench, bench/query or bench/query/profile; repeatable); "
             "other baseline entries are kept as-is",
    )
    ap.add_argument("reports", nargs="+")
    args = ap.parse_args(argv[1:])

    if args.only and not args.update:
        print("error: --only requires --update", file=sys.stderr)
        return 2

    fresh = load_reports(args.reports)
    if not fresh:
        print("error: reports contain no records", file=sys.stderr)
        return 2

    if args.update:
        if args.only:
            # Surgical refresh: re-bless only the matching runs, keep the
            # rest of the committed baseline untouched.
            def matches(key):
                name = "/".join(key)
                return any(name == o or name.startswith(o + "/")
                           for o in args.only)

            picked = {k: v for k, v in fresh.items() if matches(k)}
            if not picked:
                print(f"error: --only {args.only} matched no run in the "
                      "fresh reports", file=sys.stderr)
                return 2
            try:
                with open(args.baseline) as f:
                    merged = baseline_to_entries(json.load(f))
            except FileNotFoundError:
                print(f"error: --only needs an existing baseline to merge "
                      f"into, and {args.baseline} was not found",
                      file=sys.stderr)
                return 2
            merged.update(picked)
            fresh = merged
            print(f"refreshing {len(picked)} entrie(s) matching "
                  f"{args.only}")
        with open(args.baseline, "w") as f:
            json.dump(entries_to_baseline(fresh), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.baseline} ({len(fresh)} entries)")
        return 0

    try:
        with open(args.baseline) as f:
            base = baseline_to_entries(json.load(f))
    except FileNotFoundError:
        print(
            f"error: baseline {args.baseline} not found — generate it with "
            "--update (see module docstring)",
            file=sys.stderr,
        )
        return 2

    regressions, improvements, new, missing, failures = [], [], [], [], []
    for key in sorted(fresh):
        e = fresh[key]
        b = base.get(key)
        name = "/".join(key)
        if b is None:
            new.append(name)
            continue
        if e["failed"] and not b["failed"]:
            failures.append(name)
            continue
        if b["sim_total_s"] <= 0:
            continue
        ratio = e["sim_total_s"] / b["sim_total_s"]
        row = {
            "run": name,
            "baseline_s": b["sim_total_s"],
            "fresh_s": e["sim_total_s"],
            "ratio": ratio,
        }
        if ratio > 1.0 + args.tolerance:
            regressions.append(row)
        elif ratio < 1.0 - args.tolerance:
            improvements.append(row)
    for key in sorted(base):
        if key not in fresh:
            missing.append("/".join(key))

    if args.write_diff:
        with open(args.write_diff, "w") as f:
            json.dump(
                {
                    "tolerance": args.tolerance,
                    "compared": len(fresh),
                    "regressions": regressions,
                    "improvements": improvements,
                    "new_runs": new,
                    "missing_runs": missing,
                    "new_failures": failures,
                },
                f, indent=2,
            )
            f.write("\n")

    for row in regressions:
        print(
            f"REGRESSION {row['run']}: {row['baseline_s']:.6f}s -> "
            f"{row['fresh_s']:.6f}s ({(row['ratio'] - 1) * 100:+.4f}%)",
            file=sys.stderr,
        )
    for name in failures:
        print(f"NEW FAILURE {name}: run failed (DNF) but baseline succeeded",
              file=sys.stderr)
    for row in improvements:
        # Faster is still drift: an unacknowledged change to the model.
        print(
            f"UNBLESSED IMPROVEMENT {row['run']}: {row['baseline_s']:.6f}s -> "
            f"{row['fresh_s']:.6f}s ({(row['ratio'] - 1) * 100:+.4f}%) — "
            "refresh the baseline with --update in the commit that "
            "causes it",
            file=sys.stderr,
        )
    for name in new:
        print(f"note: {name} has no baseline entry (new run?)")
    for name in missing:
        # A baseline entry that no fresh report covers means the gate
        # silently stopped checking that run — hard failure, not a note.
        print(
            f"MISSING RUN {name}: present in the baseline but absent from "
            "the fresh reports — the run was removed or renamed; pass its "
            "report too, or regenerate the baseline with --update",
            file=sys.stderr,
        )

    ok = not regressions and not improvements and not failures and not missing
    print(
        f"bench_diff: {len(fresh)} runs compared, {len(regressions)} "
        f"regression(s), {len(failures)} new failure(s), "
        f"{len(missing)} missing run(s), {len(improvements)} unblessed "
        f"improvement(s) (relative tolerance {args.tolerance:g})"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
