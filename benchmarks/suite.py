"""Run every workload and tabulate, or compare two result sets.

    python3 benchmarks/suite.py run [--runs N] [--seconds S] [--trace 0|1]
                                    [--checkout DIR [--checkout DIR]]
                                    [--workloads a,b] [--heldout] [--out FILE]
    python3 benchmarks/suite.py compare FILE [FILE]

``run`` starts ``benchmarks/run.py`` of each checkout (default: this one) in
a fresh interpreter per workload and run, so set-up time and peak RSS are per
workload.  Run i uses seed default+i (held-out+i with --heldout).  With two
checkouts - say parent and change, both holding the same ``benchmarks/`` -
each pair of runs alternates which side goes first.  Every run's result and
run record are appended to FILE as one JSON line.  One checkout prints the
table of all end-to-end metrics; two print the comparison.

``compare`` reads one file holding two sides, or two files holding one side
each; the first side is the base.  For every workload and end-to-end metric
it prints each side's median and quartiles, and the fraction of pairs the
change wins, and flags ``regressed`` (median worse than the base median by
more than the metric's bound), ``unresolved`` (a side's quartile spread
exceeds the bound and not every change run beats every base run) or
``improved`` (wins at least 9 in 10 pairs and the medians differ by more
than the base's quartile spread).  Exact counts of traced runs are compared
as counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# What the run record's summary carries: raw timings, rates and error rate,
# next to the calibrated metrics that BENCHMARK.json gates.
TABLE = (("setup_s", "s"), ("wall_s", "s"), ("paths_per_s", "1/s"),
         ("evals_per_s", "1/s"), ("eval_us_p50", "us"), ("eval_us_p99", "us"),
         ("peak_rss_mb", "MB"), ("error_rate", "ratio"), ("wall_ref_s", "s"),
         ("throughput_ref_per_s", "1/s"))


def run_one(checkout: Path, workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited "
                           f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = next(json.loads(line[len("record: "):]) for line in lines
                  if line.startswith("record: "))
    return {"result": json.loads(lines[-1]), "record": record}


def cmd_run(args) -> int:
    checkouts = [Path(c).resolve() for c in args.checkout] or [ROOT]
    if len(checkouts) > 2:
        sys.exit("at most two checkouts")
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in SPEC["workloads"]])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    records = []
    out = open(args.out, "a", encoding="utf-8") if args.out else None
    try:
        for i in range(args.runs):
            for wl in names:
                cls = workloads.WORKLOADS[wl]
                seed = (cls.heldout_seed if args.heldout else cls.default_seed) + i
                sides = [(f"{'AB'[k]}:{c}", c) for k, c in enumerate(checkouts)]
                for label, side in sides if i % 2 == 0 else sides[::-1]:
                    rec = {"side": label, "pair": i, "workload": wl,
                           "seed": seed, "trace": args.trace,
                           **run_one(side, wl, seed, args.seconds, args.trace)}
                    records.append(rec)
                    print(f"run {i} {wl} seed {seed} {label}: correct="
                          f"{rec['result']['correct']}", file=sys.stderr)
                    if out:
                        out.write(json.dumps(rec) + "\n")
                        out.flush()
    finally:
        if out:
            out.close()
    sides = group_sides(records)
    if len(sides) == 1:
        print_table(next(iter(sides.values())))
    else:
        print_compare(*sides.values())
    return 0


def group_sides(records) -> dict:
    sides = {}
    for rec in records:
        sides.setdefault(rec["side"], []).append(rec)
    return sides


def print_table(records) -> None:
    """Every end-to-end metric of every workload: median [q1, q3] (n)."""
    by_wl = defaultdict(list)
    for rec in records:
        by_wl[rec["workload"]].append(rec)
    for wl, recs in by_wl.items():
        print(wl)
        for name, unit in TABLE:
            vals = [r["record"]["summary"][name] for r in recs
                    if name in r["record"]["summary"]]
            if not vals:
                print(f"  {name:22s} {'n/a':>12s}")
                continue
            q1, q2, q3 = quartiles(vals)
            print(f"  {name:22s} {q2:12.6g} {unit:5s} [{q1:.6g}, {q3:.6g}] "
                  f"(n={len(vals)} runs)")


def print_compare(base, change) -> None:
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    pairs = defaultdict(dict)
    for side, recs in (("base", base), ("change", change)):
        for rec in recs:
            key = (rec["workload"], rec["trace"])
            pairs[key].setdefault(side, {})[rec["pair"]] = rec["result"]
    for (wl, trace), sides in sorted(pairs.items()):
        if set(sides) != {"base", "change"}:
            continue
        common = sorted(set(sides["base"]) & set(sides["change"]))
        first = sides["base"][common[0]]["metrics"]
        print(f"{wl} (trace {trace}, {len(common)} pairs)")
        for name in first:
            a = [sides["base"][i]["metrics"][name]["value"] for i in common]
            b = [sides["change"][i]["metrics"][name]["value"] for i in common]
            if name in bounds:
                print("  " + judge(name, a, b, bounds[name]))
            elif units.get(name) == "count":
                same = len(set(a) | set(b)) == 1
                print(f"  {name:42s} count {'exact' if same else 'CHANGED'} "
                      f"base {sorted(set(a))} change {sorted(set(b))}")
            else:
                print(f"  {name:42s} base {statistics.median(a):.6g} "
                      f"change {statistics.median(b):.6g}")


def judge(name, a, b, spec) -> str:
    """One end-to-end metric: quartiles, pair wins and the verdict."""
    lower = spec["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(better(y, x) for x, y in zip(a, b)) / len(a)
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    worse_by = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
    if all(better(y, x) for x in a for y in b):
        verdict = "improved"
    elif spread > spec["bound"]:
        verdict = "unresolved"
    elif worse_by > spec["bound"]:
        verdict = "regressed"
    elif wins >= 0.9 and -worse_by * qa[1] > qa[2] - qa[0]:
        verdict = "improved"
    else:
        verdict = "within bound"
    return (f"{name:18s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
            f"change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {spec['unit']}  "
            f"wins {wins:.2f}  {verdict}")


def cmd_compare(args) -> int:
    records = []
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    sides = group_sides(records)
    if len(sides) != 2:
        sys.exit(f"need exactly two sides, found {len(sides)}")
    print_compare(*sides.values())
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    pr = sub.add_parser("run")
    pr.add_argument("--checkout", action="append", default=[])
    pr.add_argument("--workloads")
    pr.add_argument("--runs", type=int, default=1)
    pr.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    pr.add_argument("--trace", type=int, choices=(0, 1), default=0)
    pr.add_argument("--heldout", action="store_true")
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_run)
    pc = sub.add_parser("compare")
    pc.add_argument("files", nargs="+")
    pc.set_defaults(fn=cmd_compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
