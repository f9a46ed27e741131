#!/usr/bin/env python3
"""Compare she_bench result files of two commits, workload by workload.

    python3 bench/e2e/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ... [--bench BENCHMARK.json]

Each file is one `she_bench --out` (or `run.py --out`) result; run the two
commits alternately and pass the files in run order, so parent[i] and
change[i] form a pair.  One row per workload and metric gives each side's
median and quartiles, the relative change of the median, and the share of
pairs the change wins (ties count for neither side).

End-to-end metrics (BENCHMARK.json "end_to_end") are flagged REGRESSION when
the change's median is worse than the parent's by more than the metric's
bound, and "unresolved" when either side's spread (quartile distance over
median) exceeds the bound, unless every change run beats every parent run.
Per-layer metrics are flagged "moved" when the median moved more than 10 %.

With --parent alone it reports each end-to-end metric's spread against its
bound instead: the stability check for one commit.  setup_s is exempt: only
its median is held to its bound.

Exit status: 1 when a REGRESSION was flagged (or, without --change, when a
spread exceeds its bound), else 0.  Standard library only.
"""
import argparse
import json
import pathlib
import statistics
import sys

LAYER_MOVE = 0.10
DEFAULT_BENCH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(paths):
    """{(workload, traced): {metric: [value per file]}} in file order."""
    out = {}
    for path in paths:
        doc = json.loads(pathlib.Path(path).read_text())
        for run in doc["runs"]:
            key = (run["workload"], run["traced"])
            for name, m in run["metrics"].items():
                out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def fmt(v):
    return f"{v:.4g}"


def compare(bench, parent, change):
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    regressions = 0
    print(f"{'workload':<18} {'metric':<34} {'parent med [q1,q3]':<28} "
          f"{'change med [q1,q3]':<28} {'delta':>8} {'win':>5}  flag")
    for key in sorted(set(parent) & set(change)):
        workload = key[0] + (" (traced)" if key[1] else "")
        for name in parent[key]:
            if name not in change[key] or name not in metrics:
                continue
            p, c = parent[key][name], change[key][name]
            higher = metrics[name]["better"] == "higher"
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            delta = (cmed - pmed) / abs(pmed) if pmed else 0.0
            worse = -delta if higher else delta
            better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
            pairs = list(zip(p, c))
            wins = sum(1 for pv, cv in pairs if better(cv, pv))
            flag = ""
            if name in bounds:
                bound = bounds[name]
                all_better = all(better(cv, pv) for cv in c for pv in p)
                if max(spread(p), spread(c)) > bound and not all_better:
                    flag = "unresolved"
                elif worse > bound:
                    flag = "REGRESSION"
                    regressions += 1
            elif abs(delta) > LAYER_MOVE:
                flag = "moved"
            print(f"{workload:<18} {name:<34} "
                  f"{fmt(pmed) + ' [' + fmt(pq1) + ',' + fmt(pq3) + ']':<28} "
                  f"{fmt(cmed) + ' [' + fmt(cq1) + ',' + fmt(cq3) + ']':<28} "
                  f"{delta:>+8.1%} {wins}/{len(pairs):<3}  {flag}")
    return 1 if regressions else 0


def stability(bench, runs):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    over = 0
    print(f"{'workload':<18} {'metric':<22} {'median':>12} {'spread':>8} {'bound':>6}  flag")
    for key in sorted(runs):
        if key[1]:
            continue
        for name, values in runs[key].items():
            if name not in bounds:
                continue
            s = spread(values)
            flag = ""
            if name == "setup_s":
                # Only its median is held to the bound, not its spread.
                flag = "median only"
            elif s > bounds[name]:
                flag = "OVER BOUND"
                over += 1
            elif s > bounds[name] / 3:
                flag = "over bound/3"
            print(f"{key[0]:<18} {name:<22} {fmt(quartiles(values)[1]):>12} "
                  f"{s:>8.1%} {bounds[name]:>6.0%}  {flag}")
    return 1 if over else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+")
    ap.add_argument("--bench", default=str(DEFAULT_BENCH))
    args = ap.parse_args()
    bench = json.loads(pathlib.Path(args.bench).read_text())
    parent = load_runs(args.parent)
    if not args.change:
        return stability(bench, parent)
    return compare(bench, parent, load_runs(args.change))


if __name__ == "__main__":
    sys.exit(main())
