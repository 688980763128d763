#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs a workload several times, one seed each, and reports every metric's
median, quartiles, min and max, and its spread (interquartile distance as a
share of the median) against the bound in BENCHMARK.json. Two sets of runs
can then be compared the way a regression gate would compare a parent and a
change.

Run from the repository root:

    python3 perfbench/steady.py run --workload serve_read --runs 10 --out a.json
    python3 perfbench/steady.py report a.json
    python3 perfbench/steady.py compare a.json b.json

`run` accepts several --workload flags and records them all in one file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    line = proc.stdout.strip().splitlines()[-1]
    res = json.loads(line)
    res["wall_s"] = wall
    res["seed"] = seed
    return res


def cmd_run(args):
    bench = load_bench()
    out = {}
    for w in args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            res = run_once(bench, w, seed, args.trace)
            runs.append(res)
            print(f"{w} seed={seed} wall={res['wall_s']:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
        out[w] = runs
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    report(out, bench)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(data, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    bad = 0
    for w, runs in data.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, correct={correct}, failed shares={sorted(shares)}, "
              f"wall median {statistics.median(r['wall_s'] for r in runs):.1f}s")
        names = sorted({k for r in runs for k in r["metrics"]})
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
        for name in names:
            vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            b = bounds.get(name, {}).get("bound")
            flag = ""
            if b is not None and name != "setup_s":
                if spread > b:
                    flag = "OVER"
                    bad += 1
                elif spread > b / 3:
                    flag = ">1/3"
            print(f"  {name:28} {q2:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g} {max(vals):12.6g} "
                  f"{spread:7.3f} {b if b is not None else '':>6} {flag}")
    return bad


def cmd_report(args):
    with open(args.file) as f:
        data = json.load(f)
    report(data, load_bench())


def cmd_compare(args):
    bench = load_bench()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    fails = 0
    for m in bench["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        for w in sorted(set(a) & set(b)):
            va = [r["metrics"][name]["value"] for r in a[w]]
            vb = [r["metrics"][name]["value"] for r in b[w]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            verdict = "ok"
            if change > bound:
                verdict = "WORSE"
                fails += 1
            print(f"{w:13} {name:18} first {ma:12.6g} second {mb:12.6g} worse by {change:+.3f} (bound {bound}) {verdict}")
    for w in sorted(set(a) & set(b)):
        sa = {r["failed"] / r["attempted"] for r in a[w]}
        sb = {r["failed"] / r["attempted"] for r in b[w]}
        same = len(sa) == 1 and sa == sb
        if not same:
            fails += 1
        print(f"{w:13} failed share first {sorted(sa)} second {sorted(sb)} {'ok' if same else 'DIFFERENT'}")
    print("PASS" if fails == 0 else f"FAIL ({fails})")
    return 1 if fails else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_run)
    rep = sub.add_parser("report")
    rep.add_argument("file")
    rep.set_defaults(fn=cmd_report)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(fn=cmd_compare)
    args = p.parse_args()
    sys.exit(args.fn(args) or 0)


if __name__ == "__main__":
    main()
