#!/usr/bin/env python3
"""Bookkeeping over runs of benchmark/run.sh: repeat, compare, smoke.

  run.sh --smoke
      Every workload at smoke size, once untraced and once traced; fails
      if an output check fails or if the metric names printed differ from
      the ones BENCHMARK.json declares.

  run.sh --repeat K [--seeds A,B,...] [--workload W] [--seconds S] [--out FILE]
      Runs the set K times for each seed (default: 3 times, seeds 42 and
      43) and prints, per (workload, metric), the median, the range, and
      the spread (distance between the quartiles over the median) beside
      the bound it must stay under. --out keeps the values for --compare.

  run.sh --compare BEFORE.json AFTER.json
      Applies the bounds of BENCHMARK.json to two --out files and reports
      each (workload, metric) row as better, no change, worse or
      unresolved. Exits 1 if any row is worse.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.sh")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args):
    """One run.sh invocation; returns its last stdout line, parsed."""
    proc = subprocess.run(["bash", RUN] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.sh {' '.join(args)}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    results = result.get("workloads", None)
    if results is None:
        results = {args[args.index("--workload") + 1]: result}
    for name, r in results.items():
        if not r["correct"] or proc.returncode != 0:
            sys.exit(f"run.sh {' '.join(args)}: {name}: {r['failed']} of {r['attempted']} failed")
    return results


def flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def quartile_spread(values):
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def smoke():
    bench = declared()
    started = time.time()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        results = run_once(["--scale", "smoke", "--seconds", "1", "--trace", trace])
        want = {m["name"]: m["unit"] for m in bench[key]}
        if set(results) != {w["name"] for w in bench["workloads"]}:
            sys.exit(f"smoke: workloads run {sorted(results)} differ from BENCHMARK.json")
        for workload, r in results.items():
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
                sys.exit(
                    f"smoke: {workload} --trace {trace}: metrics differ from BENCHMARK.json: "
                    f"missing {missing}, undeclared {extra}, unit differs {units}"
                )
            zero = sorted(n for n, m in r["metrics"].items() if m["value"] == 0 and key == "end_to_end")
            if zero:
                sys.exit(f"smoke: {workload}: end-to-end metrics read 0: {zero}")
    print(f"smoke PASS: 4 workloads, traced and untraced, in {time.time() - started:.1f} s")


def repeat(argv):
    bench = declared()
    k = int(flag(argv, "--repeat", "3"))
    seeds = [int(s) for s in flag(argv, "--seeds", "42,43").split(",")]
    seconds = flag(argv, "--seconds", str(bench["run_seconds"]))
    only = flag(argv, "--workload")
    trace = "1" if "--trace" in argv else "0"
    workloads = [w["name"] for w in bench["workloads"] if only in (None, w["name"])]
    values = {w: {} for w in workloads}
    for seed in seeds:
        for _ in range(k):
            for w in workloads:
                args = ["--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", trace]
                for name, m in run_once(args)[w]["metrics"].items():
                    values[w].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
                print(f"  ran {w} seed {seed}", file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<13} {'metric':<44} {'median':>14} {'min':>14} {'max':>14} {'unit':<6} spread  bound/3")
    wide = []
    for w in workloads:
        for name, entry in sorted(values[w].items()):
            v = entry["values"]
            spread = quartile_spread(v)
            limit = bounds.get(name)
            mark = ""
            if limit is not None and name != "setup_s" and spread > limit / 3:
                mark = "  <-- wide"
                wide.append((w, name))
            print(
                f"{w:<13} {name:<44} {statistics.median(v):>14.6g} {min(v):>14.6g} {max(v):>14.6g} "
                f"{entry['unit']:<6} {spread:6.4f}  "
                f"{'' if limit is None else format(limit / 3, '.4f')}{mark}"
            )
    out = flag(argv, "--out")
    if out:
        with open(out, "w") as f:
            json.dump({"seeds": seeds, "repeat": k, "seconds": seconds, "values": values}, f, indent=1)
    if wide:
        print(f"{len(wide)} rows spread wider than a third of their bound: {wide}")


def compare(argv):
    i = argv.index("--compare")
    with open(argv[i + 1]) as f:
        before = json.load(f)["values"]
    with open(argv[i + 2]) as f:
        after = json.load(f)["values"]
    bench = declared()
    spec = {m["name"]: m for m in bench["end_to_end"]}
    worse = 0
    print(f"{'workload':<13} {'metric':<30} {'before':>13} {'after':>13} {'change':>8}  bound  verdict")
    for w in sorted(before):
        for name in sorted(before[w]):
            if name not in spec or name not in after.get(w, {}):
                continue
            a, b = before[w][name]["values"], after[w][name]["values"]
            ma, mb = statistics.median(a), statistics.median(b)
            lower = spec[name]["better"] == "lower"
            # Positive = worse, as a share of the parent's median.
            worsening = ((mb - ma) if lower else (ma - mb)) / abs(ma)
            better_than = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            pairs = list(zip(a, b))
            wins = sum(better_than(y, x) for x, y in pairs)
            ties = sum(x == y for x, y in pairs)
            all_better = all(better_than(y, x) for x in a for y in b)
            q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (ma, ma, ma)
            bound = spec[name]["bound"]
            if worsening > bound:
                verdict = "worse"
                worse += 1
            elif all_better or (
                -worsening * abs(ma) > (q3 - q1) and len(pairs) > ties and wins >= 0.9 * (len(pairs) - ties)
            ):
                verdict = "better"
            elif max(quartile_spread(a), quartile_spread(b)) > bound:
                verdict = "unresolved"
            else:
                verdict = "no change"
            print(f"{w:<13} {name:<30} {ma:>13.6g} {mb:>13.6g} {(mb - ma) / abs(ma):>+8.2%}  {bound:<5}  {verdict}")
    sys.exit(1 if worse else 0)


def main():
    argv = sys.argv[1:]
    if "--smoke" in argv:
        smoke()
    elif "--compare" in argv:
        compare(argv)
    elif "--repeat" in argv:
        repeat(argv)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
