#!/usr/bin/env python3
"""Compares two sets of benchmark reports metric by metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are report files written by perfbench/run.py, or directories of
them (run.py writes one per run to <build>/reports/). Untraced reports are
matched by (workload, end-to-end metric), and each row is judged with the
metric's bound from BENCHMARK.json:

  worse       NEW's median is worse than OLD's by more than the bound
  better      NEW's median is better than OLD's by more than OLD's own spread
              (the distance between its quartiles, as a share of its median)
  unresolved  neither; also every row where either side spreads wider than
              the bound, unless every NEW run beats (or loses to) every OLD run

Reports from different hosts (nproc, CPU model, ISA level, compiler, build
type) are refused: their numbers are not comparable. Exit status: 0 when no
row is worse, 1 when one is, 2 when the comparison is refused.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "isa", "compiler", "build_type")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    reports = [json.load(open(f)) for f in files]
    return [r for r in reports if r.get("trace", 0) == 0]


def hosts_of(reports):
    return {tuple(r["host"].get(k) for k in HOST_KEYS) for r in reports}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def judge(old, new, better, bound):
    """Returns (verdict, relative change oriented so that > 0 is worse)."""
    mo, mn = statistics.median(old), statistics.median(new)
    sign = 1 if better == "lower" else -1
    change = sign * (mn - mo) / abs(mo) if mo else 0.0
    wider = max(spread(old), spread(new)) > bound
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    all_worse = all(sign * (n - o) > 0 for n in new for o in old)
    if change > bound and (not wider or all_worse):
        return "worse", change
    if -change > spread(old) and change < 0 and (not wider or all_better):
        return "better", change
    return "unresolved", change


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    old, new = load(sys.argv[1]), load(sys.argv[2])
    if not old or not new:
        print("refused: no untraced reports in one of the sets")
        return 2
    hosts = hosts_of(old) | hosts_of(new)
    if len(hosts) != 1:
        print("refused: the reports come from %d hosts" % len(hosts))
        for h in sorted(hosts, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, h)))
        return 2
    print("host: " + ", ".join("%s=%s" % kv
                               for kv in zip(HOST_KEYS, hosts.pop())))
    print("%-12s %-16s %12s %5s %12s %5s %8s %6s  %s" % (
        "workload", "metric", "old median", "n", "new median", "n",
        "change", "bound", "verdict"))
    worse = False
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            vo = [r["metrics"][m["name"]]["value"] for r in old
                  if r["workload"] == w["name"]]
            vn = [r["metrics"][m["name"]]["value"] for r in new
                  if r["workload"] == w["name"]]
            if not vo or not vn:
                continue
            verdict, change = judge(vo, vn, m["better"], m["bound"])
            worse |= verdict == "worse"
            print("%-12s %-16s %12.5g %5d %12.5g %5d %+7.1f%% %6.2f  %s" % (
                w["name"], m["name"], statistics.median(vo), len(vo),
                statistics.median(vn), len(vn), 100 * change, m["bound"],
                verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
