#!/usr/bin/env python3
"""Runs one benchmark workload of HUGE and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run builds the benchmark binary,
hugebench (perfbench/CMakeLists.txt over the library sources in src/), into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. hugebench gets a spill directory of its own for
PUSH-JOIN run files; it is removed when the run ends, also after an abort,
and any huge_spill_* file found there counts as a failed operation.

Output: a full report line (host block, run facts, every metric), then, as
the last line, {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. The full report is also written to
<build>/reports/<workload>-seed<n>-trace<t>.json for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.abspath(
    os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "hugebench")
RUN_TIMEOUT_S = 170

# Span names whose self time the traced run reports, as trace.<name>.self_s.
# Service and engine spans come from the program's own tracing; the rest are
# the benchmark's spans around its calls into each layer.
SELF_TIME_SPANS = [
    "execute", "segment", "scan", "hop", "fetch",
    "graph_build", "graph_stats", "signature", "optimize", "translate",
    "cluster_run",
]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=850)
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def git_rev():
    """HEAD of the checkout's .git, if there is one (read directly, so no
    directory above the checkout is searched)."""
    git = os.path.join(ROOT, ".git")
    try:
        head = open(os.path.join(git, "HEAD")).read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            return open(path).read().strip()
        for line in open(os.path.join(git, "packed-refs")):
            if line.strip().endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, ROOT).encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()[:16]


def host_block():
    out = subprocess.run([BINARY, "--host"], capture_output=True, text=True,
                         timeout=30, check=True).stdout
    host = {"nproc": os.cpu_count()}
    host.update(json.loads(out))
    host["git_rev"] = git_rev()
    host["src_digest"] = src_digest()
    return host


def read_docs(path):
    """The trace file is a sequence of Chrome trace-event JSON arrays."""
    text = open(path).read()
    dec = json.JSONDecoder()
    pos, docs = 0, []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return docs
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)


def lane_self_times(spans, out):
    """Adds each span's self time (its duration minus the union of the spans
    nested directly inside it on the same lane) to out[name], in seconds."""
    spans.sort(key=lambda s: (s[0], -s[1]))
    children = [[] for _ in spans]
    stack = []
    for i, (ts, dur, _) in enumerate(spans):
        while stack and spans[stack[-1]][0] + spans[stack[-1]][1] <= ts:
            stack.pop()
        if stack:
            p = spans[stack[-1]]
            if ts + dur <= p[0] + p[1]:
                children[stack[-1]].append((ts, ts + dur))
        stack.append(i)
    for (ts, dur, name), kids in zip(spans, children):
        covered, end = 0.0, ts
        for a, b in sorted(kids):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[name] = out.get(name, 0.0) + (dur - covered) / 1e6


def reduce_trace(path, info):
    """Self time per span name per pass, and events the tracer dropped."""
    norm = {
        "setup": info.get("setups", 1),
        "bench": info.get("bench_passes", info.get("traced_passes", 1)),
        "engine": info.get("traced_passes", 1),
    }
    totals = {"setup": {}, "bench": {}, "engine": {}}
    dropped = 0
    for doc in read_docs(path):
        kinds, lanes = {}, {}
        for e in doc:
            if e.get("ph") == "M" and e.get("name") == "process_name":
                name = e["args"]["name"]
                kinds[e["pid"]] = {"perfbench-setup": "setup",
                                   "perfbench-pass": "bench"}.get(name,
                                                                  "engine")
            elif e.get("ph") == "X":
                lanes.setdefault((e["pid"], e.get("tid", 0)), []).append(
                    (float(e["ts"]), float(e["dur"]), e["name"]))
            elif e.get("name") == "truncated":
                dropped += int(e.get("args", {}).get("dropped", 0))
        for (pid, _), spans in lanes.items():
            lane_self_times(spans, totals[kinds.get(pid, "engine")])
    metrics = {}
    for name in SELF_TIME_SPANS:
        value = sum(totals[k].get(name, 0.0) / max(norm[k], 1e-9)
                    for k in totals)
        metrics["trace.%s.self_s" % name] = {"value": value, "unit": "s"}
    metrics["obs.trace_dropped"] = {"value": dropped, "unit": "count"}
    return metrics


def clean_stale_spill_dirs(base):
    """Removes spill directories of earlier runs whose process is gone."""
    if not os.path.isdir(base):
        return
    for entry in os.listdir(base):
        try:
            os.kill(int(entry), 0)
            continue
        except (ValueError, ProcessLookupError):
            pass
        except PermissionError:
            continue
        log("removing stale spill directory " + entry)
        shutil.rmtree(os.path.join(base, entry), ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        log("build failed")
        return 1

    spill_base = os.path.join(BUILD_ROOT, "spill")
    clean_stale_spill_dirs(spill_base)
    spill_dir = os.path.join(spill_base, str(os.getpid()))
    os.makedirs(spill_dir, exist_ok=True)
    trace_out = os.path.join(spill_dir, "trace.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill_dir]
    if args.trace:
        cmd += ["--trace-out", trace_out]

    child = None

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        if child.returncode != 0:
            log("hugebench exited with %d" % child.returncode)
            return 1
        lines = [l for l in stdout.splitlines() if l.strip()]
        result = json.loads(lines[-1])
        if args.trace:
            result["metrics"].update(reduce_trace(trace_out, result["info"]))
        leftovers = [f for f in os.listdir(spill_dir)
                     if f.startswith("huge_spill_")]
    except subprocess.TimeoutExpired:
        log("hugebench exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(spill_dir, ignore_errors=True)

    # Spill files left behind by a finished run are leaked disk: each one
    # counts as a failed operation.
    result["attempted"] += len(leftovers)
    result["failed"] += len(leftovers)
    result["spill_leftovers"] = len(leftovers)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        log("metrics missing from hugebench's output: " + ", ".join(missing))
        return 1
    if not result["correct"]:
        for f in result["failures"]:
            log("WRONG: " + f)

    report = {"host": host_block(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report.update(result)
    reports = os.path.join(BUILD_ROOT, "reports")
    os.makedirs(reports, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(reports, name), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
