#!/usr/bin/env python3
"""HawkSet benchmark: builds the worker and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--expect APP:ID,ID...]

Run from the repository root. It builds perfbench/main.exe with dune,
then runs one workload as a closed loop from a single client: one rep at
a time, each in a fresh worker process, until S seconds of reps have run
(at least three). Workloads (BENCHMARK.json names the first two and says
why):

  run-large        fast-fair, YCSB 30/30/30/10, 64k main-phase ops (~4.1M
                   events): registry run -> Pipeline.run -> Report.to_json.
  analyze-offline  set-up saves a ~1M-event fast-fair trace and ~0.4M-event
                   p-masstree and memcached-pmem traces; each rep loads
                   each file, runs Pipeline.run and Report.to_json.
  batch-small      Supervise.run over all nine apps x round-robin at 400
                   ops, each job declared twice (half hit the result
                   cache), job_workers=2, with a journal; then
                   Result_cache.save. Not in BENCHMARK.json: a rep's peak
                   RSS depends on which two jobs' heaps the two workers
                   hold at once (972-1726 MB over 14 reps of one seed), and
                   p-clht's trace at 400 ops is 120k, 215k or 300k events
                   by seed, so its figures are not steady across runs.

Every operation (a run, a trace file, a job) is checked after the clock
stops: expected Table-2 bugs found, no truncation, no exception; on
analyze-offline the checksum verified and the loaded trace's report equal
to the in-memory trace's; on batch-small each job's report equal to the
executable specification's (Reference.pipeline, run before the reps) and
a cache hit ratio of exactly 0.5.

--trace 0 prints the end-to-end metrics (medians over the reps).
--trace 1 alternates untraced and traced reps: traced reps record a span
around every call into a layer's public function and write the spans to
.perfbench/spans-<workload>-<seed>.jsonl when the run ends; the per-layer
metrics come from them. Layers a workload's timed path does not call are
measured on the warm-up pass that precedes every rep (one tiny call into
every layer).

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the lines before it are a human-readable table and host metadata. The
full result is also written to .perfbench/result-<workload>-<seed>.json.
Exits 1 when an operation failed, 2 when the program cannot be built.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

WORKLOADS = ("run-large", "analyze-offline", "batch-small")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench"
MIN_REPS = 3  # untraced reps per run; a traced run takes 2 of each kind
SETUP_PASSES = 3  # analyze-offline set-up passes per run (median reported)
WORKER_TIMEOUT_S = 150
# Address-space cap of every worker process. The largest legitimate one,
# a batch-small rep, peaks at ~1.7 GB RSS; a run that grows past the cap
# (memcached-pmem at 40k ops on seed 207 ran away past 7.8 GB) fails as
# an operation instead of taking the host's memory.
WORKER_MEM_BYTES = 4 << 30


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (WORKER_MEM_BYTES, WORKER_MEM_BYTES))

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("peak_bytes_per_event", "B"),
    ("setup_s", "s"),
)

LAYERS = ("execute", "trace_io", "collect", "analyse", "pipeline", "report",
          "cache", "supervise")

PER_LAYER_UNITS = {
    "execute.s": "s",
    "execute.ns_per_event": "ns",
    "execute.alloc_words_per_event": "words",
    "execute.per_run_s": "s",
    "sched.switch_ratio": "ratio",
    "trace_io.s": "s",
    "trace_io.load_s": "s",
    "trace_io.load_mb_per_s": "MB/s",
    "trace_io.alloc_words_per_event": "words",
    "trace_io.save_s": "s",
    "collect.s": "s",
    "collect.events_per_s": "1/s",
    "collect.alloc_words_per_event": "words",
    "collect.records_per_event": "ratio",
    "collect.heap_growth_mb": "MB",
    "analyse.s": "s",
    "analyse.pairs_examined": "count",
    "analyse.ns_per_pair": "ns",
    "analyse.memo_hit_ratio": "ratio",
    "analyse.hb_prune_ratio": "ratio",
    "pipeline.s": "s",
    "report.to_json_s": "s",
    "report.bytes": "bytes",
    "cache.s": "s",
    "cache.hit_ratio": "ratio",
    "cache.save_s": "s",
    "cache.bytes": "bytes",
    "supervise.s": "s",
    "supervise.s_per_job": "s",
    "supervise.attempts_per_job": "ratio",
    "journal.bytes": "bytes",
}
for _layer in LAYERS:
    PER_LAYER_UNITS[_layer + ".minor_gcs"] = "count"
    PER_LAYER_UNITS[_layer + ".major_gcs"] = "count"
PER_LAYER_UNITS["trace.coverage"] = "ratio"
PER_LAYER_UNITS["trace.overhead"] = "ratio"

# Span name -> layer. "rep" (the timed window) and "split" (the traced
# pipeline's direct stage calls) are glue, not layers.
LAYER_OF = {
    "execute": "execute",
    "trace_io.save": "trace_io",
    "trace_io.load": "trace_io",
    "trace_io.fingerprint": "trace_io",
    "collect": "collect",
    "analyse": "analyse",
    "pipeline": "pipeline",
    "report.to_json": "report",
    "cache.find": "cache",
    "cache.add": "cache",
    "cache.save": "cache",
    "supervise": "supervise",
}


def build():
    """Builds the worker; exits 2 (printing no result) when it cannot."""
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           capture_output=True, text=True, timeout=850)
        err = r.stderr[-4000:]
        ok = r.returncode == 0 and os.path.exists(EXE)
    except (OSError, subprocess.TimeoutExpired) as e:
        err, ok = str(e), False
    if not ok:
        print(f"build failed: {err}", file=sys.stderr)
        sys.exit(2)


def worker(*args):
    """Runs one worker process; returns its JSON result or None."""
    try:
        r = subprocess.run([EXE, *args], capture_output=True, text=True,
                           timeout=WORKER_TIMEOUT_S, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        print(f"worker {args[0]} timed out", file=sys.stderr)
        return None
    lines = r.stdout.strip().splitlines()
    try:
        if r.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    print(f"worker {args[0]} exited {r.returncode}: {r.stderr[-2000:]}",
          file=sys.stderr)
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(rep, setup_extra):
    wall = rep["wall_s"]
    events = max(rep["events"], 1)
    return {
        "wall_s": wall,
        "cpu_s": rep["cpu_s"],
        "events_per_s": rep["events"] / wall,
        "jobs_per_s": rep["ops"] / wall,
        "peak_rss_mb": rep["peak_rss_mb"],
        "peak_bytes_per_event":
            (rep["peak_rss_mb"] - rep["rss_before_mb"]) * 2**20 / events,
        "setup_s": rep["setup_s"] + setup_extra,
    }


def self_times(spans):
    """(proc, id) -> the span's time minus the time of its children."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            covered[(s["proc"], s["parent"])] += s["t1"] - s["t0"]
    return {(s["proc"], s["id"]): s["t1"] - s["t0"] - covered[(s["proc"], s["id"])]
            for s in spans}


def per_layer(rep_spans, setup_spans):
    """Per-layer metrics of one traced rep.

    A span name's figures come from the rep's timed window when it has
    spans of that name there, else from set-up (the warm-up pass, and on
    analyze-offline the recording pass): that is where, for example,
    analyze-offline executes the apps and saves the traces."""
    timed = [s for s in rep_spans if s["phase"] == "timed"]
    setup = [s for s in rep_spans if s["phase"] == "setup"] + setup_spans
    self_t = self_times(rep_spans + setup_spans)
    timed_names = {s["name"] for s in timed}
    chosen = defaultdict(list)
    for s in timed + [s for s in setup if s["name"] not in timed_names]:
        chosen[s["name"]].append(s)

    def spans_of(*names):
        return [s for n in names for s in chosen[n]]

    def self_sum(spans):
        return sum(self_t[(s["proc"], s["id"])] for s in spans)

    def attr(spans, key):
        return sum(s["attrs"].get(key, 0.0) for s in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    ex = spans_of("execute")
    m["execute.s"] = self_sum(ex)
    m["execute.ns_per_event"] = ratio(self_sum(ex) * 1e9, attr(ex, "events"))
    m["execute.alloc_words_per_event"] = ratio(
        sum(s["alloc_words"] for s in ex), attr(ex, "events"))
    m["execute.per_run_s"] = ratio(self_sum(ex), len(ex))
    m["sched.switch_ratio"] = ratio(attr(ex, "switches"), attr(ex, "sched_points"))

    load, save = spans_of("trace_io.load"), spans_of("trace_io.save")
    m["trace_io.s"] = self_sum(spans_of("trace_io.load", "trace_io.save",
                                        "trace_io.fingerprint"))
    m["trace_io.load_s"] = self_sum(load)
    m["trace_io.load_mb_per_s"] = ratio(attr(load, "bytes") / 2**20, self_sum(load))
    m["trace_io.alloc_words_per_event"] = ratio(
        sum(s["alloc_words"] for s in load), attr(load, "events"))
    m["trace_io.save_s"] = self_sum(save)

    co = spans_of("collect")
    m["collect.s"] = self_sum(co)
    m["collect.events_per_s"] = ratio(attr(co, "events"), self_sum(co))
    m["collect.alloc_words_per_event"] = ratio(
        sum(s["alloc_words"] for s in co), attr(co, "events"))
    m["collect.records_per_event"] = ratio(attr(co, "records"), attr(co, "events"))
    m["collect.heap_growth_mb"] = sum(s["major_words"] for s in co) * 8 / 2**20

    an, pl = spans_of("analyse"), spans_of("pipeline")
    m["analyse.s"] = self_sum(an)
    m["analyse.pairs_examined"] = attr(an, "pairs")
    m["analyse.ns_per_pair"] = ratio(self_sum(an) * 1e9, attr(an, "pairs"))
    m["analyse.memo_hit_ratio"] = ratio(attr(pl, "memo_hits"), attr(pl, "memo_lookups"))
    m["analyse.hb_prune_ratio"] = ratio(attr(pl, "pruned_hb"), attr(pl, "pairs"))
    m["pipeline.s"] = self_sum(pl)

    rp = spans_of("report.to_json")
    m["report.to_json_s"] = self_sum(rp)
    m["report.bytes"] = attr(rp, "bytes")

    finds, csave = spans_of("cache.find"), spans_of("cache.save")
    m["cache.s"] = self_sum(spans_of("cache.find", "cache.add", "cache.save"))
    m["cache.hit_ratio"] = ratio(attr(finds, "hit"), len(finds))
    m["cache.save_s"] = self_sum(csave)
    m["cache.bytes"] = attr(csave, "bytes")

    su = spans_of("supervise")
    m["supervise.s"] = self_sum(su)
    m["supervise.s_per_job"] = ratio(self_sum(su), attr(su, "jobs"))
    m["supervise.attempts_per_job"] = ratio(attr(su, "attempts"), attr(su, "jobs"))
    m["journal.bytes"] = attr(su, "journal_bytes")

    for layer in LAYERS:
        spans = [s for n, l in LAYER_OF.items() if l == layer for s in chosen[n]]
        m[layer + ".minor_gcs"] = float(sum(s["minor_gcs"] for s in spans))
        m[layer + ".major_gcs"] = float(sum(s["major_gcs"] for s in spans))

    root = [s for s in timed if s["name"] == "rep"]
    layer_self = sum(self_t[(s["proc"], s["id"])] for s in timed if s["name"] in LAYER_OF)
    m["trace.coverage"] = ratio(layer_self, sum(s["t1"] - s["t0"] for s in root))
    return m


def summarize(samples):
    """name -> list of values  ->  name -> (median, q1, q3, n)."""
    out = {}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        out[name] = (statistics.median(values), q1, q3, len(values))
    return out


def host_metadata(ocaml):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "ocaml": ocaml,
        "build_profile": os.environ.get("DUNE_PROFILE", "dev"),
        "commit": commit,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--expect", default=None,
                    help="APP:ID,ID... replaces an app's expected bug ids")
    args = ap.parse_args()
    # On SIGTERM, unwind: subprocess.run, and the finally clause around
    # the oracle shards, then kill and reap the running workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()

    w, seed = args.workload, args.seed
    work = os.path.join(WORK, f"{w}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans_file = os.path.join(WORK, f"spans-{w}-{seed}.jsonl")
    if os.path.exists(spans_file):
        os.remove(spans_file)
    # The oracle's answers depend only on the job and the program, so they
    # are kept across runs, keyed by the executable's digest.
    with open(EXE, "rb") as f:
        spec_dir = os.path.join(WORK, "spec-" + hashlib.sha1(f.read()).hexdigest()[:16])
    os.makedirs(spec_dir, exist_ok=True)
    common = ["--dir", work, "--seed", str(seed), "--size", args.size,
              "--spec-dir", spec_dir]
    if args.expect:
        common += ["--expect", args.expect]
    failures = []

    # Set-up that is shared by the reps of this run.
    phase_start = time.time()
    setup_samples = []
    if w == "analyze-offline":
        passes = 1 if args.trace else SETUP_PASSES
        for i in range(passes):
            last = i == passes - 1  # the reps read the last pass's files
            extra = (["--verify"] if last else []) + \
                (["--trace-out", spans_file] if args.trace else [])
            out = worker("record", *common, *extra)
            if out is None:
                failures.append("record pass failed")
                continue
            failures += out["failures"]
            setup_samples.append(out["setup_s"])
    elif w == "batch-small":
        # The executable specification is slow (naive pair loops), so it
        # runs before the reps, once per run, on two processes.
        shards = [subprocess.Popen([EXE, "spec", *common, "--shard", f"{i}/2"],
                                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                   text=True, preexec_fn=limit_memory)
                  for i in range(2)]
        try:
            for p in shards:
                try:
                    _, err = p.communicate(timeout=WORKER_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    p.kill()
                    _, err = p.communicate()
                if p.returncode != 0:
                    failures.append(f"spec shard failed: {err[-500:]}")
        finally:
            for p in shards:
                p.kill()
                p.wait()
    setup_extra = statistics.median(setup_samples) if setup_samples else 0.0
    phases = {"shared_setup_and_oracle": time.time() - phase_start}

    # The closed loop: one rep at a time, a fresh process each.
    untraced, traced = [], []
    attempted = failed = 0
    start = time.time()
    durations = []
    while True:
        want_traced = args.trace == 1 and len(untraced) > len(traced)
        t0 = time.time()
        extra = ["--trace-out", spans_file] if want_traced else []
        out = worker("rep", "--workload", w, *common, *extra)
        durations.append(time.time() - t0)
        if out is None:
            attempted, failed = attempted + 1, failed + 1
            failures.append("rep process failed")
        else:
            attempted += out["ops"]
            failed += out["failed"]
            failures += out["failures"]
            (traced if want_traced else untraced).append(out)
        if out is None or out["failed"]:
            break
        enough = len(untraced) >= (2 if args.trace else MIN_REPS) and \
            len(traced) >= (2 if args.trace else 0)
        elapsed = time.time() - start
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break

    phases["reps"] = time.time() - start
    shutil.rmtree(work, ignore_errors=True)
    ocaml = untraced[0]["ocaml"] if untraced else "unknown"
    meta = host_metadata(ocaml)
    input_desc = {"seed": seed, "size": args.size,
                  "input": untraced[0]["input"] if untraced else "unknown",
                  "events_per_rep": untraced[0]["events"] if untraced else 0,
                  "ops_per_rep": untraced[0]["ops"] if untraced else 0}

    samples = defaultdict(list)
    for rep in untraced:
        for k, v in end_to_end(rep, setup_extra).items():
            samples[k].append(v)
    samples["failed_ratio"].append(failed / max(attempted, 1))
    units = dict(END_TO_END)
    units["failed_ratio"] = "ratio"
    wanted = [n for n, _ in END_TO_END]

    if args.trace:
        units = dict(PER_LAYER_UNITS)
        units["failed_ratio"] = "ratio"
        spans = []
        if os.path.exists(spans_file):
            with open(spans_file) as f:
                spans = [json.loads(line) for line in f if line.strip()]
        setup_spans = [s for s in spans if s["proc"].startswith("record-")]
        procs = sorted({s["proc"] for s in spans if s["proc"].startswith("rep-")})
        layer_samples = defaultdict(list)
        for proc in procs:
            rep_spans = [s for s in spans if s["proc"] == proc]
            for k, v in per_layer(rep_spans, setup_spans).items():
                layer_samples[k].append(v)
        traced_wall = statistics.median(r["wall_s"] for r in traced) if traced else 0
        plain_wall = statistics.median(r["wall_s"] for r in untraced) if untraced else 1
        layer_samples["trace.overhead"].append(traced_wall / plain_wall - 1)
        samples = defaultdict(list, layer_samples,
                              failed_ratio=samples["failed_ratio"])
        wanted = list(PER_LAYER_UNITS)

    stats = summarize(samples)
    print(f"# hawkset perfbench: workload={w} seed={seed} trace={args.trace} "
          f"reps={len(untraced)}+{len(traced)} traced")
    print("# host: " + json.dumps(meta))
    print("# input: " + json.dumps(input_desc))
    print(f"# {'metric':34} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for name in wanted + ["failed_ratio"]:
        if name in stats:
            med, q1, q3, n = stats[name]
            print(f"  {name:34} {units[name]:>6} {med:14.6g} {q1:14.6g} {q3:14.6g} {n:3d}")
    for f in failures[:20]:
        print("# FAILED: " + f)

    correct = failed == 0 and not failures and attempted > 0
    metrics = {n: {"value": stats[n][0], "unit": units[n]} for n in wanted if n in stats}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    full = {"workload": w, "trace": args.trace, "host": meta, "input": input_desc,
            "stats": {n: dict(zip(("median", "q1", "q3", "n"), v), unit=units[n])
                      for n, v in stats.items()},
            "samples": samples,
            "phase_seconds": phases, "failures": failures, "result": result}
    with open(os.path.join(WORK, f"result-{w}-{seed}.json"), "w") as f:
        json.dump(full, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
