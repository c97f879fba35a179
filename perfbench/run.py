#!/usr/bin/env python3
"""Raw-log-to-verdict benchmark for UCAD.

Builds perfbench/ (the repository's libraries plus the pipeline_bench
program) and runs one workload:

    python3 perfbench/run.py --workload screen-commenting --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). With --trace 0 the last stdout line is a
JSON object holding every end-to-end metric of BENCHMARK.json; with
--trace 1 it holds every per-layer metric, computed from the obs::TraceSpan
events the program records around each layer call.

    python3 perfbench/run.py --self-check

runs every workload at a tiny size, checks that each named metric is
emitted, and that a deliberately corrupted oracle entry is counted as a
failed operation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("screen-commenting", "screen-location", "stream-commenting")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the program; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "pipeline_bench", "-j", "4"],
    ]
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "pipeline_bench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(binary, workload, seed, seconds, trace, out_dir, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log("pipeline_bench exited with %d" % proc.returncode)
        return None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


# ---------------------------------------------------------------------------
# Span analysis (traced run)
# ---------------------------------------------------------------------------

LAYER_OF_PREFIX = {
    "sql": "sql", "prep": "prep", "transdas": "transdas",
    "detector": "transdas", "trainer": "transdas", "nn": "nn", "obs": "obs",
}
LAYERS = ("sql", "prep", "transdas", "nn", "obs")


def layer_of(name):
    for sep in (".", "/"):
        if sep in name:
            return LAYER_OF_PREFIX.get(name.split(sep, 1)[0])
    return None


def analyze_spans(events):
    """Per-name duration sums and per-layer self time under bench roots.

    A span's parent is the innermost span of the same thread that contains
    it; self time is its duration minus its direct children's durations.
    Returns (name -> [count, total_us]) and (layer -> self_us within the
    measured requests), plus the summed duration of the root spans.
    """
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e["tid"], []).append(e)
    totals = {}
    self_us = {layer: 0.0 for layer in LAYERS}
    root_us = 0.0
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child_us, inside_measured_root]
        def close(entry):
            ev, child_us, inside = entry
            layer = layer_of(ev["name"])
            if inside and layer is not None:
                self_us[layer] += ev["dur"] - child_us
        for e in spans:
            while stack and e["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                close(stack.pop())
            t = totals.setdefault(e["name"], [0, 0.0])
            t[0] += 1
            t[1] += e["dur"]
            is_root = e["name"] in ("bench.pass", "bench.request") and not any(
                s[0]["name"] in ("bench.pass", "bench.request") for s in stack)
            if is_root:
                root_us += e["dur"]
            inside = is_root or (stack and stack[-1][2])
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0.0, bool(inside)])
        while stack:
            close(stack.pop())
    return totals, self_us, root_us


def per_layer_metrics(result, events):
    m = {k: v["value"] for k, v in result["metrics"].items()}
    si = result["span_inputs"]
    totals, self_us, root_us = analyze_spans(events)

    def total(name):
        return totals.get(name, [0, 0.0])[1]

    def per(name, count):
        return total(name) / count if count else 0.0

    ops, sessions = si["ops"], si["sessions"]
    stream = si["score_next_calls"] > 0
    m["sql.read_us_per_op"] = per("sql.read", ops)
    if stream:
        tok_us_per_op = (total("sql.parse") + total("sql.lookup")) / max(ops, 1)
        tokenize_in_prep = 0.0
    else:
        # PrepareActiveSession tokenizes internally; its cost is taken from
        # the same call timed per session outside the traced requests.
        tok_us_per_op = per("sql.tokenize", si["calibration_ops"])
        tokenize_in_prep = min(tok_us_per_op * ops, total("prep.admit"))
    m["sql.tokenize_us_per_op"] = tok_us_per_op
    m["prep.admit_us_per_session"] = (
        (total("prep.admit") - tokenize_in_prep) / sessions if sessions else 0.0)
    m["prep.train_prepare_s"] = total("prep.train_prepare") * 1e-6
    train_s = total("transdas.train") * 1e-6
    m["transdas.train_s"] = train_s
    m["transdas.train_windows_per_s"] = (
        si["train_windows"] / train_s if train_s else 0.0)
    m["transdas.detect_us_per_window"] = per("transdas.detect",
                                             si["detect_windows"])
    m["transdas.score_next_us"] = per("transdas.score_next",
                                      si["score_next_calls"])
    m["transdas.explain_us_per_flag"] = per("transdas.explain",
                                            si["explain_calls"])
    m["obs.audit_append_us"] = per("obs.audit_append", si["audit_appends"])

    # Layer self times. The nn stages come from the flight recorder; on a
    # multi-lane run their sum is lane time, so it is scaled to the wall
    # time of the detector calls that contain them.
    detect_wall_ms = (total("transdas.detect") +
                      total("transdas.score_next")) * 1e-3
    nn_ms = si["nn_stage_ms"]
    if si["all_stage_ms"] > detect_wall_ms > 0:
        nn_ms *= detect_wall_ms / si["all_stage_ms"]
    layer_us = dict(self_us)
    layer_us["nn"] += nn_ms * 1e3
    layer_us["transdas"] = max(0.0, layer_us["transdas"] - nn_ms * 1e3)
    layer_us["sql"] += tokenize_in_prep
    layer_us["prep"] = max(0.0, layer_us["prep"] - tokenize_in_prep)
    attributed = 0.0
    for layer in LAYERS:
        share = layer_us[layer] / root_us if root_us else 0.0
        m[layer + ".share"] = share
        attributed += share
    m["trace.unattributed_share"] = 1.0 - attributed
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def emit(result, names_units, metrics):
    out = {}
    for name, unit in names_units:
        if name not in metrics:
            log("metric %s was not produced" % name)
            return False
        out[name] = {"value": metrics[name], "unit": unit}
    for name, unit in names_units:
        print("%-32s %14.6g %s" % (name, metrics[name], unit))
    if "info" in result:
        print("info: " + json.dumps(result["info"]))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": out}))
    sys.stdout.flush()
    return True


def run_once(binary, spec, workload, seed, seconds, trace, extra=()):
    """Runs one measurement; returns the emitted result dict or None."""
    os.makedirs(build_dir(), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    try:
        result = run_bench(binary, workload, seed, seconds, trace, work,
                            extra)
        if result is None:
            return None
        if trace:
            with open(os.path.join(work, "trace.json")) as f:
                events = json.load(f)["traceEvents"]
            metrics = per_layer_metrics(result, events)
            names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        if not emit(result, names, metrics):
            return None
        return {"result": result, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_check(binary, spec):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            got = run_once(binary, spec, workload, 1, 1, trace,
                           ("--tiny", "1"))
            if got is None or not got["result"]["correct"]:
                log("self-check: %s trace=%d did not pass" % (workload, trace))
                ok = False
        got = run_once(binary, spec, workload, 1, 1, False,
                       ("--tiny", "1", "--corrupt-oracle", "1"))
        if (got is None or got["result"]["correct"] or
                got["result"]["failed"] < 1):
            log("self-check: %s corrupted oracle entry was not counted"
                % workload)
            ok = False
    log("self-check " + ("passed" if ok else "FAILED"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    binary = build()
    if binary is None:
        return 1
    spec = load_spec()
    if args.self_check:
        return 0 if self_check(binary, spec) else 1
    got = run_once(binary, spec, args.workload, args.seed, args.seconds,
                   bool(args.trace))
    return 0 if got is not None else 1


if __name__ == "__main__":
    sys.exit(main())
