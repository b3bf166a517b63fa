#!/usr/bin/env python3
"""saSTA benchmark: end-to-end runs of the shipped `sasta` binary and its
`--serve` daemon, plus an in-process traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds `sasta`, `perfbench_probe` and
`perfbench_calibrate` from source into .bench_build/perfbench (all of its
files live there), then
measures one workload for about S seconds:

  exhaustive_c432  sasta --threads 4 --paths 10 c432  (to completion)
  serve_eco        sasta --serve: seeded closed-loop ECO mix on a generated
                   column-structured design

Every workload runs a batch phase (its CLI job, repeated) interleaved with
serve sessions (daemon spawn, `load`, the seeded request script, shutdown),
so that every end-to-end metric is measured on every workload; the workloads
differ in the CLI job and in which phase gets most of the time.  With
--trace 1 it instead makes one traced pass (see README.md).

Outputs are checked against stored references and against in-process cold
analyses; any mismatch, failed call, crash or truncated result counts as
failed.  Time metrics are scaled to a reference host speed, measured by
perfbench_calibrate between the steps of the run (README.md, "Host
speed").  The last stdout line is the JSON result.
"""

import argparse
import gc
import json
import os
import random
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
import harness as h  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# serve_share: the part of a run's time given to serve sessions.
WORKLOADS = {
    "exhaustive_c432": {"design": "c432", "serve_share": 0.25},
    "serve_eco": {"design": None, "serve_share": 0.75},
}
SERVE_DESIGN = {"columns": 128, "inputs_per_column": 5, "levels": 8, "width": 5}
SCRIPT = {"warm": 250, "resize": 100, "retarget": 50, "swap_pairs": 50}  # >= 100 per class
EXTRA_LOADS = 3
SETUP_REPS = 10  # in-process set-up repetitions after each CLI run
CHECKPOINTS = 3  # seeded mid-script comparisons against a cold analysis
# Median perfbench_calibrate time on a quiet 4-vCPU Xeon host.  Every time
# metric is scaled by CAL_REF_S / (the run's median calibration time), so it
# reads in seconds of that host (README.md, "Host speed").
CAL_REF_S = 0.4
CAL_EVERY_S = 4.0  # calibrate between steps at most this often


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cli_args(design):
    return ["--threads", str(h.THREADS), "--paths", "10", design]


def build(env):
    """Configures (when new or when this directory's CMakeLists.txt changed)
    and builds sasta, perfbench_probe and perfbench_calibrate; a no-op
    rebuild when nothing changed."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no saSTA source tree at %s" % ROOT)
    log_path = os.path.join(env.work, "build.log")
    cache = os.path.join(env.build, "CMakeCache.txt")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(cache) or os.path.getmtime(cache) < os.path.getmtime(os.path.join(HERE, "CMakeLists.txt")):
            steps.append(["cmake", "-S", HERE, "-B", env.build, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", env.build, "--target", "sasta_cli", "perfbench_probe",
                      "perfbench_calibrate", "-j", str(h.THREADS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise RuntimeError("build failed: %s\n%s" % (" ".join(cmd), tail))


class Inputs:
    """Everything generated from the seed, written under the work dir."""

    def __init__(self, env, workload, seed):
        self.serve_text = h.make_design(seed, **SERVE_DESIGN)
        self.serve_bench = env.path("serve_%d.bench" % seed)
        with open(self.serve_bench, "w") as f:
            f.write(self.serve_text)
        self.seed = seed
        self.instances = h.parse_instances(env.probe_run("instances", "--design", self.serve_bench))
        self.script = self.session_script(0)
        self.script_path = env.path("script_%d.txt" % seed)
        with open(self.script_path, "w") as f:
            f.write("\n".join(self.script) + "\n")
        rng = random.Random(seed + 1)
        ecos = [i for i, line in enumerate(self.script) if line.split()[0] in ("resize", "retarget", "swap")]
        self.checkpoints = sorted([0] + rng.sample(ecos, CHECKPOINTS) + [len(self.script) - 1])
        self.design = WORKLOADS[workload]["design"] or self.serve_bench
        self.cold_answer = None  # the first cold response, which every later one must repeat

    def session_script(self, k):
        """The request script of a run's k-th daemon lifetime.  Each lifetime
        edits other gates, so a run samples more than one script's swaps;
        script 0 is the one checked at the checkpoints and traced."""
        return h.make_script(self.seed * 1000 + k, self.instances, **SCRIPT)


class Tally:
    """attempted / failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
                log("FAILED: " + what)
        return ok

    def attempt(self, what, fn, *args):
        """Runs one operation; if it crashes (a lost daemon, a failed probe,
        a malformed answer) that counts as one failed operation and the
        result is None."""
        try:
            return fn(*args)
        except (RuntimeError, OSError, ValueError, LookupError, ArithmeticError,
                subprocess.SubprocessError) as e:
            self.check(False, "%s: %s" % (what, e))
            return None


# ---- references --------------------------------------------------------------

COUNTERS = ("paths_recorded", "courses", "multi_vector_courses")


def load_reference(workload):
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload)
    if ref is not None:
        ref["listing"] = "\n".join(ref.pop("top10")) + "\n"
    return ref


def check_cli(tally, workload, res, expect):
    """One CLI invocation against its expectation: exit 0, untruncated, the
    sensitization counts where the expectation has them, and the top-10
    listing byte for byte."""
    what = "%s cli run" % workload
    if not tally.check(res["code"] == 0 and not res["truncated"], what + " exit/truncation"):
        return
    if "paths_recorded" in expect:
        tally.check(all(res.get(k) == expect[k] for k in COUNTERS),
                    what + " counters %s" % {k: res.get(k) for k in COUNTERS})
    tally.check(res["listing"] == expect["listing"], what + " top-10 listing")


# ---- phases ------------------------------------------------------------------

def answer(result):
    return h.response_paths(result), result.get("report")


def serve_session(env, inputs, script, tally, samples, keep=None):
    """One daemon lifetime: spawn, load, the whole request script, then
    EXTRA_LOADS more load + cold analyze pairs, shutdown.  Appends latency
    samples per request class to `samples`; returns the responses at the
    indices in `keep`."""
    kept = {}
    d = h.Daemon(env)
    gc.disable()  # no collector pause inside a timed request
    try:
        resp, _, _ = d.call("load", {"bench_text": inputs.serve_text, "netlist": "serve"})
        samples.setdefault("setup", []).append(time.perf_counter() - d.t_spawn)
        tally.check("result" in resp, "serve load: %s" % resp.get("error"))
        prev = None
        for i, line in enumerate(script):
            resp, rtt, nbytes = d.send(h.rpc_request(line, i + 2))
            result = resp.get("result")
            ok = tally.check(result is not None and not result["truncated"],
                             "request %d (%s): %s" % (i, line, resp.get("error", "truncated")))
            cls = h.request_class(line)
            samples.setdefault(cls, []).append(rtt)
            if cls == "cold" and ok and inputs.cold_answer is None:
                inputs.cold_answer = answer(result)
            if cls == "warm" and ok:
                samples.setdefault("rpc_overhead", []).append(rtt - result["seconds"])
                samples.setdefault("rpc_bytes", []).append(nbytes)
            if cls == "swap" and ok:
                samples.setdefault("dirty", []).append(result["eco"]["dirty_sources"] / result["sources"]["total"])
            if line == "final" and ok and prev is not None:
                # A forced cold recompute of an unchanged design must repeat
                # the warm answer byte for byte.
                tally.check(h.response_paths(result) == h.response_paths(prev)
                            and result.get("report") == prev.get("report"), "final force_cold vs warm state")
            if keep is not None and i in keep and ok:
                kept[i] = result
            prev = result if ok else None
        # A new session on a warm daemon: its first analyze is cold again.
        for _ in range(EXTRA_LOADS):
            resp, _, _ = d.call("load", {"bench_text": inputs.serve_text, "netlist": "serve"})
            tally.check("result" in resp, "serve reload: %s" % resp.get("error"))
            resp, rtt, _ = d.call("analyze")
            result = resp.get("result")
            samples["cold"].append(rtt)
            tally.check(result is not None and not result["truncated"] and answer(result) == inputs.cold_answer,
                        "cold analyze of a reloaded session")
    finally:
        code, rss = d.close()
        gc.enable()
    tally.check(code == 0, "daemon exit code %d" % code)
    samples.setdefault("daemon_rss", []).append(rss)
    return kept


def check_checkpoints(env, inputs, tally, kept):
    """Daemon answers at the checkpoints against in-process cold StaTool runs
    on the same edited design.  Returns the cold runs by script index (none
    if the probe failed)."""

    def cold_runs():
        out = env.probe_run("cold", "--design", inputs.serve_bench, "--script", inputs.script_path,
                            "--checkpoints", ",".join(map(str, inputs.checkpoints)), "--threads", str(h.THREADS))
        return {rec["index"]: rec for rec in map(json.loads, out.splitlines())}

    cold = tally.attempt("cold StaTool checkpoints", cold_runs) or {}
    for i in inputs.checkpoints:
        got, ref = kept.get(i), cold.get(i)
        tally.check(got is not None and ref is not None and not ref["truncated"]
                    and h.response_paths(got) == ref["paths"] and got.get("report", "") == ref["report"],
                    "checkpoint %d (%s) vs cold StaTool" % (i, inputs.script[i]))
    return cold


def batch_expectation(workload, cold):
    """The stored reference; for the generated serve design, which has none,
    the listing of the cold in-process analysis of the unedited design
    (checkpoint 0)."""
    ref = load_reference(workload)
    if ref is not None:
        return ref
    return {"listing": cold[0]["listing"] if 0 in cold else None}


def setup_times(env, design):
    out = json.loads(env.probe_run("setup", "--design", design, "--reps", str(SETUP_REPS)))
    return out["total_s"]


def measure(env, workload, inputs, seconds, tally):
    cfg = WORKLOADS[workload]
    samples = {}
    cal = [env.host_seconds()]
    t0 = last_cal = time.monotonic()
    # First session: the one whose answers are verified at the checkpoints.
    kept = tally.attempt("serve session 0", serve_session, env, inputs, inputs.script, tally, samples,
                         set(inputs.checkpoints)) or {}
    cold = check_checkpoints(env, inputs, tally, kept)
    expect = batch_expectation(workload, cold)
    serve_used, batch_used = time.monotonic() - t0, 0.0
    batch, cli_runs, sessions = [], 0, 1
    share = cfg["serve_share"]
    # Interleave the phases so that each spans the whole run and gets its
    # share of the time: at least three CLI runs and two daemon lifetimes.
    while True:
        short_batch, short_serve = cli_runs < 3, sessions < 2
        if time.monotonic() - t0 >= seconds and not short_batch and not short_serve:
            break
        if time.monotonic() - last_cal >= CAL_EVERY_S:
            cal.append(env.host_seconds())
            last_cal = time.monotonic()
        t1 = time.monotonic()  # the phases' shares leave calibration out
        if short_batch if t1 - t0 >= seconds else batch_used / (1 - share) <= serve_used / share:
            cli_runs += 1
            res = tally.attempt("cli run", h.run_cli, env, cli_args(inputs.design))
            if res is not None:
                check_cli(tally, workload, res, expect)
                batch.append(res)
            if cfg["design"] is not None:
                # Spread over the run like every other sample.
                times = tally.attempt("set-up timing", setup_times, env, cfg["design"])
                samples.setdefault("inprocess_setup", []).extend(times or [])
            batch_used += time.monotonic() - t1
        else:
            tally.attempt("serve session %d" % sessions, serve_session, env, inputs,
                          inputs.session_script(sessions), tally, samples)
            sessions += 1
            serve_used += time.monotonic() - t1

    cal.append(env.host_seconds())
    speed = CAL_REF_S / h.median(cal)
    metrics, raw = {}, {}

    def put(name, value, unit):
        raw[name] = value
        metrics[name] = {"value": value * speed if unit in ("s", "ms") else value, "unit": unit}

    put("setup_s", h.median(samples["setup" if cfg["design"] is None else "inprocess_setup"]), "s")
    put("wall_s", h.median([r["wall_s"] for r in batch]), "s")
    rss = samples["daemon_rss"] if cfg["design"] is None else [r["rss_mb"] for r in batch]
    put("peak_rss_mb", h.median(rss), "MiB")
    put("cold_s", h.median(samples["cold"]), "s")
    for cls in ("warm", "retime", "swap"):
        ms = [x * 1e3 for x in samples[cls]]
        put(cls + "_p50_ms", h.median(ms), "ms")
        p90 = h.percentile(ms, 0.9)
        if p90 is None:
            raise RuntimeError("too few %s samples for p90" % cls)
        put(cls + "_p90_ms", p90, "ms")
    counts = {k: len(v) for k, v in samples.items() if k in ("cold", "warm", "retime", "swap")}
    log("samples: %d batch runs, %d serve sessions, %s" % (len(batch), sessions, counts))
    log("host speed: calibration median %.4f s over %d runs (range %.4f-%.4f), time scale %.4f" % (
        h.median(cal), len(cal), min(cal), max(cal), speed))
    log("unscaled: " + json.dumps(raw))
    log("swap dirty fraction (mean over %d swaps): %.4f" % (len(samples["dirty"]),
                                                            sum(samples["dirty"]) / len(samples["dirty"])))
    return metrics


# ---- traced run --------------------------------------------------------------

def traced(env, workload, inputs, tally):
    samples = {}
    kept = tally.attempt("serve session 0", serve_session, env, inputs, inputs.script, tally, samples,
                         set(inputs.checkpoints)) or {}
    cold = check_checkpoints(env, inputs, tally, kept)
    cli = h.run_cli(env, cli_args(inputs.design))
    check_cli(tally, workload, cli, batch_expectation(workload, cold))

    tr = json.loads(env.probe_run("trace", "--design", inputs.design, "--threads", str(h.THREADS),
                                  "--spans", env.path("spans.json"), "--serve-design", inputs.serve_bench,
                                  "--script", inputs.script_path))
    st = tr["stats"]
    # Parity: the traced in-process pipeline is the program the CLI runs.
    tally.check(tr["listing"] == cli["listing"] and not st["truncated"], "traced run top-10 listing vs CLI")
    tally.check(all(st[k] == cli.get(k) for k in COUNTERS), "traced run counters vs CLI")
    for r in tr["requests"]:
        tally.check(r["report_ok"] and not r["truncated"], "traced session request (%s)" % r["class"])

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    self_s = tr["self_s"]
    run_s = self_s["search.run"]
    put("netlist.build_s", self_s["netlist"], "s")
    put("charlib.load_s", self_s["charlib"], "s")
    put("search.prepare_s", self_s["search.prepare"], "s")
    put("search.run_s", run_s, "s")
    for k in ("vector_trials", "backtracks", "paths_recorded", "justify_limited", "cache_prunes",
              "solver_escalations"):
        put("search." + k, st[k], "count")
    put("search.paths_per_trial", st["paths_recorded"] / max(1, st["vector_trials"]), "ratio")
    put("search.cache_hit_ratio", st["cache_hits"] / max(1, st["cache_hits"] + st["cache_misses"]), "ratio")
    put("search.escalation_yield", st["escalation_refutes"] / max(1, st["solver_escalations"]), "ratio")
    put("search.parallel_efficiency", tr["source_seconds"] / (tr["threads"] * run_s), "ratio")
    put("delaycalc.s", self_s["delaycalc"], "s")
    put("delaycalc.calls", tr["delaycalc_calls"], "count")
    put("select.s", self_s["select"], "s")
    put("report.s", self_s["report"], "s")
    put("eco.impact_s", self_s["eco"], "s")
    swaps = [r for r in tr["requests"] if r["class"] == "swap"]
    put("eco.dirty_fraction", sum(r["dirty_fraction"] for r in swaps) / len(swaps), "ratio")
    for cls in ("warm", "retime", "swap"):
        rows = [r for r in tr["requests"] if r["class"] == cls]
        put("session.%s.s" % cls, h.median([r["seconds"] for r in rows]), "s")
        if cls != "warm":  # a warm answer re-times nothing by definition
            put("session.%s.sources_retimed" % cls, sum(r["retimed"] for r in rows) / len(rows), "count")
    put("session.swap.search_s", h.median([r["search_s"] for r in swaps]), "s")
    put("session.swap.sources_searched", sum(r["searched"] for r in swaps) / len(swaps), "count")
    put("session.s", self_s["session"], "s")
    put("rpc.overhead_ms", h.median(samples["rpc_overhead"]) * 1e3, "ms")
    put("rpc.response_bytes", h.median(samples["rpc_bytes"]), "bytes")
    put("trace.batch_total_s", tr["batch_total_s"], "s")
    put("trace.batch_uncovered_share", tr["batch_uncovered_s"] / tr["batch_total_s"], "ratio")
    put("trace.serve_uncovered_share", tr["serve_uncovered_s"] / tr["serve_total_s"], "ratio")
    put("trace.overhead_s", tr["batch_total_s"] - tr["batch_untraced_s"], "s")
    log("traced run: %d spans, batch phase %.3f s (%.2f%% uncovered), serve phase %.3f s" % (
        tr["spans"], tr["batch_total_s"], 100 * tr["batch_uncovered_s"] / tr["batch_total_s"], tr["serve_total_s"]))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = h.Env(ROOT)
    try:
        build(env)
        env.probe_run("setup", "--design", "c17", "--reps", "1", timeout=900)  # characterize once
        inputs = Inputs(env, args.workload, args.seed)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: set-up failed: %s" % e)
        return 1
    tally = Tally()
    if args.trace:
        metrics = tally.attempt("traced run", traced, env, args.workload, inputs, tally)
    else:
        metrics = tally.attempt("timed run", measure, env, args.workload, inputs, args.seconds, tally)
    metrics = metrics or {}
    for name, m in metrics.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
