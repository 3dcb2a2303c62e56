#!/usr/bin/env python3
"""The repo benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds `ccr` and the harness (perfbench/ccrbench.ml) with dune, checks
once that the harness's answer matches what the `ccr` binary prints for the
same workload (CLI parity, outside the timed runs), then runs the harness
in a closed loop with one client -- one fresh process per run, the next
started when the previous verdict has returned -- for S seconds.  Every
run's answer is checked against the hand-written values in
perfbench/expected.ml.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones: the median verdict of
the runs, the fastest set-up (each run reports the median of its own
set-ups) and the median peak RSS.  With --trace 1 the time is split between
untraced runs, traced runs and, on the two checks, traced runs of the
workload's companion: the same check at -j 2 beside check-sym, Eq. 1 over
the same full space beside check-nosym.  The metrics are then the per-layer
ones of the fastest traced runs, plus the tracing overhead.  See
perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(ROOT, "_build", "default", "perfbench", "ccrbench.exe")
CCR = os.path.join(ROOT, "_build", "default", "bin", "ccr.exe")
OUT = os.path.join(HERE, "out")

# Each workload's harness workload, and the companion its traced
# invocation also runs (None: no companion).
WORKLOADS = {
    "check-sym": ("check-sym", "check-sym-j2"),
    "check-nosym": ("check-nosym", "eq1"),
    "loop": ("loop", None),
}

BASE = ["invalidate", "-n", "4"]
CHECK = ["check"] + BASE + ["--level", "async"]
# The ccr command line each harness workload must agree with (None: no
# parity check; the loop engine's schedule is not part of its answer).
CLI = {
    "check-sym": CHECK,
    "check-sym-j2": CHECK + ["-j", "2"],
    "check-nosym": CHECK + ["--symmetry", "off"],
    "eq1": ["eq1"] + BASE,
    "loop": None,
}

# What a companion's fastest traced run reports, under the name it is
# reported as: (metric of the harness run, name in BENCHMARK.json).
COMPANION_LAYERS = {
    "check-sym-j2": [
        ("par.busy_share.d0", "par.busy_share.d0"),
        ("par.busy_share.d1", "par.busy_share.d1"),
        ("par.unaccounted_s", "par.unaccounted_s"),
        ("canon.us_per_call", "par.canon_us_per_call"),
        ("succ.us_per_call", "par.succ_us_per_call"),
    ],
    "eq1": [
        ("eq1.us_per_transition", "eq1.us_per_transition"),
        ("eq1.stutter_share", "eq1.stutter_share"),
        ("eq1.abs_states", "eq1.abs_states"),
        ("eq1.alloc_words_per_transition", "eq1.alloc_words_per_transition"),
    ],
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150
# Start no timed run after this many seconds, so the whole invocation
# ends well within its limit even on a slow host.
LAST_START_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def env():
    e = dict(os.environ)
    e.pop("OCAMLRUNPARAM", None)  # the runtime's defaults, as users get them
    e["DUNE_CACHE"] = "disabled"  # keep build products inside the checkout
    return e


def build():
    cmd = ["dune", "build", "--root", ".", "-j", "2",
           "./perfbench/ccrbench.exe", "./bin/ccr.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exn:
        log(f"build failed: {exn}")
        return False
    return p.returncode == 0 and os.path.exists(HARNESS) and os.path.exists(CCR)


def run_harness(workload, seed, traced, out=None):
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if out:
            cmd += ["--out", out]
    p = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def cli_answer(workload):
    """What the ccr binary prints for the workload, in the harness's terms."""
    p = subprocess.run([CCR] + CLI[workload], cwd=ROOT, env=env(),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=RUN_TIMEOUT_S)
    out = p.stdout
    if workload == "eq1":
        m = re.search(r"eq1: (OK|FAIL\w*) \S+ (\d+) async states \((\d+) "
                      r"transitions: (\d+) stutters, (\d+) rendezvous steps\) "
                      r"covering (\d+) rendezvous states", out)
        if not m:
            return {"unparsed": out}
        keys = ["states", "transitions", "stutters", "steps", "abs_states"]
        ans = dict(zip(keys, m.groups()[1:]))
        ans["ok"] = "1" if m.group(1) == "OK" else "0"
        return ans
    m = re.search(r"(\d+) states, (\d+) transitions", out)
    o = re.search(r"^outcome: (.*)$", out, re.M)
    if not (m and o):
        return {"unparsed": out}
    return {"states": m.group(1), "transitions": m.group(2),
            "outcome": o.group(1)}


def parity(workload):
    try:
        return cli_answer(workload)
    except subprocess.TimeoutExpired:
        return {"timeout": "1"}


def measure(workload, seed, traced, budget_s, min_runs, t_start, out=None):
    """Closed-loop runs for about [budget_s] seconds, at least [min_runs].

    A run is started only if a run as long as the last one still ends
    within the budget, so the phase does not overrun it by a whole run.
    """
    runs, errors, last = [], 0, 0.
    t0 = time.monotonic()
    t_end = t0 + budget_s
    while (len(runs) + errors < min_runs
           or time.monotonic() + last <= t_end):
        if time.monotonic() - t_start > LAST_START_S:
            break
        r0 = time.monotonic()
        try:
            r = run_harness(workload, seed, traced,
                            out if not runs else None)
        except (subprocess.TimeoutExpired, ValueError) as exn:
            log(f"run failed: {exn}")
            r = None
        last = time.monotonic() - r0
        if r is None:
            errors += 1
        else:
            log(f"run {workload}{' traced' if traced else ''}: verdict_s "
                f"{r['verdict_s']:.6f} setup_s {r['setup_s']:.9f}")
            runs.append(r)
    return runs, errors


def repeats(workload, runs):
    """Counts must repeat exactly between traced runs, except under -j 2,
    where how work splits over the domains varies."""
    return workload == "check-sym-j2" or len({r["repeat"] for r in runs}) <= 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not build():
        log("perfbench: cannot build ccr and the harness")
        return 1
    t_start = time.monotonic()
    main_w, companion = WORKLOADS[a.workload]
    traced = a.trace == 1
    if not traced:
        companion = None

    # CLI parity, once per invocation, outside the timed runs
    expect = {w: parity(w) for w in (main_w, companion)
              if w is not None and CLI[w] is not None}

    out = None
    if traced:
        os.makedirs(OUT, exist_ok=True)
        out = os.path.join(OUT, f"{a.workload}-seed{a.seed}.trace.json")
    phases = 1 + traced + (companion is not None)
    share = a.seconds / phases
    plain, errs = measure(main_w, a.seed, False, share,
                          2 if traced else 3, t_start)
    attempted, failed = len(plain) + errs, errs
    probed, mate = [], []
    if traced:
        probed, errs = measure(main_w, a.seed, True, share, 2, t_start, out)
        attempted += len(probed) + errs
        failed += errs
    if companion is not None:
        mate, errs = measure(companion, a.seed, True, share, 2, t_start)
        attempted += len(mate) + errs
        failed += errs
    failed += sum(1 for r in plain + probed + mate if not r["ok"])

    for w, runs in ((main_w, plain + probed), (companion, mate)):
        if w not in expect:
            continue
        attempted += 1
        if not runs or runs[0]["answer"] != expect[w]:
            log(f"CLI parity: harness {runs[0]['answer'] if runs else None}"
                f" != ccr {expect[w]} on {w}")
            failed += 1

    if not plain or (traced and not probed) or (companion and not mate):
        log("perfbench: no completed run")
        return 1

    verdict = statistics.median(r["verdict_s"] for r in plain)
    if not traced:
        metrics = {
            "verdict_s": (verdict, "s"),
            "setup_s": (min(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                            "MB"),
        }
    else:
        same = repeats(main_w, probed) and repeats(companion, mate)
        if not same:
            log("perfbench: traced counts differ between runs")
            failed += 1
        fastest = min(r["verdict_s"] for r in plain)
        best = min(probed, key=lambda r: r["verdict_s"])
        # par.* is the companion's: at -j 1 there is no parallel layer
        metrics = {k: (v["value"], v["unit"]) for k, v in best["layer"].items()
                   if not k.startswith("par.")}
        if companion is not None:
            mbest = min(mate, key=lambda r: r["verdict_s"])
            for src, dst in COMPANION_LAYERS[companion]:
                v = mbest["layer"][src]
                metrics[dst] = (v["value"], v["unit"])
            if companion == "check-sym-j2":
                metrics["par.verdict_s"] = (mbest["verdict_s"], "s")
                metrics["par.speedup"] = (
                    best["verdict_s"] / mbest["verdict_s"], "ratio")
            else:
                metrics["eq1.verdict_s"] = (mbest["verdict_s"], "s")
                metrics["eq1.over_check_ratio"] = (
                    mbest["verdict_s"] / fastest, "ratio")
        # a layer the workload does not exercise reads 0
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for m in json.load(f)["per_layer"]:
                metrics.setdefault(m["name"], (0, m["unit"]))
        metrics["trace.verdict_s"] = (best["verdict_s"], "s")
        metrics["trace.overhead_ratio"] = (best["verdict_s"] / fastest,
                                           "ratio")
        metrics["trace.counts_repeat"] = (1 if same else 0, "count")
        metrics["failed_share"] = (failed / attempted, "share")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
