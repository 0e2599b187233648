#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the dsexpand pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload md5-doall --seed 1 --seconds 60 \
        --trace 0

Builds perfbench/pipebench.exe with dune, runs the workload in fresh
processes one after another for --seconds, checks every result, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The line before it holds the host
context and the sample count of every timing. A full report, with the
traced pass's spans and their self times, goes to .perfbench/ under the
repository root.

README.md next to this file describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pipebench.exe")

WORKLOADS = ("md5-doall", "h263-twoloop", "bzip2-replicated")

# Every process makes one cold pipeline pass. The first then runs the
# warm loop for WARM_SHARE of --seconds, computes the deterministic
# figures and, with --trace 1, makes the traced pass. The rest of
# --seconds goes to cold-only processes, at least MIN_COLD passes in
# all, so that the cold medians pool as many passes as the run allows:
# the host's speed drifts over seconds and minutes, and a median over
# few passes follows it.
WARM_SHARE = 0.15
MIN_COLD = 3

# A run must end within 180 s; builds are allowed 900 s.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 880

# Values that must repeat exactly for a fixed seed, in-process, across
# processes and across runs of the same build. parexec.seq_total and
# parexec.expanded_seq_total make up expand_overhead.
FINGERPRINT = (
    "interp.cycles",
    "depgraph.accesses",
    "depgraph.edges",
    "parexec.seq_total",
    "parexec.expanded_seq_total",
    "parexec.par_loop_cycles_t8",
)

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "par_ms": "ms",
    "peak_heap_mb": "MB",
    "ok_share": "share",
    "expand_overhead": "x",
    "sim_speedup_t8": "x",
}

PER_LAYER = {
    "minic.parse_ms": "ms",
    "depgraph.profile_ms": "ms",
    "depgraph.accesses": "count",
    "depgraph.ns_per_access": "ns",
    "depgraph.minor_words_per_access": "words",
    "depgraph.edges": "count",
    "privatize.classify_ms": "ms",
    "privatize.private_classes": "count",
    "alias.andersen_ms": "ms",
    "expand.plan_ms": "ms",
    "expand.expand_ms": "ms",
    "expand.privatized": "count",
    "optim.span_stores_removed": "count",
    "optim.loads_propagated": "count",
    "interp.load_ms": "ms",
    "interp.seq_ms": "ms",
    "interp.cycles": "count",
    "interp.ns_per_cycle": "ns",
    "interp.minor_words_per_cycle": "words",
    "guard.oracle_ms": "ms",
    "guard.check_finals_ms": "ms",
    "domexec.exec_call_ms": "ms",
    "domexec.run_ms": "ms",
    "domexec.prepass_load_ms": "ms",
    "domexec.supervisor_ms": "ms",
    "domexec.run_over_seq": "x",
    "domexec.minor_words": "words",
    "domexec.distributed_loops": "count",
    "domexec.merges": "count",
    "domexec.steals": "count",
    "domexec.steal_lost": "count",
    "domexec.utilization": "share",
    "domexec.merge_ms": "ms",
    "domexec.idle_ms": "ms",
    "domexec.gc_share": "share",
    "domexec.imbalance": "ratio",
    "parexec.par_loop_cycles_t8": "count",
    "trace.overhead_ms": "ms",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            [dune, "build", "--root", ROOT, "./perfbench/pipebench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_pass(args, deadline):
    """Run pipebench.exe once and return its parsed last stdout line and
    its wall time."""
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("pipebench.exe ran past the run's time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("pipebench.exe exited with code %d" % proc.returncode)
    return json.loads(lines[-1]), time.monotonic() - t0


def smt_siblings():
    """True when some core shares its L1 with a hyperthread sibling;
    None when the topology is not readable."""
    base = "/sys/devices/system/cpu"
    try:
        found = False
        for cpu in os.listdir(base):
            path = os.path.join(base, cpu, "topology", "thread_siblings_list")
            if cpu.startswith("cpu") and os.path.exists(path):
                found = True
                with open(path) as f:
                    text = f.read().strip()
                if "," in text or "-" in text:
                    return True
        return False if found else None
    except OSError:
        return None


def with_self_times(spans):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        dur = (s["end"] - s["start"]) * 1e3
        kids = sum((c["end"] - c["start"]) * 1e3
                   for c in children.get(s["id"], []))
        out.append(dict(s, ms=dur, self_ms=dur - kids))
    return out


def span_ms(spans, name):
    return sum(s["ms"] for s in spans if s["name"] == name)


def build_id():
    """Hash of the built executable: runs of the same code share it."""
    h = hashlib.sha256()
    with open(EXE, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def fingerprint(p):
    return {k: p["repeats"][k][0] for k in FINGERPRINT if k in p["repeats"]}


def check_fingerprint(key, mine, op):
    """Compare the run's exact counts with an earlier run of the same
    seed and build; the first such run records them."""
    path = os.path.join(OUT_DIR, "fingerprints.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    if key in known:
        op("repeat", ["across-runs:" + k for k, v in mine.items()
                      if known[key].get(k, v) != v])
        return
    known[key] = mine
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    start = time.monotonic()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    measured = time.monotonic()
    deadline = measured + RUN_BUDGET_S

    common = ["--workload", a.workload, "--trace", str(a.trace)]
    if a.seed is not None:
        common += ["--seed", str(a.seed)]
    full, _ = run_pass(common + ["--seconds", str(a.seconds * WARM_SHARE)],
                       deadline)
    passes = [full]
    # Start another cold pass while a typical one still mostly fits.
    walls = [full["samples"]["pipeline_s"][0]]
    while (len(passes) < MIN_COLD
           or measured + a.seconds - time.monotonic()
           >= 0.75 * statistics.median(walls)):
        p, wall = run_pass(common + ["--cold-only"], deadline)
        passes.append(p)
        walls.append(wall)

    # operations by kind: [attempted, failed]
    ops = {}
    for p in passes:
        for kind, (n, bad) in p["ops"].items():
            ops.setdefault(kind, [0, 0])
            ops[kind][0] += n
            ops[kind][1] += bad
    failures = [f for p in passes for f in p["failures"]]

    def op(kind, bad):
        ops.setdefault(kind, [0, 0])
        ops[kind][0] += 1
        ops[kind][1] += 1 if bad else 0
        failures.extend(kind + ":" + b for b in bad)

    # the exact counts must agree across processes and across runs
    mine = fingerprint(full)
    for p in passes[1:]:
        op("repeat", ["across-processes:" + k
                      for k, v in fingerprint(p).items() if mine[k] != v])
    build_hash = build_id()
    check_fingerprint("%s/%d/%s" % (a.workload, full["srand"], build_hash),
                      mine, op)
    attempted = sum(n for n, _ in ops.values())
    failed = sum(bad for _, bad in ops.values())

    samples = {}
    for p in passes:
        for k, v in p["samples"].items():
            samples.setdefault(k, []).extend(v)
    m = {k: statistics.median(v) for k, v in samples.items()}

    spans = with_self_times(full["spans"])
    metrics = {
        "setup_s": m["setup_s"],
        "pipeline_s": m["pipeline_s"],
        "par_ms": m["par_ms"],
        "peak_heap_mb": m["peak_heap_mb"],
        # the worst pass share of any kind of operation, so that one
        # failed supervised call shows among many sequential runs
        "ok_share": min(1.0 - bad / n for n, bad in ops.values()),
        "expand_overhead": m["expand_overhead"],
        "sim_speedup_t8": m["sim_speedup_t8"],
    }
    if a.trace:
        acc = m["depgraph.accesses"]
        profile_ms = span_ms(spans, "phase.profile")
        metrics.update({
            "minic.parse_ms": span_ms(spans, "minic.parse"),
            "depgraph.profile_ms": profile_ms,
            "depgraph.accesses": acc,
            "depgraph.ns_per_access": profile_ms * 1e6 / acc,
            "depgraph.minor_words_per_access":
                sum(sp["minor_words"] for sp in spans
                    if sp["name"] == "phase.profile") / acc,
            "depgraph.edges": m["depgraph.edges"],
            "privatize.classify_ms": span_ms(spans, "phase.classify"),
            "privatize.private_classes": m["privatize.private_classes"],
            "alias.andersen_ms": span_ms(spans, "alias.andersen"),
            "expand.plan_ms": span_ms(spans, "phase.plan"),
            "expand.expand_ms": span_ms(spans, "expand.expand_loops"),
            "expand.privatized": m["expand.privatized"],
            "optim.span_stores_removed": m["optim.span_stores_removed"],
            "optim.loads_propagated": m["optim.loads_propagated"],
            "interp.load_ms": m["interp.load_ms"],
            "interp.seq_ms": m["seq_ms"],
            "interp.cycles": m["interp.cycles"],
            "interp.ns_per_cycle":
                m["interp.run_ms"] * 1e6 / m["interp.cycles"],
            "interp.minor_words_per_cycle": m["interp.minor_words_per_cycle"],
            "guard.oracle_ms": span_ms(spans, "guard.oracle"),
            "guard.check_finals_ms": span_ms(spans, "guard.check_finals"),
            "domexec.exec_call_ms": m["domexec.exec_call_ms"],
            "domexec.run_ms": m["domexec.run_ms"],
            "domexec.prepass_load_ms": m["domexec.prepass_load_ms"],
            "domexec.supervisor_ms": m["par_ms"] - m["domexec.exec_call_ms"],
            "domexec.run_over_seq": m["domexec.run_ms"] / m["seq_ms"],
            "domexec.minor_words": m["domexec.minor_words"],
            "domexec.distributed_loops": m["domexec.distributed_loops"],
            "domexec.merges": m["domexec.merges"],
            "domexec.steals": m["domexec.steals"],
            "domexec.steal_lost": m["domexec.steal_lost"],
            "domexec.utilization": m["domexec.utilization"],
            "domexec.merge_ms": m["domexec.merge_ms"],
            "domexec.idle_ms": m["domexec.idle_ms"],
            "domexec.gc_share": m["domexec.gc_share"],
            "domexec.imbalance": m["domexec.imbalance"],
            "parexec.par_loop_cycles_t8": m["parexec.par_loop_cycles_t8"],
            "trace.overhead_ms": m["trace.overhead_ms"],
        })

    context = {
        "workload": a.workload,
        "program": full["program"],
        "seed": a.seed,
        "srand": full["srand"],
        "default_srand": full["default_srand"],
        "host_cores": full["host_cores"],
        "domains": full["domains"],
        "oversubscribed": full["domains"] > full["host_cores"],
        "smt_siblings": smt_siblings(),
        "ocaml_version": full["ocaml_version"],
        "run_seconds": a.seconds,
        "samples": {k: len(v) for k, v in sorted(samples.items())},
        "seq_ms": m["seq_ms"],
        "wall_speedup": m["seq_ms"] / m["par_ms"],
        "build": build_hash,
        "ops": ops,
        "failed_share": failed / attempted,
        "failures": failures,
        "wall_s": time.monotonic() - start,
    }
    report = {
        "context": context,
        "end_to_end": {k: metrics[k] for k in END_TO_END},
        "per_layer": {k: metrics[k] for k in PER_LAYER if k in metrics},
        "samples": samples,
        "repeats": full["repeats"],
        "spans": spans,
    }
    name = "%s-seed%s-trace%d.json" % (
        a.workload, "default" if a.seed is None else a.seed, a.trace)
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(report, f, indent=1)

    units = PER_LAYER if a.trace else END_TO_END
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
