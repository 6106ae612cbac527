#!/usr/bin/env python3
"""Benchmark front end: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload chaos-grid --seed 3 --seconds 15 \
        --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured on the
optimised build; with --trace 1 they are the per-layer ones, from one
untraced repetition plus one repetition of the -pg build (see gmon.py).
The line before it is a JSON summary: fingerprint, per-repetition times,
host facts, and the span breakdown.

Every workload runs in its own single-threaded driver process. See
perfbench/README.md for the workloads and the metric -> layer map.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_PG = os.path.join(BUILD, "perfbench_driver_pg")
FINGERPRINTS = os.path.join(BUILD, "fingerprints.json")

sys.path.insert(0, HERE)
import gmon  # noqa: E402

WORKLOADS = ("scale-500", "chaos-grid", "slo-36")
SCENARIO_WORKLOADS = ("chaos-grid", "slo-36")
# Set-up samples behind setup_s: process start-ups on the scenario
# workloads, cluster formations on scale-500 (the measured run's own
# included; set-up-only processes make up the rest).
SETUP_SPAWNS = 10
SCALE_SETUPS = 3
DRIVER_TIMEOUT_S = 170
# Host times are scaled to a host on which one slice of the driver's
# reference kernel takes this long (see Reference in driver.cc).
REFERENCE_SLICE_S = 0.035

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("kbps_per_node", "KB/s"),
]

# (metric, unit, source). Sources: "counter:<key>" and "span:<key>" read the
# untraced repetition, "output:<key>" its simulated outcomes, "share:<module>"
# the -pg repetition's self time, "calls:<function prefix>" its call counts;
# the rest are computed in per_layer_metrics().
PER_LAYER = [
    ("sim.events", "count", "counter:sim.events"),
    ("sim.host_ns_per_event", "ns", "derived"),
    ("sim.sim_s_per_wall_s", "sim_s/s", "derived"),
    ("sim.self_share", "%", "share:sim"),
    ("net.tx_messages", "count", "counter:net.tx_messages"),
    ("net.tx_wire_bytes", "bytes", "counter:net.tx_wire_bytes"),
    ("net.rx_messages", "count", "counter:net.rx_messages"),
    ("net.rx_multicast_messages", "count",
     "counter:net.rx_multicast_messages"),
    ("net.path_calls", "count", "calls:tamp::net::Topology::path("),
    ("net.deliveries_per_path_call", "ratio", "derived"),
    ("net.self_share", "%", "share:net"),
    ("membership.decode_calls", "count",
     "calls:tamp::membership::decode_entry("),
    ("membership.string_map_reads", "count",
     "calls:tamp::membership::read_string_map"),
    ("membership.row_hashes", "count",
     "calls:tamp::membership::digest_row_hash("),
    ("membership.entry_copies", "count",
     "calls:tamp::membership::EntryData::EntryData("
     "tamp::membership::EntryData const&)"),
    ("membership.table_locates", "count",
     "calls:tamp::membership::(anonymous namespace)::locate<"),
    ("membership.self_share", "%", "share:membership"),
    ("protocols.converged_poll_s", "s", "span:span.converged_poll"),
    ("protocols.formation_s", "sim_s", "output:formation_s"),
    ("protocols.detect_s", "sim_s", "output:detect_s"),
    ("protocols.converge_s", "sim_s", "output:converge_s"),
    ("hier.bootstraps_served", "count", "counter:hier.bootstraps_served"),
    ("hier.image_serve_entries", "count",
     "counter:hier.image_serve_entries.sum"),
    ("hier.elections_started", "count", "counter:hier.elections_started"),
    ("hier.updates_sent", "count", "counter:hier.updates_sent"),
    ("hier.digests_sent", "count", "counter:hier.digests_sent"),
    ("hier.update_records_applied", "count",
     "counter:hier.update_records_applied"),
    ("protocols.alltoall_s", "s", "span:protocols.alltoall_s"),
    ("protocols.gossip_s", "s", "span:protocols.gossip_s"),
    ("protocols.hier_s", "s", "span:protocols.hier_s"),
    ("protocols.oracle_checks", "count", "counter:protocols.oracle_checks"),
    ("protocols.self_share", "%", "share:protocols"),
    ("chaos.self_share", "%", "share:chaos"),
    ("workload.requests_issued", "count", "counter:workload.requests_issued"),
    ("workload.attempts_per_request", "ratio", "derived"),
    ("workload.ok_rate", "ratio", "output:ok_rate"),
    ("workload.misroutes_per_kreq", "1/kreq", "output:misroutes_per_kreq"),
    ("workload.fault_p99_ms", "sim_ms", "output:fault_p99_ms"),
    ("workload.self_share", "%", "share:workload"),
    ("service.self_share", "%", "share:service"),
    ("obs.self_share", "%", "share:obs"),
    ("util.self_share", "%", "share:util"),
    ("runtime.self_share", "%", "share:runtime"),
    ("span.build_s", "s", "span:span.build"),
    ("span.formation_s", "s", "span:span.formation"),
    ("span.steady_s", "s", "span:span.steady"),
    ("span.failure_s", "s", "span:span.failure"),
    ("trace.overhead_pct", "%", "derived"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (no output line is printed)."""


def check_names(metrics):
    """Rejects a metric name or unit outside the allowed alphabet."""
    for name, unit in metrics:
        if not NAME.match(name):
            raise BenchError("bad metric name %r" % name)
        if not UNIT.match(unit):
            raise BenchError("bad unit %r for %s" % (unit, name))
    names = [name for name, _ in metrics]
    if len(set(names)) != len(names):
        raise BenchError("duplicate metric name")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no src/ tree under %s: nothing to build" % ROOT)
    scratch = os.path.join(BUILD, "tmp")  # keeps the compiler's temporaries
    os.makedirs(scratch, exist_ok=True)   # inside the checkout
    env = dict(os.environ, TMPDIR=scratch)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log,
                              env=env).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise BenchError("build failed: %s" % " ".join(step))


def run_driver(binary, workload, seed, seconds, *flags, cwd=None):
    """Runs the driver; returns (seconds from spawn to ready, JSON lines)."""
    args = [binary, "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%g" % seconds, *flags]
    start = time.perf_counter()
    process = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE,
                               text=True)
    try:
        first = process.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = process.communicate(timeout=DRIVER_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if process.returncode != 0:
        raise BenchError("driver exited with %d" % process.returncode)
    lines = [json.loads(line) for line in (first + rest).splitlines()
             if line.strip()]
    if not lines or not lines[0].get("ready"):
        raise BenchError("driver did not report ready")
    return ready_s, lines[1:]


def split_lines(lines):
    """Returns the repetitions in a measured run's output."""
    reps = [line for line in lines if "rep" in line]
    if not reps:
        raise BenchError("driver output incomplete")
    return reps


def account(reps):
    """Checks repetitions against each other; returns the op counts, the
    fingerprint, and the problems that make the output incorrect.

    Every repetition re-runs the same deterministic experiments, so the
    fingerprint, simulated outcomes and op counts must repeat exactly. An
    op is one scenario, or the single scale-500 cluster run; failed ops
    (oracle verdicts) are counted, never skipped, and do not make the
    output incorrect. A broken accounting identity or a fingerprint that
    moves between repetitions does.
    """
    first = reps[0]
    problems = []
    for rep in reps:
        problems += rep["errors"]
        for key in ("fingerprint", "outputs", "ops", "ops_failed",
                    "failures"):
            if rep[key] != first[key]:
                problems.append("repetition %d: %s differs from repetition 0"
                                % (rep["rep"], key))
    return {
        "attempted": first["ops"],
        "failed": first["ops_failed"],
        "fingerprint": first["fingerprint"],
        "problems": problems,
    }


def speed(rep, phase=""):
    """How much faster than measured the nominal host would have run a
    phase of this repetition ("" for the timed part, "setup_" for set-up):
    nominal over measured time of the phase's reference slices."""
    slices = rep[phase + "reference_slices"]
    if not slices:
        return 1.0
    return REFERENCE_SLICE_S * slices / rep[phase + "reference_s"]


def scaled(rep, key):
    """rep["setup_s"] or rep["wall_s"] in seconds on the nominal host."""
    return rep[key] * speed(rep, "setup_" if key == "setup_s" else "")


def binary_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as binary:
        for block in iter(lambda: binary.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_fingerprint_history(workload, fingerprint, binary):
    """Flags a fingerprint that differs from an earlier run of the same
    build in this checkout. Returns a problem string or None."""
    key = "%s:%s" % (workload, binary_digest(binary))
    history = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as stored:
            history = json.load(stored)
    previous = history.setdefault(key, fingerprint)
    with open(FINGERPRINTS, "w") as stored:
        json.dump(history, stored, indent=1, sort_keys=True)
    if previous != fingerprint:
        return "fingerprint %s differs from an earlier run's %s" % (
            fingerprint, previous)
    return None


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "loadavg": list(os.getloadavg())}


def end_to_end_metrics(workload, seed, seconds):
    setup_samples = []
    if workload in SCENARIO_WORKLOADS:
        for _ in range(SETUP_SPAWNS - 1):
            ready_s, _ = run_driver(DRIVER, workload, seed, 0,
                                    "--setup-only")
            setup_samples.append(ready_s)
    ready_s, lines = run_driver(DRIVER, workload, seed, seconds)
    reps = split_lines(lines)
    verdict = account(reps)
    if workload in SCENARIO_WORKLOADS:
        setup_samples.append(ready_s)
    else:
        setups = []
        for _ in range(SCALE_SETUPS - len(reps)):
            _, lines = run_driver(DRIVER, workload, seed, 0, "--setup-only")
            setups += [line for line in lines if "setup_rep" in line]
        setup_samples = [scaled(rep, "setup_s") for rep in reps + setups]
        formation = reps[0]["outputs"]["formation_s"]
        if any(setup["formation_s"] != formation for setup in setups):
            verdict["problems"].append("set-up repetitions formed at"
                                       " different simulated times")
    problem = check_fingerprint_history(workload, verdict["fingerprint"],
                                        DRIVER)
    if problem:
        verdict["problems"].append(problem)
    values = {
        "wall_s": statistics.median(scaled(rep, "wall_s") for rep in reps),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": reps[0]["peak_rss_mb"],
        "kbps_per_node": reps[0]["outputs"].get("kbps_per_node", 0.0),
    }
    summary = {
        "workload": workload,
        "seed": seed,
        "fingerprint": verdict["fingerprint"],
        "problems": verdict["problems"],
        "failures": reps[0]["failures"],
        "rep_wall_s": [scaled(rep, "wall_s") for rep in reps],
        "rep_unscaled_wall_s": [rep["wall_s"] for rep in reps],
        "rep_reference_slice_s": [rep["reference_s"] / rep["reference_slices"]
                                  for rep in reps if rep["reference_slices"]],
        "setup_samples_s": setup_samples,
        "outputs": reps[0]["outputs"],
        "spans": reps[0]["spans"],
        "host": host_facts(),
    }
    return verdict, values, END_TO_END, summary


def per_layer_metrics(workload, seed):
    _, lines = run_driver(DRIVER, workload, seed, 0)
    reps = split_lines(lines)
    plain = reps[0]
    verdict = account(reps)

    profile_dir = os.path.join(BUILD, "gprof-" + workload)
    os.makedirs(profile_dir, exist_ok=True)
    gmon_path = os.path.join(profile_dir, "gmon.out")
    if os.path.exists(gmon_path):
        os.remove(gmon_path)
    _, lines = run_driver(DRIVER_PG, workload, seed, 0, "--no-reference",
                          cwd=profile_dir)
    traced = split_lines(lines)[0]
    verdict["problems"] += traced["errors"]
    if traced["fingerprint"] != plain["fingerprint"]:
        verdict["problems"].append(
            "traced fingerprint %s != untraced %s"
            % (traced["fingerprint"], plain["fingerprint"]))

    with open(gmon_path, "rb") as data:
        histogram, arcs = gmon.parse_gmon(data.read())
    seconds, calls = gmon.profile(histogram, arcs,
                                  gmon.SymbolTable.from_binary(DRIVER_PG))
    shares = gmon.shares(seconds)

    counters, outputs = plain["counters"], plain["outputs"]
    untraced_s = plain["setup_s"] + plain["wall_s"]
    traced_s = traced["setup_s"] + traced["wall_s"]
    # The -pg build profiles the reference kernel too, so the overhead
    # compares unscaled times; every other host time is scaled.
    host_s = scaled(plain, "setup_s") + scaled(plain, "wall_s")
    spans = {key: value * speed(plain)
             for key, value in plain["spans"].items()}
    path_calls = gmon.calls_matching(calls, "tamp::net::Topology::path(")
    issued = counters.get("workload.requests_issued", 0)
    derived = {
        "sim.host_ns_per_event": 1e9 * host_s / max(counters["sim.events"], 1),
        "sim.sim_s_per_wall_s": plain["sim_s"] / scaled(plain, "wall_s"),
        "net.deliveries_per_path_call":
            counters["net.rx_multicast_messages"] / path_calls
            if path_calls else 0.0,
        "workload.attempts_per_request":
            counters.get("workload.request_attempts", 0) / issued
            if issued else 0.0,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }
    values = {}
    for name, _unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "counter":
            values[name] = counters.get(key, 0.0)
        elif kind == "span":
            values[name] = spans.get(key, 0.0)
        elif kind == "output":
            values[name] = outputs.get(key, 0.0)
        elif kind == "share":
            values[name] = shares.get(key, 0.0)
        elif kind == "calls":
            values[name] = gmon.calls_matching(calls, key)
        else:
            values[name] = derived[name]
    summary = {
        "workload": workload,
        "seed": seed,
        "fingerprint": plain["fingerprint"],
        "problems": verdict["problems"],
        "unscaled_untraced_s": untraced_s,
        "unscaled_traced_s": traced_s,
        "self_seconds": seconds,
        "spans": spans,
        "host": host_facts(),
    }
    return verdict, values, [(n, u) for n, u, _ in PER_LAYER], summary


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_names(END_TO_END)
        check_names([(n, u) for n, u, _ in PER_LAYER])
        build()
        if args.trace:
            verdict, values, metrics, summary = per_layer_metrics(
                args.workload, args.seed)
        else:
            verdict, values, metrics, summary = end_to_end_metrics(
                args.workload, args.seed, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError) as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 1
    for problem in verdict["problems"]:
        sys.stderr.write("perfbench: %s\n" % problem)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
