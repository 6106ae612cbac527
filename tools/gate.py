#!/usr/bin/env python3
"""One engine for the CI gates.

Usage:
  tools/gate.py slo [--fresh slo-ci.json] BENCH_slo.json
  tools/gate.py scale [--fresh scale-ci.json] BENCH_scale.json
  tools/gate.py hotpath hotpaths.json
  tools/gate.py --selftest [slo|scale|hotpath]

Each gate reads a report as rows named by a key, holds every row of the
committed baseline to the gate's bounds, runs the gate's own cross-row
check, and, given ``--fresh``, holds every row the fresh report shares with
the baseline to a creep bound against the baseline's value.

slo      BENCH_slo.json from bench/slo_churn. Every row must pass its
         scenario oracle, balance its accounting identity (issued == ok +
         failed + aborted + unresolved) and stay inside the damage ceilings.
         On the node-churn plans the hierarchical misroute rate must not
         exceed the all-to-all baseline's (the hierarchy dividend). A fresh
         ok_rate may trail the baseline by ABS_OK_DROP.
scale    BENCH_scale.json from bench/scale_limits. At CEILING_NODES nodes
         digest anti-entropy must cost at most CEILING_BYTES per node per
         round; fresh bytes may exceed the baseline by CREEP_TOLERANCE.
hotpath  a google-benchmark JSON report from bench/micro_hotpaths. The
         per-send observability work (BM_ObsHotpathAddition) may cost at most
         BUDGET of a full instrumented unicast send (BM_TransportSendUnicast).

The simulations are deterministic, so an unchanged protocol reproduces its
baseline exactly; a creep tolerance only absorbs intentional changes. A
larger shift means regenerating the baseline deliberately.

Exit codes: 0 ok, 1 gate failure, 2 usage or malformed input.
"""

import argparse
import json
import operator
import os
import sys
import tempfile
from typing import Callable, NamedTuple

# slo: damage ceilings, generous against the committed rows. They catch a
# directory or consumer regression, not seed noise.
OK_RATE_FLOOR = 0.50          # worst committed row: 0.639 (a2a router-flap)
MISROUTE_CEILING = 2.5        # worst committed row: 1.84 (a2a loss-storm)
RETRY_AMP_CEILING = 2.0       # worst committed row: 1.64 (a2a loss-storm)
FAULT_P99_CEILING_NS = int(600e6)  # worst committed row: 485ms (loss-storm)
HEAL_P99_CEILING_NS = int(100e6)   # worst committed row: 24ms
ABS_OK_DROP = 0.05            # fresh ok_rate may trail baseline by <= 5pts
CHURN_PLANS = ("crash-restart", "leader-kill")

# scale: the last measured cost of the periodic full-view refresh that
# digests replaced (15848.4 B at 1,000 nodes) divided by the 5x floor the
# digest design was held to, so exactly as tight as the old full/digest
# ratio gate.
CEILING_NODES = 1000
CEILING_BYTES = 3169.7  # 15848.4 B (last full refresh) / 5
CREEP_TOLERANCE = 0.25  # fresh bytes may exceed baseline by <= 25%
BYTES = "anti_entropy_bytes_per_node_per_round"

# hotpath: keeps "metrics are free enough to leave on" enforced.
BUDGET = 0.05  # obs addition may cost at most 5% of a transport send
NUMERATOR = "BM_ObsHotpathAddition"
DENOMINATOR = "BM_TransportSendUnicast"

# JSON types a field may hold. A bool is not a number.
NUMBER, FLAG, TEXT = (int, float), (bool,), (str,)

OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
       ">": operator.gt}


class Malformed(Exception):
    """Input a gate cannot grade: exit 2, neither a pass nor a failure."""


class Bound(NamedTuple):
    """``row[field] op limit`` must hold on every baseline row, or on row
    ``at`` alone. ``limit`` may be a function of the row. A bound over every
    row reports failures only; a bound on one row reports its verdict."""
    field: str
    op: str
    limit: object
    at: tuple = None
    line: str = "{label}: {field} {value} breaks {op} {limit}"


class Creep(NamedTuple):
    """``fresh[field] op allowed(baseline[field])`` must hold on every row
    the two reports share."""
    field: str
    op: str
    allowed: Callable
    line: str


class Gate(NamedTuple):
    rows: str                 # the report's list of rows
    key: tuple                # the fields that name a row
    label: str                # a row's name in verdict lines
    fields: dict              # every field the gate reads -> its JSON types
    bounds: tuple = ()
    check: Callable = None    # the gate's own cross-row check -> exit status
    creep: tuple = ()


def verdict(good, line):
    print(f"gate: {'ok' if good else 'FAIL'} — {line}")
    return 0 if good else 1


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise Malformed(f"{path}: {err}") from err


def keyed_rows(report, gate):
    """{key: row}. Every row must carry each field the gate reads, with the
    JSON type the gate expects, and no two rows may share a key."""
    rows = report.get(gate.rows) if isinstance(report, dict) else None
    if not isinstance(rows, list) or not rows:
        raise Malformed(f"report has no {gate.rows!r} rows")
    out = {}
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise Malformed(f"{gate.rows}[{index}] is not an object")
        for field, types in gate.fields.items():
            if field not in row:
                raise Malformed(f"{gate.rows}[{index}] has no {field}")
            if type(row[field]) not in types:
                raise Malformed(f"{gate.rows}[{index}]: {field} is "
                                f"{row[field]!r}")
        key = tuple(row[field] for field in gate.key)
        if key in out:
            raise Malformed(f"two rows for {gate.label.format(**row)}")
        out[key] = row
    return out


def check_bounds(gate, rows):
    for bound in gate.bounds:
        if bound.at is not None and bound.at not in rows:
            named = gate.label.format(**dict(zip(gate.key, bound.at)))
            raise Malformed(f"baseline has no {named} row")
    status = 0
    for key, row in sorted(rows.items()):
        for bound in gate.bounds:
            if bound.at not in (None, key):
                continue
            value = row[bound.field]
            limit = bound.limit(row) if callable(bound.limit) else bound.limit
            good = OPS[bound.op](value, limit)
            if bound.at is not None or not good:
                status = max(status, verdict(good, bound.line.format(
                    label=gate.label.format(**row), field=bound.field,
                    value=value, op=bound.op, limit=limit)))
    if status == 0 and any(bound.at is None for bound in gate.bounds):
        verdict(True, f"{len(rows)} row(s) inside all ceilings")
    return status


def check_creep(gate, baseline, fresh):
    common = sorted(baseline.keys() & fresh.keys())
    if not common:
        raise Malformed("fresh report shares no rows with the baseline")
    status = 0
    for key in common:
        for creep in gate.creep:
            base = baseline[key][creep.field]
            new = fresh[key][creep.field]
            limit = creep.allowed(base)
            status = max(status, verdict(OPS[creep.op](new, limit),
                creep.line.format(label=gate.label.format(**fresh[key]),
                                  fresh=new, base=base, limit=limit)))
    return status


def hierarchy_dividend(rows):
    """On the node-churn plans, hierarchical misroutes at most as often as
    all-to-all: topology-scoped membership converges the directory fast
    enough that fewer requests chase dead replicas."""
    pairs = [(plan, seed, row, rows[("all-to-all", plan, seed)])
             for (scheme, plan, seed), row in sorted(rows.items())
             if scheme == "hierarchical" and plan in CHURN_PLANS
             and ("all-to-all", plan, seed) in rows]
    if not pairs:
        raise Malformed("no hierarchical/all-to-all churn-plan pair to "
                        "compare")
    status = 0
    for plan, seed, hier, a2a in pairs:
        hier_rate, a2a_rate = hier["misroute_rate"], a2a["misroute_rate"]
        status = max(status, verdict(hier_rate <= a2a_rate,
            f"{plan}/s{seed} misroute rate: hierarchical {hier_rate:.4f} "
            f"vs all-to-all {a2a_rate:.4f}"))
    return status


def hotpath_cost(rows):
    """BM_ObsHotpathAddition over BM_TransportSendUnicast, within BUDGET."""
    missing = [name for name in (NUMERATOR, DENOMINATOR) if (name,) not in rows]
    if missing:
        raise Malformed(f"missing benchmark(s) {missing} "
                        f"(found: {sorted(name for name, in rows)})")
    obs_ns = rows[(NUMERATOR,)]["cpu_time"]
    send_ns = rows[(DENOMINATOR,)]["cpu_time"]
    if send_ns <= 0:
        raise Malformed(f"{DENOMINATOR} cpu_time is {send_ns}")
    ratio = obs_ns / send_ns
    return verdict(ratio <= BUDGET,
                   f"obs addition {obs_ns:.1f} ns vs transport send "
                   f"{send_ns:.1f} ns = {ratio:.2%} (budget {BUDGET:.0%})")


GATES = {
    "slo": Gate(
        rows="rows",
        key=("scheme", "plan", "seed"),
        label="{scheme}/{plan}/s{seed}",
        fields={"scheme": TEXT, "plan": TEXT, "seed": NUMBER, "passed": FLAG,
                **dict.fromkeys(
                    ("issued", "ok", "failed", "aborted", "unresolved",
                     "ok_rate", "misroute_rate", "retry_amplification",
                     "fault_p99_ns", "heal_p99_ns"), NUMBER)},
        bounds=(
            Bound("passed", "==", True),
            Bound("issued", ">", 0),
            Bound("issued", "==", lambda row: row["ok"] + row["failed"] +
                  row["aborted"] + row["unresolved"]),
            Bound("ok_rate", ">=", OK_RATE_FLOOR),
            Bound("misroute_rate", "<=", MISROUTE_CEILING),
            Bound("retry_amplification", "<=", RETRY_AMP_CEILING),
            Bound("fault_p99_ns", "<=", FAULT_P99_CEILING_NS),
            Bound("heal_p99_ns", "<=", HEAL_P99_CEILING_NS),
        ),
        check=hierarchy_dividend,
        creep=(Creep("ok_rate", ">=", lambda base: base - ABS_OK_DROP,
                     "{label} ok_rate {fresh:.4f} vs baseline {base:.4f} "
                     "(floor {limit:.4f})"),),
    ),
    "scale": Gate(
        rows="results",
        key=("nodes",),
        label="{nodes} nodes",
        fields={"nodes": NUMBER, BYTES: NUMBER},
        bounds=(Bound(BYTES, "<=", CEILING_BYTES, at=(CEILING_NODES,),
                      line="at {label} digest anti-entropy costs "
                           "{value:.1f} B/node/round (ceiling {limit:.1f})"),),
        creep=(Creep(BYTES, "<=", lambda base: base * (1.0 + CREEP_TOLERANCE),
                     "{label}: {fresh:.1f} B/node/round vs baseline "
                     "{base:.1f} (allowed {limit:.1f})"),),
    ),
    "hotpath": Gate(
        rows="benchmarks",
        key=("name",),
        label="{name}",
        fields={"name": TEXT, "cpu_time": NUMBER},
        check=hotpath_cost,
    ),
}


def run(gate, baseline_path, fresh_path=None):
    try:
        rows = keyed_rows(load(baseline_path), gate)
        fresh = None
        if fresh_path is not None:
            fresh = keyed_rows(load(fresh_path), gate)
        status = check_bounds(gate, rows)
        if gate.check is not None:
            status = max(status, gate.check(rows))
        if fresh is not None:
            status = max(status, check_creep(gate, rows, fresh))
        return status
    except Malformed as err:
        print(f"gate: {err}", file=sys.stderr)
        return 2


# --- selftest ---------------------------------------------------------------

NO_FILE = object()  # a report path that does not exist


def slo_row(scheme, plan, misroute, **fields):
    row = {"scheme": scheme, "plan": plan, "seed": 1, "passed": True,
           "issued": 1000, "ok": 950, "failed": 50, "aborted": 0,
           "unresolved": 0, "ok_rate": 0.95, "misroute_rate": misroute,
           "retry_amplification": 1.1, "fault_p99_ns": int(30e6),
           "heal_p99_ns": int(20e6)}
    row.update(fields)
    return row


def slo(*rows):
    return {"rows": list(rows)}


def scale(*rows):
    return {"results": [{"nodes": n, BYTES: b} for n, b in rows]}


def bench(*entries):
    return {"benchmarks": [{"name": n, "cpu_time": t} for n, t in entries]}


GOOD = (slo_row("all-to-all", "crash-restart", 0.02),
        slo_row("hierarchical", "crash-restart", 0.01),
        slo_row("all-to-all", "leader-kill", 0.05),
        slo_row("hierarchical", "leader-kill", 0.02))
A2A_CRASH, HIER_CRASH, *LEADER_KILL = GOOD
NO_MISROUTE_RATE = {k: v for k, v in A2A_CRASH.items() if k != "misroute_rate"}
SCALE_GOOD = scale((100, 30.0), (1000, 25.0), (5000, 25.0))

# (gate, baseline, fresh or None, expected exit, what the case checks).
# A report is a JSON object, raw file text (str), or NO_FILE.
SELFTEST = (
    ("slo", slo(*GOOD), None, 0, "good baseline"),
    ("slo", slo(dict(A2A_CRASH, misroute_rate=0.01),
                dict(HIER_CRASH, misroute_rate=0.02), *LEADER_KILL), None, 1,
     "hierarchical misroutes more than all-to-all"),
    ("slo", slo(A2A_CRASH, dict(HIER_CRASH, fault_p99_ns=int(700e6)),
                *LEADER_KILL), None, 1, "fault p99 over ceiling"),
    ("slo", slo(dict(A2A_CRASH, aborted=7), *GOOD[1:]), None, 1,
     "accounting identity broken"),
    ("slo", slo(dict(A2A_CRASH, passed=False), *GOOD[1:]), None, 1,
     "scenario oracle failed"),
    ("slo", slo(*GOOD), slo(*GOOD), 0, "fresh == baseline"),
    ("slo", slo(*GOOD), slo(*(dict(r, ok_rate=r["ok_rate"] - 0.10)
                              for r in GOOD)), 1,
     "10pt ok_rate drop > 5pt allowance"),
    ("slo", slo(), None, 2, "baseline has no rows"),
    ("slo", slo(*GOOD), slo(), 2, "fresh has no rows"),
    ("slo", slo(dict(A2A_CRASH, issued="many"), *GOOD[1:]), None, 2,
     "non-numeric issued"),
    ("slo", slo(NO_MISROUTE_RATE, *GOOD[1:]), None, 2,
     "row lacks a bounded field"),
    ("slo", slo(*GOOD, A2A_CRASH), None, 2, "two rows share a key"),
    ("scale", SCALE_GOOD, None, 0, "good baseline"),
    ("scale", scale((1000, CEILING_BYTES)), None, 0, "exactly at ceiling"),
    ("scale", scale((100, 30.0), (1000, 3200.0)), None, 1,
     "3200 > 3169.7 at 1000 nodes"),
    ("scale", scale((100, 30.0), (2000, 25.0)), None, 2, "no 1000-node row"),
    ("scale", SCALE_GOOD, scale((100, 30.0), (1000, 25.0)), 0,
     "creep within tolerance"),
    ("scale", SCALE_GOOD, scale((100, 30.0), (1000, 40.0)), 1,
     "40 > 25 * 1.25 at 1000 nodes"),
    ("scale", scale(), None, 2, "baseline has no rows"),
    ("scale", SCALE_GOOD, scale(), 2, "fresh has no rows"),
    ("hotpath", bench((NUMERATOR, 1.0), (DENOMINATOR, 100.0)), None, 0,
     "1% of a send"),
    ("hotpath", bench((NUMERATOR, 50.0), (DENOMINATOR, 100.0)), None, 1,
     "50% of a send"),
    ("hotpath", {}, None, 2, "no benchmarks at all"),
    ("hotpath", {"benchmarks": [{"name": NUMERATOR, "cpu_time": 1.0},
                                {"name": DENOMINATOR}]}, None, 2,
     "benchmark without cpu_time"),
    ("hotpath", NO_FILE, None, 2, "missing file"),
    ("hotpath", "not json", None, 2, "non-JSON text"),
)


def selftest(only=None):
    """Runs the selftest cases of gate `only`, or of every gate."""
    cases = [c for c in SELFTEST if only is None or c[0] == only]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        def write(report, name):
            path = os.path.join(tmp, name)
            if report is not NO_FILE:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(report if isinstance(report, str)
                             else json.dumps(report))
            return path

        for case, (gate, baseline, fresh, expected, what) in enumerate(cases):
            got = run(GATES[gate], write(baseline, f"{case}-baseline.json"),
                      None if fresh is None
                      else write(fresh, f"{case}-fresh.json"))
            if got != expected:
                print(f"gate: selftest FAIL — {gate}: {what}: expected exit "
                      f"{expected}, got {got}", file=sys.stderr)
                failures += 1
    if failures:
        return 1
    print(f"gate: selftest ok — {len(cases)} case(s)")
    return 0


def main(argv):
    if argv[:1] == ["--selftest"] and len(argv) <= 2:
        if argv[1:] and argv[1] not in GATES:
            print(f"gate: no gate named {argv[1]!r}", file=sys.stderr)
            return 2
        return selftest(*argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("gate", choices=GATES)
    parser.add_argument("--fresh", help="freshly measured report")
    parser.add_argument("file", help="committed baseline report")
    args = parser.parse_args(argv)
    gate = GATES[args.gate]
    if args.fresh is not None and not gate.creep:
        parser.error(f"the {args.gate} gate has no baseline to creep from")
    return run(gate, args.file, args.fresh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
