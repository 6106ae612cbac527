#!/usr/bin/env python3
"""One engine for the CI gates.

Usage:
  tools/gate.py slo [--fresh slo-ci.json] BENCH_slo.json
  tools/gate.py scale [--fresh scale-ci.json] BENCH_scale.json
  tools/gate.py hotpath hotpaths.json
  tools/gate.py figs BENCH_figs.json
  tools/gate.py --selftest [slo|scale|hotpath|figs]

Each gate reads a report as rows named by a key, holds every row of the
committed baseline to the gate's bounds, runs the gate's own cross-row
check, and, given ``--fresh``, holds every row the fresh report shares with
the baseline to a creep bound against the baseline's value.

slo      BENCH_slo.json from bench/chaos_soak --slo --json over the SLO
         slate (every scheme, racked shape, five plans). Every row must pass
         its scenario oracle, balance its accounting identity (issued == ok
         + failed + aborted + unresolved) and stay inside the damage
         ceilings. On the node-churn plans the hierarchical misroute rate
         must not exceed the all-to-all baseline's (the hierarchy dividend).
         A fresh ok_rate may trail the baseline by ABS_OK_DROP.
scale    BENCH_scale.json from bench/scale_limits. At CEILING_NODES nodes
         digest anti-entropy must cost at most CEILING_BYTES per node per
         round; fresh bytes may exceed the baseline by CREEP_TOLERANCE.
         Across the ladder per-node KB/s stays within KBPS_SPREAD of flat,
         and no cluster spends more anti-entropy bytes per node per round
         than the smallest.
hotpath  a google-benchmark JSON report from bench/micro_hotpaths. The
         per-send observability work (BM_ObsHotpathAddition) may cost at most
         BUDGET of a full instrumented unicast send (BM_TransportSendUnicast).
figs     BENCH_figs.json from bench/figures. Each paper figure and ablation
         must keep the shape the paper (or EXPERIMENTS.md) claims for it: one
         predicate per figure, each printing its verdict.

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
# Per-node traffic across the ladder: largest over smallest. The committed
# 100-2,000 node ladder reads 1.27x; all-to-all would grow 20x.
KBPS_SPREAD = 1.5
KBPS = "per_node_kbps"

# hotpath: keeps "metrics are free enough to leave on" enforced.
BUDGET = 0.05  # obs addition may cost at most 5% of a transport send
NUMERATOR = "BM_ObsHotpathAddition"
DENOMINATOR = "BM_TransportSendUnicast"

# JSON types a field may hold. A bool is not a number.
NUMBER, FLAG, TEXT = (int, float), (bool,), (str,)
OBJECT, LIST = (dict,), (list,)

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


def scale_shape(rows):
    """The ladder's two scaling claims. Per-node traffic stays flat as the
    cluster grows, the point of topology-scoped groups; and digest
    anti-entropy bytes per node per round do not grow with the view."""
    ladder = [row for _, row in sorted(rows.items())]
    kbps = [row[KBPS] for row in ladder]
    if min(kbps) <= 0:
        raise Malformed(f"per-node KB/s {min(kbps)} is not positive")
    spread = max(kbps) / min(kbps)
    status = verdict(spread <= KBPS_SPREAD,
        f"per-node KB/s spans {min(kbps):.3f}..{max(kbps):.3f} over "
        f"{ladder[0]['nodes']}..{ladder[-1]['nodes']} nodes = {spread:.2f}x "
        f"(bound {KBPS_SPREAD}x)")
    first = ladder[0]
    peak = max(ladder, key=lambda row: row[BYTES])
    return max(status, verdict(peak[BYTES] <= first[BYTES],
        f"anti-entropy B/node/round peaks at {peak[BYTES]:.1f} "
        f"({peak['nodes']} nodes); the smallest cluster ({first['nodes']} "
        f"nodes) spends {first[BYTES]:.1f}"))


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


# --- figs: the paper's shape claims -----------------------------------------

def figure(figures, name):
    """A figure's rows as {column: value} dicts, in report order."""
    if (name,) not in figures:
        raise Malformed(f"report has no {name} figure")
    columns, rows = figures[(name,)]["columns"], figures[(name,)]["rows"]
    if not rows:
        raise Malformed(f"{name} has no rows")
    for index, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(columns):
            raise Malformed(f"{name} row {index} does not match its columns")
    return [dict(zip(columns, row)) for row in rows]


def by(rows, *columns):
    """{(row[c] for c in columns): row}."""
    return {tuple(row[c] for c in columns) if len(columns) > 1
            else row[columns[0]]: row for row in rows}


def increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def fig2_shape(figures):
    """Paper Fig. 2: both curves linear in n; at 4000 nodes about 4000
    pkt/s, 4.5% CPU and 32% of a Fast Ethernet link."""
    rows = figure(figures, "fig2_alltoall_overhead")
    last = rows[-1]
    slope = last["cpu_pct"] / last["rx_pkts_per_s_per_node"]
    return [
        (all(abs(r["rx_pkts_per_s_per_node"] - (r["nodes"] - 1))
             <= 0.01 * r["nodes"] for r in rows)
         and all(abs(r["cpu_pct"] - slope * r["rx_pkts_per_s_per_node"])
                 <= 0.01 for r in rows),
         "packet rate is n - 1 and CPU is linear in it at every size"),
        (last["nodes"] == 4000
         and 3900 <= last["rx_pkts_per_s_per_node"] <= 4100
         and 4.0 <= last["cpu_pct"] <= 5.0
         and 30 <= last["link_util_pct"] <= 35,
         f"at {last['nodes']} nodes: {last['rx_pkts_per_s_per_node']} pkt/s, "
         f"{last['cpu_pct']}% CPU, {last['link_util_pct']}% of the link"),
    ]


def table_section4_shape(figures):
    """Paper Section 4: hierarchical has the lowest bandwidth, BDP and BCP
    once the cluster spans more than one group; with one group it is
    all-to-all plus one relay hop, within 1%. Gossip detection grows with n."""
    rows = figure(figures, "table_scalability_analysis")
    cells = by(rows, "n", "scheme")
    sizes = sorted({r["n"] for r in rows})
    lowest, single = True, True
    for n in sizes:
        hier, a2a = cells[(n, "hierarchical")], cells[(n, "all-to-all")]
        for field in ("bandwidth_bytes_per_s", "bdp", "bcp"):
            if hier["groups"] > 1:
                lowest &= hier[field] < min(a2a[field],
                                            cells[(n, "gossip")][field])
            else:
                single &= abs(hier[field] - a2a[field]) <= 0.01 * a2a[field]
    gossip = [cells[(n, "gossip")]["detect_s"] for n in sizes]
    return [
        (lowest, "hierarchical lowest bandwidth, BDP and BCP at every size "
                 "of more than one group"),
        (single, "one group: hierarchical within 1% of all-to-all"),
        (increasing(gossip), f"gossip detection grows with n: {gossip}"),
    ]


def fig11_shape(figures):
    """Paper Fig. 11: equal at one network; hierarchical lowest and about
    linear beyond it; all-to-all and gossip about quadratic."""
    rows = figure(figures, "fig11_bandwidth")
    first, last = rows[0], rows[-1]
    growth = last["nodes"] / first["nodes"]
    def grew(column):
        return last[column] / first[column]
    return [
        (abs(first["hier_mbps"] - first["alltoall_mbps"])
         <= 0.02 * first["alltoall_mbps"],
         f"{first['nodes']} nodes: hierarchical {first['hier_mbps']} == "
         f"all-to-all {first['alltoall_mbps']} MB/s"),
        (all(r["hier_mbps"] < min(r["alltoall_mbps"], r["gossip_mbps"])
             for r in rows[1:]), "hierarchical lowest beyond one network"),
        (grew("hier_mbps") <= 1.25 * growth,
         f"hierarchical grows {grew('hier_mbps'):.1f}x for {growth:.0f}x "
         f"nodes (about linear)"),
        (min(grew("alltoall_mbps"), grew("gossip_mbps")) >= 0.8 * growth ** 2,
         f"all-to-all grows {grew('alltoall_mbps'):.1f}x and gossip "
         f"{grew('gossip_mbps'):.1f}x for {growth:.0f}x nodes (about "
         f"quadratic)"),
    ]


def fig12_shape(figures):
    """Paper Fig. 12: all-to-all and hierarchical flat just under
    max_losses x period; gossip largest, growing about logarithmically."""
    rows = figure(figures, "fig12_detection_time")
    timeout = figures[("fig12_detection_time",)]["params"]["max_losses"]
    gossip = [r["gossip_s"] for r in rows]
    steps = [b - a for a, b in zip(gossip, gossip[1:])]
    claims = []
    for column in ("alltoall_s", "hier_s"):
        values = [r[column] for r in rows]
        claims.append((timeout - 1 <= min(values) and max(values) <= timeout
                       and max(values) - min(values) <= 0.5,
                       f"{column} flat under {timeout} s: {values}"))
    claims.append((all(r["gossip_s"] > max(r["alltoall_s"], r["hier_s"])
                       for r in rows)
                   and increasing(gossip)
                   and all(a >= b for a, b in zip(steps, steps[1:])),
                   f"gossip largest, growing with shrinking steps: {gossip}"))
    return claims


def fig13_shape(figures):
    """Paper Fig. 13: hierarchical about equal to all-to-all; gossip largest
    at every size and higher at the largest cluster than at the smallest.
    Gossip is not monotone in between (26.47 s at 80 nodes, 25.87 s at
    100)."""
    rows = figure(figures, "fig13_convergence_time")
    return [
        (all(abs(r["hier_s"] - r["alltoall_s"]) <= 0.25 for r in rows),
         "hierarchical within 0.25 s of all-to-all at every size"),
        (all(r["gossip_s"] > max(r["alltoall_s"], r["hier_s"]) for r in rows)
         and rows[-1]["gossip_s"] > rows[0]["gossip_s"],
         f"gossip largest, {rows[0]['gossip_s']} s at {rows[0]['nodes']} "
         f"nodes to {rows[-1]['gossip_s']} s at {rows[-1]['nodes']}"),
    ]


def fig14_shape(figures):
    """Paper Fig. 14: no query fails; a small throughput dip at the failure;
    responses above 200 ms while doc lookups cross the WAN; back to local
    latency within 2 s of recovery."""
    seconds = figure(figures, "fig14_proxy_failover")
    phases = by(figure(figures, "fig14_phases"), "phase")
    params = figures[("fig14_proxy_failover",)]["params"]
    fail_at, recover_at = params["fail_at"], params["recover_at"]
    before, during = phases["before failure"], phases["during failure"]
    after = phases["after recovery"]
    at_fail = by(seconds, "sec")[fail_at]
    return [
        (all(p["failed"] == 0 for p in phases.values()),
         "no failed query in any phase"),
        (at_fail["completed"] < at_fail["arrived"]
         and during["throughput_qps"] >= 0.9 * before["throughput_qps"],
         f"dip at second {fail_at} ({at_fail['completed']} completions vs "
         f"{at_fail['arrived']} arrivals), {during['throughput_qps']} q/s "
         f"failed over vs {before['throughput_qps']} before"),
        (during["mean_response_ms"] > 200
         and max(before["mean_response_ms"], after["mean_response_ms"]) < 50,
         f"{during['mean_response_ms']} ms failed over vs "
         f"{before['mean_response_ms']} / {after['mean_response_ms']} ms "
         f"local"),
        (all(s["response_ms"] < 50 for s in seconds
             if s["sec"] >= recover_at + 2),
         f"local latency again from second {recover_at + 2}"),
    ]


def group_size_shape(figures):
    """Bandwidth grows with group size from 10 up; groups of 5 pay in
    leader count instead; detection stays flat."""
    rows = figure(figures, "ablation_group_size")
    bandwidth = [r["bandwidth_mbps"] for r in rows]
    detection = [r["detection_s"] for r in rows]
    return [
        (increasing(bandwidth[1:]) and bandwidth[0] > bandwidth[1],
         f"bandwidth {bandwidth} MB/s for groups "
         f"{[r['group_size'] for r in rows]}"),
        (4.0 <= min(detection) and max(detection) <= 5.0
         and max(detection) - min(detection) <= 0.5,
         f"detection flat: {detection}"),
    ]


def loss_recovery_shape(figures):
    """Every run converges through 20% loss. Piggyback depth 3 heals more
    gaps in place than depth 0 at every loss rate, and needs fewer sync
    polls up to 10% loss; at 20% the polls stay flat (within 10%)."""
    rows = figure(figures, "ablation_loss_recovery")
    cells = by(rows, "loss_pct", "piggyback")
    heals, polls = True, True
    for loss in sorted({r["loss_pct"] for r in rows}):
        shallow, deep = cells[(loss, 0)], cells[(loss, 3)]
        heals &= deep["pb_heals"] > shallow["pb_heals"]
        if loss <= 10:
            polls &= deep["sync_polls"] < shallow["sync_polls"]
        else:
            polls &= abs(deep["sync_polls"] - shallow["sync_polls"]) \
                <= 0.1 * shallow["sync_polls"]
    return [
        (all(r["converged"] for r in rows), "converged in every run"),
        (heals, "depth 3 heals more gaps than depth 0 at every loss rate"),
        (polls, "depth 3 needs fewer sync polls up to 10% loss, as many "
                "at 20%"),
    ]


def leader_failover_shape(figures):
    """A backup takes over within the detection timeout; losing leader and
    backup adds the bully election; no live node is reported dead."""
    cells = by(figure(figures, "ablation_leader_failover"), "backup_dies")
    backup_up, both = cells[False], cells[True]
    return [
        (all(r["spurious_leaves"] == 0 and r["converged"]
             for r in cells.values()), "no spurious leave; converged"),
        (0 < backup_up["new_leader_s"] <= 5.0
         and both["new_leader_s"] > backup_up["new_leader_s"],
         f"new leader after {backup_up['new_leader_s']} s with the backup "
         f"up, {both['new_leader_s']} s without"),
    ]


def join_latency_shape(figures):
    """All-to-all and hierarchical list a joiner within one period and
    cluster-wide within milliseconds (hierarchical through leader relays);
    gossip takes epidemic rounds, seconds."""
    cells = by(figure(figures, "ablation_join_latency"), "scheme")
    claims = [(0 <= cells[s]["first_observer_s"] <= 1.0
               and 0 <= cells[s]["cluster_wide_s"] < 0.1,
               f"{s}: first {cells[s]['first_observer_s']} s, cluster-wide "
               f"{cells[s]['cluster_wide_s']} s")
              for s in ("all-to-all", "hierarchical")]
    gossip = cells["gossip"]
    claims.append((0 <= gossip["first_observer_s"]
                   and gossip["cluster_wide_s"] > 1.0,
                   f"gossip: cluster-wide {gossip['cluster_wide_s']} s"))
    return claims


def join_storm_shape(figures):
    """Admission control never drops a full image and never raises the
    peak; at the largest storm, without it the serving leaders burst higher
    and the NIC queues drop. Convergence time is the same either way."""
    rows = figure(figures, "ablation_join_storm")
    cells = by(rows, "joiners", "admission")
    sizes = sorted({r["joiners"] for r in rows})
    on = [cells[(j, True)] for j in sizes]
    off = [cells[(j, False)] for j in sizes]
    return [
        (all(r["nic_drops"] == 0 for r in on), "admission on: no NIC drop"),
        (all(a["peak_node_bytes_per_s"] <= b["peak_node_bytes_per_s"]
             and 0 <= a["converge_s"] == b["converge_s"]
             for a, b in zip(on, off)),
         "admission on: peak never above off, same convergence"),
        (off[-1]["peak_node_bytes_per_s"] > on[-1]["peak_node_bytes_per_s"]
         and off[-1]["nic_drops"] > 0,
         f"{sizes[-1]} joiners, admission off: peak "
         f"{off[-1]['peak_node_bytes_per_s']} vs "
         f"{on[-1]['peak_node_bytes_per_s']} B/s, "
         f"{off[-1]['nic_drops']} NIC drops"),
    ]


def tree_depth_shape(figures):
    """The membership tree has as many levels as the topology's TTL
    diameter; detection stays near 5 s at every depth; convergence adds
    only relay hops; per-cluster bandwidth falls as traffic localizes."""
    rows = figure(figures, "ablation_tree_depth")
    same = [r["bandwidth_mbps"] for r in rows if r["hosts"] == rows[-1]["hosts"]]
    return [
        (all(r["levels"] == r["max_ttl"] for r in rows),
         f"levels == max TTL: {[r['levels'] for r in rows]}"),
        (all(4.0 <= r["detect_s"] <= 5.0
             and 0 <= r["converge_s"] - r["detect_s"] < 0.25 for r in rows),
         "detection 4-5 s, convergence within 0.25 s of it"),
        (len(same) > 1 and all(a > b for a, b in zip(same, same[1:])),
         f"bandwidth falls with depth at {rows[-1]['hosts']} hosts: {same}"),
    ]


def accuracy_shape(figures):
    """Every scheme stays complete (the real failure is always detected).
    The heartbeat schemes report no false leave through 5% loss and only a
    handful (at most 10) at 10%; gossip floods false leaves under loss."""
    rows = figure(figures, "ablation_accuracy")
    cells = by(rows, "loss_pct", "scheme")
    clean = True
    for loss in sorted({r["loss_pct"] for r in rows}):
        worst = max(cells[(loss, s)]["false_leaves"]
                    for s in ("all-to-all", "hierarchical"))
        clean &= worst <= (0 if loss <= 5 else 10)
        if loss > 0:
            clean &= cells[(loss, "gossip")]["false_leaves"] > worst
    return [
        (all(r["real_detected"] and r["converged"] for r in rows),
         "the real failure is detected and views converge in every run"),
        (clean, "heartbeat schemes: no false leave through 5% loss, at most "
                "10 at 10%; gossip more at every lossy rate"),
    ]


def partition_shape(figures):
    """A cut rack is purged cluster-wide one higher-level timeout after the
    cut, linear in the factor; a leader death never purges its subtree."""
    rows = figure(figures, "ablation_partition")
    first, last = rows[0], rows[-1]
    slope = (last["all_purged_s"] - first["all_purged_s"]) / \
        (last["factor"] - first["factor"])
    steps = [(b["all_purged_s"] - a["all_purged_s"]) / (b["factor"] -
                                                         a["factor"])
             for a, b in zip(rows, rows[1:])]
    return [
        (all(r["spurious_leaves"] == 0 for r in rows),
         "leader death purges no live node"),
        (slope > 0 and all(abs(step - slope) <= 0.1 * slope
                           for step in steps),
         f"purge time linear in the factor, {slope:.2f} s per unit"),
    ]


FIGURE_SHAPES = (fig2_shape, table_section4_shape, fig11_shape, fig12_shape,
                 fig13_shape, fig14_shape, group_size_shape,
                 loss_recovery_shape, leader_failover_shape,
                 join_latency_shape, join_storm_shape, tree_depth_shape,
                 accuracy_shape, partition_shape)


def figure_shapes(figures):
    """Runs every figure's shape predicate over the report."""
    status = 0
    for shape in FIGURE_SHAPES:
        try:
            claims = shape(figures)
        except (KeyError, TypeError, ZeroDivisionError) as err:
            raise Malformed(f"{shape.__name__}: cannot read {err!r}") from err
        for good, line in claims:
            status = max(status, verdict(good, f"{shape.__name__}: {line}"))
    return status


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
        fields={"nodes": NUMBER, BYTES: NUMBER, KBPS: NUMBER},
        bounds=(Bound(BYTES, "<=", CEILING_BYTES, at=(CEILING_NODES,),
                      line="at {label} digest anti-entropy costs "
                           "{value:.1f} B/node/round (ceiling {limit:.1f})"),),
        check=scale_shape,
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
    "figs": Gate(
        rows="figures",
        key=("name",),
        label="{name}",
        fields={"name": TEXT, "params": OBJECT, "columns": LIST,
                "rows": LIST},
        check=figure_shapes,
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
FIGS_BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_figs.json")


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
    """Ladder rows (nodes, bytes) at a flat 5 KB/s, or (nodes, bytes, kbps)."""
    return {"results": [{"nodes": n, BYTES: b, KBPS: k[0] if k else 5.0}
                        for n, b, *k in rows]}


def bench(*entries):
    return {"benchmarks": [{"name": n, "cpu_time": t} for n, t in entries]}


GOOD = (slo_row("all-to-all", "crash-restart", 0.02),
        slo_row("hierarchical", "crash-restart", 0.01),
        slo_row("all-to-all", "leader-kill", 0.05),
        slo_row("hierarchical", "leader-kill", 0.02))
A2A_CRASH, HIER_CRASH, *LEADER_KILL = GOOD
NO_MISROUTE_RATE = {k: v for k, v in A2A_CRASH.items() if k != "misroute_rate"}
SCALE_GOOD = scale((100, 30.0), (1000, 25.0), (5000, 25.0))


def figs(name=None, row=None, column=None, value=None, edit=None):
    """The committed BENCH_figs.json, read when the case runs, with one cell
    of figure `name` set to `value`, or `edit` applied to that figure."""
    def report():
        with open(FIGS_BASELINE, "r", encoding="utf-8") as fh:
            figures = json.load(fh)
        for fig in figures["figures"]:
            if fig["name"] == name and edit is not None:
                edit(fig)
            elif fig["name"] == name:
                fig["rows"][row][fig["columns"].index(column)] = value
        return figures
    return report


def drop(fig):
    fig["name"] = "renamed"

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
    ("scale", scale((100, 30.0, 5.0), (1000, 25.0, 7.5)), None, 0,
     "per-node KB/s grows exactly 1.5x"),
    ("scale", scale((100, 30.0, 5.0), (1000, 25.0, 8.0)), None, 1,
     "per-node KB/s grows 1.6x"),
    ("scale", scale((100, 30.0), (1000, 31.0)), None, 1,
     "anti-entropy bytes grow with the view"),
    ("scale", scale((100, 30.0, 0.0), (1000, 25.0)), None, 2,
     "zero per-node KB/s"),
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
    ("figs", figs(), None, 0, "committed report"),
    ("figs", figs("fig2_alltoall_overhead", -1, "cpu_pct", 6.0), None, 1,
     "CPU off its line at 4000 nodes"),
    ("figs", figs("table_scalability_analysis", 5, "bdp", 2e8), None, 1,
     "hierarchical BDP above all-to-all at n = 100"),
    ("figs", figs("fig11_bandwidth", -1, "hier_mbps", 3.0), None, 1,
     "hierarchical above all-to-all at 100 nodes"),
    ("figs", figs("fig12_detection_time", -1, "gossip_s", 16.0), None, 1,
     "gossip detection falls at 100 nodes"),
    ("figs", figs("fig13_convergence_time", 0, "hier_s", 5.0), None, 1,
     "hierarchical 0.6 s behind all-to-all"),
    ("figs", figs("fig14_phases", 1, "mean_response_ms", 150.0), None, 1,
     "failed-over responses under 200 ms"),
    ("figs", figs("ablation_group_size", 0, "detection_s", 9.0), None, 1,
     "detection not flat"),
    ("figs", figs("ablation_loss_recovery", 10, "sync_polls", 140), None, 1,
     "depth 3 polls more than depth 0 at 10% loss"),
    ("figs", figs("ablation_leader_failover", 0, "spurious_leaves", 1), None,
     1, "a spurious leave on failover"),
    ("figs", figs("ablation_join_latency", 2, "cluster_wide_s", 2.0), None, 1,
     "hierarchical join takes 2 s cluster-wide"),
    ("figs", figs("ablation_join_storm", 4, "nic_drops", 3), None, 1,
     "admission on drops at the NIC"),
    ("figs", figs("ablation_tree_depth", -1, "levels", 7), None, 1,
     "levels != max TTL"),
    ("figs", figs("ablation_accuracy", 5, "false_leaves", 1), None, 1,
     "hierarchical false leave at 5% loss"),
    ("figs", figs("ablation_partition", 2, "spurious_leaves", 2), None, 1,
     "leader death purges live nodes"),
    ("figs", figs("fig14_phases", edit=drop), None, 2, "a figure missing"),
    ("figs", figs("fig11_bandwidth", edit=lambda f: f["rows"][0].pop()), None,
     2, "a row shorter than its columns"),
    ("figs", figs("ablation_accuracy",
                  edit=lambda f: f["columns"].__setitem__(2, "false")), None,
     2, "a column a predicate reads is missing"),
    ("figs", figs("fig12_detection_time", edit=lambda f: f["params"].clear()),
     None, 2, "a parameter a predicate reads is missing"),
)


def selftest(only=None):
    """Runs the selftest cases of gate `only`, or of every gate."""
    cases = [c for c in SELFTEST if only is None or c[0] == only]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        def write(report, name):
            path = os.path.join(tmp, name)
            if callable(report):
                report = report()
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
