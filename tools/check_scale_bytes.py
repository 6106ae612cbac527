#!/usr/bin/env python3
"""CI gate for anti-entropy byte cost at scale.

Reads the committed ``BENCH_scale.json`` (produced by bench/scale_limits)
and enforces two properties:

1. **Ceiling.** At CEILING_NODES nodes the committed baseline's digest
   anti-entropy must cost at most CEILING_BYTES per node per round. The
   bound is the last measured cost of the periodic full-view refresh that
   digests replaced (15848.4 B at 1,000 nodes) divided by the 5x floor the
   digest design was held to, so it is exactly as tight as the old
   full/digest ratio gate. If a baseline regeneration erodes it, the gate
   fails rather than the number silently decaying.

2. **Byte creep.** Given a freshly measured report (``--fresh``), every
   cluster size present in both files must stay within CREEP_TOLERANCE of
   the committed baseline's bytes/node/round. The sims are deterministic,
   so an unchanged protocol reproduces the baseline exactly; the tolerance
   only absorbs intentional small wire-format shifts. Larger regressions
   require regenerating the baseline deliberately.

Usage:
  tools/check_scale_bytes.py BENCH_scale.json
  tools/check_scale_bytes.py --fresh scale-ci.json BENCH_scale.json
  tools/check_scale_bytes.py --selftest

Exit codes: 0 ok, 1 gate failure, 2 usage/malformed input.
"""

import json
import sys

CEILING_NODES = 1000
CEILING_BYTES = 3169.7  # 15848.4 B (last full refresh) / 5
CREEP_TOLERANCE = 0.25  # fresh bytes may exceed baseline by <= 25%

BYTES_KEY = "anti_entropy_bytes_per_node_per_round"


def rows_by_nodes(report):
    """{nodes: bytes_per_node_per_round} from a scale report."""
    out = {}
    for row in report.get("results", []):
        try:
            out[int(row["nodes"])] = float(row[BYTES_KEY])
        except (KeyError, TypeError, ValueError):
            continue
    return out


def check_ceiling(baseline):
    if CEILING_NODES not in baseline:
        print(f"check_scale_bytes: baseline has no {CEILING_NODES}-node row",
              file=sys.stderr)
        return 2
    cost = baseline[CEILING_NODES]
    verdict = "ok" if cost <= CEILING_BYTES else "FAIL"
    print(f"check_scale_bytes: {verdict} — at {CEILING_NODES} nodes digest "
          f"anti-entropy costs {cost:.1f} B/node/round (ceiling "
          f"{CEILING_BYTES:.1f})")
    return 0 if cost <= CEILING_BYTES else 1


def check_creep(baseline, fresh):
    common = sorted(set(baseline) & set(fresh))
    if not common:
        print("check_scale_bytes: fresh report shares no cluster sizes with "
              "the baseline", file=sys.stderr)
        return 2
    status = 0
    for nodes in common:
        allowed = baseline[nodes] * (1.0 + CREEP_TOLERANCE)
        verdict = "ok" if fresh[nodes] <= allowed else "FAIL"
        print(f"check_scale_bytes: {verdict} — {nodes} nodes: "
              f"{fresh[nodes]:.1f} B/node/round vs baseline "
              f"{baseline[nodes]:.1f} (allowed {allowed:.1f})")
        if fresh[nodes] > allowed:
            status = 1
    return status


def run(baseline_report, fresh_report):
    baseline = rows_by_nodes(baseline_report)
    status = check_ceiling(baseline)
    if fresh_report is not None:
        creep = check_creep(baseline, rows_by_nodes(fresh_report))
        status = max(status, creep)
    return status


def selftest():
    def report(rows):
        return {"results": [{"nodes": n, BYTES_KEY: b} for n, b in rows]}

    good = report([(100, 30.0), (1000, 25.0), (5000, 25.0)])
    at_ceiling = report([(1000, CEILING_BYTES)])
    heavy = report([(100, 30.0), (1000, 3200.0)])
    no_ceiling_row = report([(100, 30.0), (2000, 25.0)])
    crept = report([(100, 30.0), (1000, 40.0)])
    flat = report([(100, 30.0), (1000, 25.0)])

    cases = [
        (good, None, 0),
        (at_ceiling, None, 0),
        (heavy, None, 1),          # 3200 > 3169.7 at 1000 nodes
        (no_ceiling_row, None, 2),
        (good, flat, 0),           # creep within tolerance
        (good, crept, 1),          # 40 > 25 * 1.25 at 1000 nodes
        ({"results": []}, None, 2),
        (good, {"results": []}, 2),
    ]
    for baseline, fresh, expected in cases:
        got = run(baseline, fresh)
        if got != expected:
            print(f"selftest FAIL: expected exit {expected}, got {got}",
                  file=sys.stderr)
            return 1
    print("check_scale_bytes: selftest ok")
    return 0


def main(argv):
    args = argv[1:]
    if args == ["--selftest"]:
        return selftest()
    fresh_path = None
    if len(args) >= 2 and args[0] == "--fresh":
        fresh_path = args[1]
        args = args[2:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(args[0], "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        fresh = None
        if fresh_path is not None:
            with open(fresh_path, "r", encoding="utf-8") as fh:
                fresh = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_scale_bytes: {err}", file=sys.stderr)
        return 2
    return run(baseline, fresh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
