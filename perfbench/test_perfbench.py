#!/usr/bin/env python3
"""Tests for the benchmark's own code (no build or simulation needed).

    python3 perfbench/test_perfbench.py
"""

import json
import os
import struct
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gmon  # noqa: E402
import run  # noqa: E402


class MetricNames(unittest.TestCase):

    def test_accepts_the_allowed_alphabet(self):
        run.check_names([("wall_s", "s"), ("net.path_calls", "count"),
                         ("sim.sim_s_per_wall_s", "sim_s/s"),
                         ("a-b.c_9", "%"), ("9lives", "1/kreq")])

    def test_rejects_names_outside_it(self):
        for bad in ("", "_lead", ".lead", "has space", "semi;colon",
                    "slash/name", "x" * 65, "café"):
            with self.assertRaises(run.BenchError, msg=bad):
                run.check_names([(bad, "s")])

    def test_rejects_bad_units_and_duplicates(self):
        with self.assertRaises(run.BenchError):
            run.check_names([("wall_s", "sec onds")])
        with self.assertRaises(run.BenchError):
            run.check_names([("wall_s", "s"), ("wall_s", "ms")])

    def test_benchmark_json_matches_the_front_end(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, unit, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        run.check_names([(m["name"], m["unit"])
                         for m in spec["end_to_end"] + spec["per_layer"]])


def gmon_bytes(lowpc, counts, arcs, rate=100):
    """A gmon.out with one histogram record and the given call arcs."""
    data = b"gmon" + struct.pack("<I", 1) + bytes(12)
    highpc = lowpc + 4 * len(counts)
    data += bytes([0]) + struct.pack("<QQII", lowpc, highpc, len(counts),
                                     rate)
    data += b"seconds".ljust(15, b"\0") + b"s"
    data += struct.pack("<%dH" % len(counts), *counts)
    for from_pc, self_pc, count in arcs:
        data += bytes([1]) + struct.pack("<QQI", from_pc, self_pc, count)
    return data


class ModuleBucketing(unittest.TestCase):

    SAMPLE = {
        "tamp::net::Topology::path(unsigned int, unsigned int) const": "net",
        "auto tamp::membership::(anonymous namespace)::locate<std::vector<"
        "int, std::allocator<int> > >(std::vector<int, std::allocator<int>"
        " >&, unsigned int)": "membership",
        "tamp::membership::read_string_map[abi:cxx11](tamp::membership::"
        "WireReader&)": "membership",
        "tamp::membership::EntryData::operator==(tamp::membership::EntryData"
        " const&) const [clone .part.0]": "membership",
        "tamp::protocols::HierDaemon::refresh_tick(int)::{lambda()#1}::"
        "operator()() const": "protocols",
        "std::_Function_handler<void (unsigned int, bool), tamp::workload::"
        "WorkloadDriver::fire(unsigned long)::{lambda(unsigned int, bool)#1}"
        ">::_M_invoke(std::_Any_data const&, unsigned int&&, bool&&)":
            "workload",
        "std::priority_queue<tamp::sim::EventQueue::HeapEntry, std::vector<"
        "tamp::sim::EventQueue::HeapEntry> >::pop()": "runtime",
        "void std::vector<unsigned char, std::allocator<unsigned char> >::"
        "_M_range_insert<char const*>(char const*, char const*)": "runtime",
        "std::_Rb_tree_increment(std::_Rb_tree_node_base const*)": "runtime",
        "_int_malloc": "runtime",
        "__memmove_avx512_unaligned_erms": "runtime",
        "unlink_chunk.constprop.0": "runtime",
        "operator new(unsigned long)": "runtime",
        "__mcount_internal": "profiler",
        "_mcount": "profiler",
        "perfbench::run_scale(bool)": "bench",
        "main": "bench",
        "tamp::sim::operator<(tamp::sim::A const&, tamp::sim::A const&)":
            "sim",
    }

    def test_fixed_sample(self):
        for name, module in self.SAMPLE.items():
            self.assertEqual(gmon.module_of(name), module, name)

    def test_qualified_name_drops_return_type_and_clone(self):
        self.assertEqual(
            gmon.qualified_name("void std::sort<int*>(int*, int*) "
                                "[clone .isra.0]"),
            "std::sort<int*>(int*, int*)")

    def test_profile_from_a_fixed_gmon(self):
        table = gmon.SymbolTable([
            (0x1000, "tamp::net::Topology::path(unsigned int, unsigned int)"
                     " const"),
            (0x1010, "_int_malloc"),
            (0x1020, "__mcount_internal"),
            (0x1030, "tamp::membership::decode_entry(tamp::membership::"
                     "WireReader&)"),
            (0x1040, "tamp::membership::decode_entry(tamp::membership::"
                     "WireReader&) [clone .cold]"),
        ])
        # 4 bytes per bin: bins 0-3 net, 4-7 runtime, 8-11 profiler,
        # 12-15 membership, 16 the .cold clone (membership too).
        counts = [3, 0, 0, 1, 5, 0, 0, 0, 7, 7, 0, 0, 2, 0, 0, 0, 2]
        arcs = [(0x2000, 0x1004, 40), (0x2100, 0x1004, 2),
                (0x2000, 0x1034, 9), (0x2000, 0x1044, 1)]
        histogram, parsed_arcs = gmon.parse_gmon(
            gmon_bytes(0x1000, counts, arcs))
        self.assertEqual(parsed_arcs, arcs)
        seconds, calls = gmon.profile(histogram, parsed_arcs, table)
        self.assertAlmostEqual(seconds["net"], 0.04)
        self.assertAlmostEqual(seconds["runtime"], 0.05)
        self.assertAlmostEqual(seconds["profiler"], 0.14)
        self.assertAlmostEqual(seconds["membership"], 0.04)
        shares = gmon.shares(seconds)
        self.assertNotIn("profiler", shares)
        self.assertAlmostEqual(sum(shares.values()), 100.0)
        self.assertAlmostEqual(shares["runtime"], 100.0 * 5 / 13)
        self.assertEqual(
            gmon.calls_matching(calls, "tamp::net::Topology::path("), 42)
        self.assertEqual(
            gmon.calls_matching(calls, "tamp::membership::decode_entry("), 10)

    def test_rejects_foreign_files(self):
        with self.assertRaises(ValueError):
            gmon.parse_gmon(b"not a profile")


def rep(index=0, fingerprint="00ff", ops=14, ops_failed=1, errors=()):
    return {"rep": index, "fingerprint": fingerprint, "ops": ops,
            "ops_failed": ops_failed, "errors": list(errors),
            "failures": ["gossip/racked/join-storm/s1/slo"][:ops_failed],
            "outputs": {"kbps_per_node": 17.8}}


class OpsAndFingerprints(unittest.TestCase):

    def test_repeated_passes_count_ops_once(self):
        verdict = run.account([rep(0), rep(1)])
        self.assertEqual(verdict["problems"], [])
        self.assertEqual((verdict["attempted"], verdict["failed"]), (14, 1))
        self.assertEqual(verdict["fingerprint"], "00ff")

    def test_failed_ops_are_counted_not_skipped(self):
        verdict = run.account([rep(ops=270, ops_failed=3)])
        self.assertEqual(verdict["failed"], 3)
        self.assertEqual(verdict["problems"], [])

    def test_fingerprint_drift_is_flagged(self):
        verdict = run.account([rep(0), rep(1, fingerprint="0100")])
        self.assertEqual(len(verdict["problems"]), 1)
        self.assertIn("fingerprint", verdict["problems"][0])

    def test_broken_identity_is_incorrect(self):
        verdict = run.account([rep(errors=["x: SLO identity broken"])])
        self.assertEqual(verdict["problems"], ["x: SLO identity broken"])

    def test_host_times_scale_by_the_reference_slices(self):
        measured = dict(rep(), wall_s=10.0, reference_s=0.7,
                        reference_slices=10, setup_s=4.0,
                        setup_reference_s=0.35, setup_reference_slices=10)
        # Slices took 0.07 s against a nominal 0.035 s: a host twice as
        # slow as nominal, so 10 s measured is 5 s nominal.
        self.assertAlmostEqual(run.speed(measured),
                               run.REFERENCE_SLICE_S / 0.07)
        self.assertAlmostEqual(run.scaled(measured, "wall_s"),
                               10.0 * run.REFERENCE_SLICE_S / 0.07)
        # Set-up is scaled by the slices run during set-up.
        self.assertAlmostEqual(run.scaled(measured, "setup_s"),
                               4.0 * run.REFERENCE_SLICE_S / 0.035)
        unpaced = dict(rep(), wall_s=10.0, reference_s=0.0,
                       reference_slices=0)
        self.assertEqual(run.scaled(unpaced, "wall_s"), 10.0)

    def test_fingerprint_history_per_build(self):
        with tempfile.TemporaryDirectory() as scratch:
            saved = run.FINGERPRINTS
            run.FINGERPRINTS = os.path.join(scratch, "fingerprints.json")
            binary = os.path.join(scratch, "driver")
            try:
                with open(binary, "wb") as out:
                    out.write(b"build one")
                self.assertIsNone(
                    run.check_fingerprint_history("w", "aa", binary))
                self.assertIsNone(
                    run.check_fingerprint_history("w", "aa", binary))
                self.assertIn("differs",
                              run.check_fingerprint_history("w", "bb",
                                                            binary))
                with open(binary, "wb") as out:
                    out.write(b"build two")  # a rebuild starts afresh
                self.assertIsNone(
                    run.check_fingerprint_history("w", "bb", binary))
            finally:
                run.FINGERPRINTS = saved


if __name__ == "__main__":
    unittest.main()
