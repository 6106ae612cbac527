"""Per-module self time and call counts from a gprof `gmon.out`.

The traced build (`perfbench_driver_pg`, compiled with -pg and linked
statically) writes `gmon.out` at exit. This module reads that file directly
instead of going through `gprof`'s flat profile, because gprof drops every
symbol with a `.` in its name (GCC's `.isra.0`, `.part.0`, `.cold` clones)
and hands their samples and calls to whatever symbol precedes them in the
binary; it also hides the profiler's own `mcount` time inside a neighbouring
libc symbol. Here every text symbol `nm` reports is kept, and the profiler's
own functions are set apart from the program's time.

Self time is bucketed by the symbol's leading `tamp::<module>::` namespace;
the benchmark's own code (`perfbench::`, `main`) goes to `bench`; the
profiler's functions go to `profiler`; everything else (libc, libstdc++,
std:: template instantiations) goes to `runtime`.
"""

import bisect
import re
import struct
import subprocess

# glibc's gmon record tags.
_TAG_TIME_HIST = 0
_TAG_CG_ARC = 1
_TAG_BB_COUNT = 2

PROFILER_SYMBOLS = frozenset({
    "mcount", "_mcount", "__mcount_internal", "__monstartup", "monstartup",
    "_mcleanup", "__profile_frequency", "profil", "__profil",
    "profil_counter", "__profil_counter", "moncontrol", "write_gmon",
    "__write_profiling",
})


def parse_gmon(data):
    """Returns (histogram, arcs) from the bytes of a gmon.out file.

    histogram: list of (lowpc, highpc, counts, seconds_per_sample)
    arcs: list of (from_pc, self_pc, count)
    """
    if data[:4] != b"gmon":
        raise ValueError("not a gmon.out file")
    offset = 20  # magic, version, 12 spare bytes
    histogram, arcs = [], []
    while offset < len(data):
        tag = data[offset]
        offset += 1
        if tag == _TAG_TIME_HIST:
            lowpc, highpc, size, rate = struct.unpack_from("<QQII", data,
                                                           offset)
            offset += 24 + 15 + 1  # dimension name + abbreviation
            counts = struct.unpack_from("<%dH" % size, data, offset)
            offset += 2 * size
            histogram.append((lowpc, highpc, counts, 1.0 / rate))
        elif tag == _TAG_CG_ARC:
            arcs.append(struct.unpack_from("<QQI", data, offset))
            offset += 20
        elif tag == _TAG_BB_COUNT:
            (entries,) = struct.unpack_from("<I", data, offset)
            offset += 4 + 16 * entries
        else:
            raise ValueError("unknown gmon record tag %d" % tag)
    return histogram, arcs


class SymbolTable:
    """Sorted text symbols; `lookup(pc)` names the function holding pc."""

    def __init__(self, symbols):
        by_address = {}
        for address, name in symbols:
            # Prefer a program symbol over a runtime alias at one address.
            if address not in by_address or (
                    not by_address[address].startswith("tamp::")
                    and name.startswith("tamp::")):
                by_address[address] = name
        self.addresses = sorted(by_address)
        self.names = [by_address[a] for a in self.addresses]

    def lookup(self, pc):
        index = bisect.bisect_right(self.addresses, pc) - 1
        return self.names[index] if index >= 0 else "?"

    @classmethod
    def from_binary(cls, path):
        out = subprocess.run(["nm", "-C", "--defined-only", path],
                             check=True, capture_output=True, text=True)
        symbols = []
        for line in out.stdout.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "TtWwiI":
                symbols.append((int(parts[0], 16), parts[2]))
        return cls(symbols)


_ANON = "(anonymous namespace)"
_HANDLER = "std::_Function_handler<"


def qualified_name(name):
    """The function's qualified name: no clone suffix, no return type."""
    name = re.sub(r" \[clone [^\]]*\]", "", name).replace(_ANON, "\0")
    depth, start = 0, 0
    for index, char in enumerate(name):
        if char == "<":
            depth += 1
        elif char == ">" and depth > 0:
            depth -= 1
        elif depth == 0 and char == " ":
            start = index + 1  # a template function's return type ends here
        elif depth == 0 and char == "(":
            break
    return name[start:].replace("\0", _ANON)


def _functor_of(name):
    """The callable type of a std::function thunk, or None."""
    if not name.startswith(_HANDLER):
        return None
    depth, split = 0, None
    for index in range(len(_HANDLER), len(name)):
        char = name[index]
        if char in "<(":
            depth += 1
        elif char in ">)":
            if depth == 0:
                return name[split:index].strip() if split else None
            depth -= 1
        elif char == "," and depth == 0:
            split = index + 1
    return None


def module_of(name):
    """Buckets one demangled symbol name into a module."""
    name = qualified_name(name)
    if name in PROFILER_SYMBOLS:
        return "profiler"
    # A std::function thunk runs the lambda inlined into it: charge it to
    # the module that wrote the lambda.
    name = _functor_of(name) or name
    head, depth = [], 0
    for char in name.replace(_ANON, "anon"):
        if char == "<":
            depth += 1
        elif char == ">" and depth > 0:
            depth -= 1
        elif depth == 0 and char == "(":
            break
        elif depth == 0:
            head.append(char)
    parts = "".join(head).split("::")
    if len(parts) >= 3 and parts[0] == "tamp":
        return parts[1]
    if parts[0] in ("perfbench", "main"):
        return "bench"
    return "runtime"


def profile(histogram, arcs, table):
    """Returns ({module: self seconds}, {symbol: calls})."""
    seconds = {}
    for lowpc, highpc, counts, per_sample in histogram:
        if not counts:
            continue
        width = (highpc - lowpc) / len(counts)
        for index, count in enumerate(counts):
            if count:
                module = module_of(table.lookup(int(lowpc + index * width)))
                seconds[module] = seconds.get(module, 0.0) + count * per_sample
    calls = {}
    for _from_pc, self_pc, count in arcs:
        symbol = table.lookup(self_pc)
        calls[symbol] = calls.get(symbol, 0) + count
    return seconds, calls


def shares(seconds):
    """Percent of the program's sampled time per module (profiler excluded)."""
    total = sum(v for k, v in seconds.items() if k != "profiler")
    if total <= 0:
        return {}
    return {k: 100.0 * v / total for k, v in seconds.items()
            if k != "profiler"}


def calls_matching(calls, prefix):
    """Total calls into every function whose qualified name starts with
    `prefix` (clones and template instantiations included)."""
    return sum(count for symbol, count in calls.items()
               if qualified_name(symbol).startswith(prefix))
