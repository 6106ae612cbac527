// Unified observability layer: a typed metrics registry and a deterministic
// structured event tracer, shared by the transport, the three membership
// protocols, the proxy, and the chaos harness.
//
// Design constraints, in order:
//  * Determinism. Every recorded value derives from the simulation (virtual
//    time, seeded RNG, integer ids). Trace serialization is integer-only, so
//    two runs with the same seed produce byte-identical JSONL — traces are
//    diffable regression artifacts, not logs.
//  * Hot-path cost. Counters are resolved once into stable `Counter*`
//    handles (a map lookup at construction, a single add on the data path);
//    a disabled tracer costs one inline branch per potential event.
//  * One schema. Metrics are keyed by {protocol, name, node}; the registry
//    is the only accounting surface (the legacy per-component stat structs
//    — `TrafficStats`, `HierStats`, `ProxyStats` — are gone).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "sim/time.h"
#include "util/stats.h"

namespace tamp::obs {

// Mirrors net::HostId (obs sits below net in the layering, so the alias is
// restated rather than included).
using NodeId = uint32_t;
// Aggregate / node-less metrics (e.g. transport totals) live under this
// pseudo-node; per-node sums deliberately exclude it.
inline constexpr NodeId kNoNode = UINT32_MAX;

// The subsystem that owns a metric — the coarse half of the metric key.
enum class Protocol : uint8_t {
  kNet = 0,
  kAllToAll,
  kGossip,
  kHier,
  kProxy,
  kChaos,
  kWorkload,
  kCount,
};
const char* protocol_name(Protocol protocol);

// --- metric cells ---------------------------------------------------------

struct Counter {
  uint64_t value = 0;
  void add(uint64_t delta = 1) { value += delta; }
};

struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

// Streaming moments plus exact percentiles; meant for rare-path
// distributions (serve sizes, convergence times), not per-packet samples.
struct Histogram {
  util::OnlineStats moments;
  util::Percentiles tail;
  void observe(double v) {
    moments.add(v);
    tail.add(v);
  }
};

// --- registry --------------------------------------------------------------

// Typed metric store keyed by {protocol, name, node}. Handle resolution
// (`counter()` etc.) is idempotent and returns a pointer that stays valid
// for the registry's lifetime; `reset()` zeroes values without invalidating
// handles, so components keep their cached pointers across measurement
// windows.
class MetricsRegistry {
 public:
  Counter* counter(Protocol protocol, std::string_view name,
                   NodeId node = kNoNode);
  Gauge* gauge(Protocol protocol, std::string_view name,
               NodeId node = kNoNode);
  Histogram* histogram(Protocol protocol, std::string_view name,
                       NodeId node = kNoNode);

  // Zero every value (all protocols, or one); handles stay valid.
  void reset();
  void reset(Protocol protocol);

  // --- queries (0 / empty when the metric does not exist) ------------------
  uint64_t counter_value(Protocol protocol, std::string_view name,
                         NodeId node = kNoNode) const;
  // Sum of `name` across all real nodes (the kNoNode aggregate excluded).
  uint64_t counter_sum_over_nodes(Protocol protocol,
                                  std::string_view name) const;
  // Sum of every counter under `node` whose name starts with `prefix`.
  uint64_t counter_prefix_sum(Protocol protocol, std::string_view prefix,
                              NodeId node = kNoNode) const;
  // Read access to an existing histogram cell (nullptr when absent) — the
  // query-side companion of `histogram()`.
  const Histogram* find_histogram(Protocol protocol, std::string_view name,
                                  NodeId node = kNoNode) const;

  struct CounterRow {
    Protocol protocol;
    std::string_view name;
    NodeId node;
    uint64_t value;
  };
  // Deterministic iteration (sorted by protocol, name, node) over all
  // counters, zero-valued ones included.
  void visit_counters(const std::function<void(const CounterRow&)>& fn) const;

  // Deterministic JSON snapshot: non-zero counters, all gauges, all
  // histograms, sorted by key.
  std::string to_json() const;

 private:
  struct Key {
    uint8_t protocol;
    std::string name;
    NodeId node;
    auto operator<=>(const Key&) const = default;
  };
  template <class Cell>
  using Table = std::map<Key, std::unique_ptr<Cell>>;

  template <class Cell>
  Cell* resolve(Table<Cell>& table, Protocol protocol, std::string_view name,
                NodeId node);

  Table<Counter> counters_;
  Table<Gauge> gauges_;
  Table<Histogram> histograms_;
};

// --- tracer ----------------------------------------------------------------

// Event taxonomy. Every structurally interesting protocol transition gets a
// kind; the two payload words carry kind-specific integers (documented at
// the record sites). Values are stable — they are the bit positions of the
// kinds mask on the control surface.
enum class TraceKind : uint8_t {
  kFault = 0,            // a = FaultAction variant index
  kGroupJoin = 1,        // hier: joined a level's channel
  kGroupLeave = 2,       // hier: left a level's channel
  kElectionStart = 3,    // a = level epoch at candidacy
  kCoordinator = 4,      // a = asserted epoch
  kEpochMint = 5,        // a = minted epoch
  kEpochSupersede = 6,   // a = adopted epoch, b = new leader
  kStaleReject = 7,      // a = claimant, b = claimed epoch
  kDeltaEmit = 8,        // a = records in the update msg, b = epoch
  kDeltaApply = 9,       // a = subject, b = record seq
  kTimeoutExpiry = 10,   // a = member declared dead
  kBootstrapRequest = 11,// a = target leader
  kSyncRequest = 12,     // a = origin polled
  kRetry = 13,           // a = target, b = attempts so far
  kBudgetExhausted = 14, // a = target
  kBusyPushback = 15,    // a = refused requester, b = retry_after ns
  kBusyDeferral = 16,    // a = busy responder, b = retry_after ns
  kEgressDrop = 17,      // a = wire kind, b = wire bytes
  kVipTakeover = 18,     // proxy VIP failover, a = datacenter
  kTopologyChange = 19,  // hier: reacted to a topology epoch change,
                         //   a = new epoch, b = members dropped as
                         //   out-of-scope across all levels
  kCount,
};
const char* trace_kind_name(TraceKind kind);

constexpr uint64_t trace_bit(TraceKind kind) {
  return uint64_t{1} << static_cast<unsigned>(kind);
}
inline constexpr uint64_t kAllTraceKinds =
    (uint64_t{1} << static_cast<unsigned>(TraceKind::kCount)) - 1;

struct TraceEvent {
  sim::Time at = 0;
  NodeId node = kNoNode;
  TraceKind kind = TraceKind::kFault;
  int16_t level = -1;  // hier tree level; -1 when not applicable
  uint64_t a = 0;
  uint64_t b = 0;
};

// Bounded ring of structured events. Disabled by default: the record()
// guard is the only cost tracing adds to an untraced run.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  size_t capacity() const { return capacity_; }
  uint64_t kinds_mask() const { return kinds_mask_; }

  void set_enabled(bool on) { enabled_ = on; }
  void set_capacity(size_t capacity);
  void set_kinds_mask(uint64_t mask) { kinds_mask_ = mask; }

  bool wants(TraceKind kind) const {
    return enabled_ &&
           ((kinds_mask_ >> static_cast<unsigned>(kind)) & 1) != 0;
  }

  void record(TraceKind kind, NodeId node, sim::Time at, int level = -1,
              uint64_t a = 0, uint64_t b = 0) {
    if (!wants(kind)) return;
    push(TraceEvent{at, node, kind, static_cast<int16_t>(level), a, b});
  }

  const std::deque<TraceEvent>& events() const { return ring_; }
  uint64_t recorded() const { return recorded_; }       // accepted, ever
  uint64_t overwritten() const { return overwritten_; } // evicted by the ring
  void clear();

  // One event per line, integer fields only — byte-identical across
  // same-seed runs. `node` is -1 for kNoNode.
  std::string to_jsonl() const;

 private:
  void push(const TraceEvent& event);

  std::deque<TraceEvent> ring_;
  size_t capacity_ = size_t{1} << 16;
  uint64_t kinds_mask_ = kAllTraceKinds;
  bool enabled_ = false;
  uint64_t recorded_ = 0;
  uint64_t overwritten_ = 0;
};

// The pair every instrumented component reaches through (the Network owns
// one; daemons and benches borrow it from there).
struct Observability {
  MetricsRegistry metrics;
  Tracer tracer;
};

}  // namespace tamp::obs
