#include "obs/obs.h"

#include <cinttypes>
#include <cstdio>

namespace tamp::obs {

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kNet:
      return "net";
    case Protocol::kAllToAll:
      return "alltoall";
    case Protocol::kGossip:
      return "gossip";
    case Protocol::kHier:
      return "hier";
    case Protocol::kProxy:
      return "proxy";
    case Protocol::kChaos:
      return "chaos";
    case Protocol::kWorkload:
      return "workload";
    case Protocol::kCount:
      break;
  }
  return "?";
}

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kFault:
      return "fault";
    case TraceKind::kGroupJoin:
      return "group_join";
    case TraceKind::kGroupLeave:
      return "group_leave";
    case TraceKind::kElectionStart:
      return "election_start";
    case TraceKind::kCoordinator:
      return "coordinator";
    case TraceKind::kEpochMint:
      return "epoch_mint";
    case TraceKind::kEpochSupersede:
      return "epoch_supersede";
    case TraceKind::kStaleReject:
      return "stale_reject";
    case TraceKind::kDeltaEmit:
      return "delta_emit";
    case TraceKind::kDeltaApply:
      return "delta_apply";
    case TraceKind::kTimeoutExpiry:
      return "timeout_expiry";
    case TraceKind::kBootstrapRequest:
      return "bootstrap_request";
    case TraceKind::kSyncRequest:
      return "sync_request";
    case TraceKind::kRetry:
      return "retry";
    case TraceKind::kBudgetExhausted:
      return "budget_exhausted";
    case TraceKind::kBusyPushback:
      return "busy_pushback";
    case TraceKind::kBusyDeferral:
      return "busy_deferral";
    case TraceKind::kEgressDrop:
      return "egress_drop";
    case TraceKind::kVipTakeover:
      return "vip_takeover";
    case TraceKind::kTopologyChange:
      return "topology_change";
    case TraceKind::kCount:
      break;
  }
  return "?";
}

// --- MetricsRegistry -------------------------------------------------------

template <class Cell>
Cell* MetricsRegistry::resolve(Table<Cell>& table, Protocol protocol,
                               std::string_view name, NodeId node) {
  Key key{static_cast<uint8_t>(protocol), std::string(name), node};
  auto it = table.find(key);
  if (it == table.end()) {
    it = table.emplace(std::move(key), std::make_unique<Cell>()).first;
  }
  return it->second.get();
}

Counter* MetricsRegistry::counter(Protocol protocol, std::string_view name,
                                  NodeId node) {
  return resolve(counters_, protocol, name, node);
}

Gauge* MetricsRegistry::gauge(Protocol protocol, std::string_view name,
                              NodeId node) {
  return resolve(gauges_, protocol, name, node);
}

Histogram* MetricsRegistry::histogram(Protocol protocol, std::string_view name,
                                      NodeId node) {
  return resolve(histograms_, protocol, name, node);
}

void MetricsRegistry::reset() {
  for (auto& [key, cell] : counters_) cell->value = 0;
  for (auto& [key, cell] : gauges_) cell->value = 0.0;
  for (auto& [key, cell] : histograms_) {
    cell->moments.reset();
    cell->tail.reset();
  }
}

void MetricsRegistry::reset(Protocol protocol) {
  const auto p = static_cast<uint8_t>(protocol);
  for (auto& [key, cell] : counters_) {
    if (key.protocol == p) cell->value = 0;
  }
  for (auto& [key, cell] : gauges_) {
    if (key.protocol == p) cell->value = 0.0;
  }
  for (auto& [key, cell] : histograms_) {
    if (key.protocol != p) continue;
    cell->moments.reset();
    cell->tail.reset();
  }
}

uint64_t MetricsRegistry::counter_value(Protocol protocol,
                                        std::string_view name,
                                        NodeId node) const {
  auto it = counters_.find(
      Key{static_cast<uint8_t>(protocol), std::string(name), node});
  return it != counters_.end() ? it->second->value : 0;
}

const Histogram* MetricsRegistry::find_histogram(Protocol protocol,
                                                 std::string_view name,
                                                 NodeId node) const {
  auto it = histograms_.find(
      Key{static_cast<uint8_t>(protocol), std::string(name), node});
  return it != histograms_.end() ? it->second.get() : nullptr;
}

uint64_t MetricsRegistry::counter_sum_over_nodes(Protocol protocol,
                                                 std::string_view name) const {
  const auto p = static_cast<uint8_t>(protocol);
  uint64_t sum = 0;
  // Keys sort by (protocol, name, node): the run we want is contiguous.
  auto it = counters_.lower_bound(Key{p, std::string(name), 0});
  for (; it != counters_.end(); ++it) {
    if (it->first.protocol != p || it->first.name != name) break;
    if (it->first.node == kNoNode) continue;
    sum += it->second->value;
  }
  return sum;
}

uint64_t MetricsRegistry::counter_prefix_sum(Protocol protocol,
                                             std::string_view prefix,
                                             NodeId node) const {
  const auto p = static_cast<uint8_t>(protocol);
  uint64_t sum = 0;
  auto it = counters_.lower_bound(Key{p, std::string(prefix), 0});
  for (; it != counters_.end(); ++it) {
    if (it->first.protocol != p || !it->first.name.starts_with(prefix)) break;
    if (it->first.node == node) sum += it->second->value;
  }
  return sum;
}

void MetricsRegistry::visit_counters(
    const std::function<void(const CounterRow&)>& fn) const {
  for (const auto& [key, cell] : counters_) {
    fn(CounterRow{static_cast<Protocol>(key.protocol), key.name, key.node,
                  cell->value});
  }
}

namespace {

void append_key(std::string& out, const MetricsRegistry::CounterRow& row) {
  out += "{\"proto\":\"";
  out += protocol_name(row.protocol);
  out += "\",\"name\":\"";
  out += row.name;
  out += "\",\"node\":";
  out += row.node == kNoNode ? std::string("-1")
                             : std::to_string(row.node);
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& [key, cell] : counters_) {
    if (cell->value == 0) continue;
    if (!first) out += ",";
    first = false;
    append_key(out, CounterRow{static_cast<Protocol>(key.protocol), key.name,
                               key.node, cell->value});
    out += ",\"value\":" + std::to_string(cell->value) + "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, cell] : gauges_) {
    if (!first) out += ",";
    first = false;
    append_key(out, CounterRow{static_cast<Protocol>(key.protocol), key.name,
                               key.node, 0});
    out += ",\"value\":" + format_double(cell->value) + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, cell] : histograms_) {
    if (!first) out += ",";
    first = false;
    append_key(out, CounterRow{static_cast<Protocol>(key.protocol), key.name,
                               key.node, 0});
    out += ",\"count\":" + std::to_string(cell->moments.count());
    out += ",\"mean\":" + format_double(cell->moments.mean());
    out += ",\"min\":" + format_double(cell->moments.min());
    out += ",\"max\":" + format_double(cell->moments.max()) + "}";
  }
  out += "]}";
  return out;
}

// --- Tracer ----------------------------------------------------------------

void Tracer::set_capacity(size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++overwritten_;
  }
}

void Tracer::clear() {
  ring_.clear();
  recorded_ = 0;
  overwritten_ = 0;
}

void Tracer::push(const TraceEvent& event) {
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++overwritten_;
  }
  ring_.push_back(event);
  ++recorded_;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  out.reserve(ring_.size() * 64);
  for (const TraceEvent& event : ring_) {
    out += "{\"t\":" + std::to_string(event.at);
    out += ",\"node\":";
    out += event.node == kNoNode ? std::string("-1")
                                 : std::to_string(event.node);
    out += ",\"kind\":\"";
    out += trace_kind_name(event.kind);
    out += "\",\"level\":" + std::to_string(event.level);
    out += ",\"a\":" + std::to_string(event.a);
    out += ",\"b\":" + std::to_string(event.b);
    out += "}\n";
  }
  return out;
}

}  // namespace tamp::obs
