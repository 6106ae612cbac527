// Google-benchmark pair for the hotpath gate: the observability work the
// transport adds to every send, and the full instrumented send it rides on.
// tools/gate.py hotpath fails CI if the first costs more than 5% of the
// second. BM_TableApplyRefresh times the directory lookup every received
// heartbeat pays, and BM_TableAbsorbImage the inserts of a bootstrap image
// absorbed row by row; no gate reads either. perfbench's per-layer ledger
// covers the other hot paths (codec, event queue) on whole workloads.
#include <benchmark/benchmark.h>

#include <vector>

#include "membership/codec.h"
#include "membership/messages.h"
#include "membership/table.h"
#include "net/topology.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace tamp {
namespace {

// The exact per-send work the observability layer added to the transmit
// path: read the wire kind the encoder stamped on the payload, bump the
// per-host and per-kind counters, and offer the (disabled) tracer an event.
// The CI gate compares this against BM_TransportSendUnicast below.
void BM_ObsHotpathAddition(benchmark::State& state) {
  obs::Observability obs;
  obs::Counter* tx =
      obs.metrics.counter(obs::Protocol::kNet, "tx_messages", 3);
  obs::Counter* bytes =
      obs.metrics.counter(obs::Protocol::kNet, "tx_wire_bytes", 3);
  obs::Counter* kind_total =
      obs.metrics.counter(obs::Protocol::kNet, "tx_kind_heartbeat");
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry =
      membership::make_row(membership::make_representative_entry(7));
  auto payload =
      membership::encode_message(membership::Message{heartbeat}, 228);
  for (auto _ : state) {
    uint8_t kind = payload->kind;
    benchmark::DoNotOptimize(kind);
    tx->add();
    bytes->add(payload->size);
    kind_total->add();
    obs.tracer.record(obs::TraceKind::kEgressDrop, 3, 0, -1, kind);
  }
}
BENCHMARK(BM_ObsHotpathAddition);

// Denominator for the overhead gate: a full instrumented unicast send of a
// representative heartbeat between two switched hosts, drained to delivery.
void BM_TransportSendUnicast(benchmark::State& state) {
  sim::Simulation sim(11);
  net::Topology topo;
  net::DeviceId sw = topo.add_l2_switch("sw");
  net::HostId a = topo.add_host("a");
  net::HostId b = topo.add_host("b");
  topo.connect(a, sw);
  topo.connect(b, sw);
  net::Network net(sim, topo);
  membership::install_wire_kind_names(net);
  uint64_t received = 0;
  net.bind(b, 7, [&](const net::Packet&) { ++received; });
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry =
      membership::make_row(membership::make_representative_entry(7));
  auto payload =
      membership::encode_message(membership::Message{heartbeat}, 228);
  for (auto _ : state) {
    net.send_unicast(a, {b, 7}, payload);
    sim.run();
  }
  benchmark::DoNotOptimize(received);
}
BENCHMARK(BM_TransportSendUnicast);

// 500 rows whose ids follow the racked layout, a switch id and then 20 host
// ids per rack.
std::vector<membership::RowRef> racked_rows() {
  std::vector<membership::RowRef> rows;
  for (membership::NodeId rack = 0; rack < 25; ++rack) {
    for (membership::NodeId host = 1; host <= 20; ++host) {
      rows.push_back(membership::make_row(
          membership::make_representative_entry(rack * 21 + host)));
    }
  }
  return rows;
}

// A heartbeat's table work: re-apply a row the directory already holds
// (same content, so kRefreshed) in a table of the racked rows.
void BM_TableApplyRefresh(benchmark::State& state) {
  using membership::Liveness;
  membership::MembershipTable table;
  const std::vector<membership::RowRef> rows = racked_rows();
  sim::Time now = 0;
  for (const auto& row : rows) {
    table.apply(row, Liveness::kDirect, membership::kInvalidNode, now);
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.apply(rows[next], Liveness::kDirect,
                                         membership::kInvalidNode, ++now));
    next = (next + 7) % rows.size();  // 7 and 500 are coprime: every row
  }
}
BENCHMARK(BM_TableApplyRefresh);

// A bootstrap image's table work: insert the racked rows, in a seeded
// shuffled order, into an empty table as relayed records, then walk the
// directory once in id order.
void BM_TableAbsorbImage(benchmark::State& state) {
  using membership::Liveness;
  std::vector<membership::RowRef> rows = racked_rows();
  util::Rng(7).shuffle(rows);
  for (auto _ : state) {
    membership::MembershipTable table;
    for (const auto& row : rows) {
      table.apply(row, Liveness::kRelayed, 1, 0);
    }
    sim::Time stamps = 0;
    for (const auto& [id, entry] : table.entries()) stamps += entry.last_heard;
    benchmark::DoNotOptimize(stamps);
  }
}
BENCHMARK(BM_TableAbsorbImage);

}  // namespace
}  // namespace tamp

BENCHMARK_MAIN();
