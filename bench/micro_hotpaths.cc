// Google-benchmark pair for the hotpath gate: the observability work the
// transport adds to every send, and the full instrumented send it rides on.
// tools/gate.py hotpath fails CI if the first costs more than 5% of the
// second. perfbench's per-layer ledger covers the other hot paths (codec,
// table, event queue) on whole workloads.
#include <benchmark/benchmark.h>

#include "membership/codec.h"
#include "membership/messages.h"
#include "membership/row.h"
#include "net/topology.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "sim/simulation.h"

namespace tamp {
namespace {

// The exact per-send work the observability layer added to the transmit
// path: classify the payload's wire kind, bump the per-host and per-kind
// counters, and offer the (disabled) tracer an event. The CI gate compares
// this against BM_TransportSendUnicast below.
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
    uint8_t kind =
        membership::classify_wire_kind(payload->data(), payload->size());
    benchmark::DoNotOptimize(kind);
    tx->add();
    bytes->add(payload->size());
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
  membership::install_wire_classifier(net);
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

}  // namespace
}  // namespace tamp

BENCHMARK_MAIN();
