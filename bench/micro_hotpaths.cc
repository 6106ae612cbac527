// Google-benchmark micro-benchmarks for the library's hot paths: wire
// serialization (every heartbeat), membership-table maintenance (every
// received packet), service lookup (every invocation), the event queue
// (everything), and the observability work the transport adds to every
// send. These bound how large a simulated cluster stays tractable; the
// obs pair feeds tools/check_hotpath_overhead.py, which gates CI on the
// instrumentation staying under 5% of a full transport send.
#include <benchmark/benchmark.h>

#include "membership/codec.h"
#include "membership/messages.h"
#include "membership/row.h"
#include "membership/table.h"
#include "net/topology.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace tamp {
namespace {

void BM_EncodeEntry(benchmark::State& state) {
  auto entry = membership::make_representative_entry(42, 3);
  for (auto _ : state) {
    membership::WireWriter writer;
    membership::encode_entry(writer, entry);
    benchmark::DoNotOptimize(writer.size());
  }
}
BENCHMARK(BM_EncodeEntry);

void BM_DecodeEntry(benchmark::State& state) {
  auto entry = membership::make_representative_entry(42, 3);
  membership::WireWriter writer;
  membership::encode_entry(writer, entry);
  auto buffer = writer.take();
  for (auto _ : state) {
    membership::WireReader reader(buffer);
    auto decoded = membership::decode_entry(reader);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeEntry);

void BM_EncodeHeartbeat(benchmark::State& state) {
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry =
      membership::make_row(membership::make_representative_entry(7));
  heartbeat.is_leader = true;
  for (auto _ : state) {
    auto payload = membership::encode_message(
        membership::Message{heartbeat}, 228);
    benchmark::DoNotOptimize(payload->size());
  }
}
BENCHMARK(BM_EncodeHeartbeat);

// Steady state inside a simulation: the pool already holds the sender's
// row, so decoding it is a scan, a hash and a compare, not a parse.
void BM_DecodeHeartbeat(benchmark::State& state) {
  membership::RowPool pool;
  membership::HeartbeatMsg heartbeat;
  heartbeat.entry = pool.intern(membership::make_representative_entry(7));
  auto payload =
      membership::encode_message(membership::Message{heartbeat}, 228);
  for (auto _ : state) {
    auto decoded =
        membership::decode_message(payload->data(), payload->size(), pool);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeHeartbeat);

void BM_TableApplyRefresh(benchmark::State& state) {
  membership::MembershipTable table;
  const int nodes = static_cast<int>(state.range(0));
  std::vector<membership::RowRef> entries;
  for (int n = 0; n < nodes; ++n) {
    const auto node = static_cast<membership::NodeId>(n);
    entries.push_back(
        membership::make_row(membership::make_representative_entry(node)));
    table.apply(entries.back(), membership::Liveness::kDirect,
                membership::kInvalidNode, 0);
  }
  sim::Time now = 1;
  size_t i = 0;
  for (auto _ : state) {
    table.apply(entries[i % entries.size()], membership::Liveness::kDirect,
                membership::kInvalidNode, ++now);
    ++i;
  }
}
BENCHMARK(BM_TableApplyRefresh)->Arg(100)->Arg(1000)->Arg(4000);

void BM_TableLookup(benchmark::State& state) {
  membership::MembershipTable table;
  const int nodes = static_cast<int>(state.range(0));
  for (int n = 0; n < nodes; ++n) {
    table.apply(membership::make_row(membership::make_representative_entry(
                    static_cast<membership::NodeId>(n))),
                membership::Liveness::kDirect, membership::kInvalidNode, 0);
  }
  for (auto _ : state) {
    auto matches = table.lookup("retriever", "2");
    benchmark::DoNotOptimize(matches.size());
  }
}
BENCHMARK(BM_TableLookup)->Arg(100)->Arg(1000);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  util::Rng rng(7);
  const int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < depth; ++i) {
    queue.push(static_cast<sim::Time>(rng.uniform_u64(1u << 30)), [] {});
  }
  for (auto _ : state) {
    auto fired = queue.pop();
    benchmark::DoNotOptimize(fired.t);
    queue.push(fired.t + static_cast<sim::Time>(rng.uniform_u64(1000)),
               [] {});
  }
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(100000);

void BM_EventQueueCancel(benchmark::State& state) {
  sim::EventQueue queue;
  for (auto _ : state) {
    auto id = queue.push(1000, [] {});
    queue.cancel(id);
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_ObsCounterAdd(benchmark::State& state) {
  // A resolved registry handle: the steady-state cost once a daemon has
  // cached its Counter* at construction.
  obs::Observability obs;
  obs::Counter* counter =
      obs.metrics.counter(obs::Protocol::kNet, "tx_messages", 3);
  for (auto _ : state) {
    counter->add();
    benchmark::DoNotOptimize(counter->value);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsTracerDisabledRecord(benchmark::State& state) {
  // Every instrumented site pays this when tracing is off (the default).
  obs::Observability obs;
  for (auto _ : state) {
    obs.tracer.record(obs::TraceKind::kDeltaEmit, 3, 0, 1, 2, 3);
    benchmark::DoNotOptimize(obs.tracer.recorded());
  }
}
BENCHMARK(BM_ObsTracerDisabledRecord);

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
