// Google-benchmark pair for the hotpath gate: the observability work the
// transport adds to every send, and the full instrumented send it rides on.
// tools/gate.py hotpath fails CI if the first costs more than 5% of the
// second. BM_TableApplyRefresh times the directory lookup every received
// heartbeat pays, BM_TableAbsorbImage the inserts of a bootstrap image
// absorbed row by row, and BM_EventLoop the event queue alone on a
// slo-36-shaped timer load; no gate reads these three. perfbench's
// per-layer ledger covers the other hot paths (the codec among them) on
// whole workloads.
#include <benchmark/benchmark.h>

#include <cstdint>
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

// The event loop shaped like slo-36, whose scenarios peak near 1,000
// pending events: 1,024 pending failure-suspicion timers 2-3 s out, and 32
// message chains in which each delivery pushes one near-term follow-up
// (50 us to 1 ms). Every fifth delivery re-arms a random timer, cancelling
// the old one, so 1 push in 6 (17%) is cancelled before it fires. A timer
// is re-armed every 0.08 s of virtual time on average, so every event run
// is a delivery.
class EventLoopKernel {
 public:
  explicit EventLoopKernel(sim::Simulation& sim)
      : sim_(sim), timers_(kTimers) {
    for (int timer = 0; timer < kTimers; ++timer) arm(timer);
    for (int chain = 0; chain < kChains; ++chain) send();
  }

 private:
  static constexpr int kTimers = 1024;
  static constexpr int kChains = 32;

  sim::Duration draw(sim::Duration range) {
    return static_cast<sim::Duration>(
        sim_.rng().uniform_u64(static_cast<uint64_t>(range)));
  }

  void arm(int timer) {
    const sim::Duration timeout = 2 * sim::kSecond + draw(sim::kSecond);
    timers_[timer] =
        sim_.schedule_after(timeout, [this, timer] { arm(timer); });
  }

  void send() {
    sim_.schedule_after(50 * sim::kMicrosecond + draw(950 * sim::kMicrosecond),
                        [this] { deliver(); });
  }

  void deliver() {
    send();
    if (++deliveries_ % 5 == 0) {
      const auto timer = static_cast<int>(sim_.rng().uniform_u64(kTimers));
      sim_.cancel(timers_[timer]);
      arm(timer);
    }
  }

  sim::Simulation& sim_;
  std::vector<sim::EventId> timers_;
  uint64_t deliveries_ = 0;
};

// Items are events run: ns per event is 1e9 / items_per_second.
void BM_EventLoop(benchmark::State& state) {
  sim::Simulation sim(13);
  EventLoopKernel kernel(sim);
  sim.run_until(sim::kSecond);  // settle into the steady mix
  const uint64_t start = sim.events_executed();
  for (auto _ : state) sim.run_until(sim.now() + sim::kMillisecond);
  state.SetItemsProcessed(
      static_cast<int64_t>(sim.events_executed() - start));
}
BENCHMARK(BM_EventLoop);

}  // namespace
}  // namespace tamp

BENCHMARK_MAIN();
