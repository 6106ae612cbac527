// Observability layer tests: the metrics registry and tracer in isolation,
// trace determinism through the chaos scenario runner (same seed =>
// byte-identical JSONL), the conservation identities the runner grades, and
// the observability side of the control surface: MetricsQuery (the digest
// counters included), TraceControl and their bounds, and the run() gate
// every daemon-backed query shares.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "api/mservice.h"
#include "net/builders.h"
#include "obs/obs.h"
#include "sim/scenario.h"

namespace tamp {
namespace {

// --- registry --------------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAcrossReset) {
  obs::MetricsRegistry registry;
  obs::Counter* counter =
      registry.counter(obs::Protocol::kHier, "updates_sent", 7);
  counter->add(3);
  EXPECT_EQ(registry.counter_value(obs::Protocol::kHier, "updates_sent", 7),
            3u);

  registry.reset();
  EXPECT_EQ(registry.counter_value(obs::Protocol::kHier, "updates_sent", 7),
            0u);
  counter->add();  // same handle keeps recording into the same cell
  EXPECT_EQ(registry.counter_value(obs::Protocol::kHier, "updates_sent", 7),
            1u);

  // Resolution is idempotent: same key, same cell.
  EXPECT_EQ(registry.counter(obs::Protocol::kHier, "updates_sent", 7),
            counter);
}

TEST(MetricsRegistry, ResetIsScopedToOneProtocol) {
  obs::MetricsRegistry registry;
  registry.counter(obs::Protocol::kNet, "tx_messages", 1)->add(5);
  registry.counter(obs::Protocol::kHier, "updates_sent", 1)->add(7);
  registry.reset(obs::Protocol::kNet);
  EXPECT_EQ(registry.counter_value(obs::Protocol::kNet, "tx_messages", 1), 0u);
  EXPECT_EQ(registry.counter_value(obs::Protocol::kHier, "updates_sent", 1),
            7u);
}

TEST(MetricsRegistry, AggregationExcludesTheNoNodeCell) {
  obs::MetricsRegistry registry;
  registry.counter(obs::Protocol::kNet, "tx_messages", 1)->add(2);
  registry.counter(obs::Protocol::kNet, "tx_messages", 2)->add(3);
  registry.counter(obs::Protocol::kNet, "tx_messages")->add(5);  // aggregate
  EXPECT_EQ(
      registry.counter_sum_over_nodes(obs::Protocol::kNet, "tx_messages"),
      5u);
  EXPECT_EQ(registry.counter_value(obs::Protocol::kNet, "tx_messages"), 5u);
}

TEST(MetricsRegistry, PrefixSumDecomposesAFamily) {
  obs::MetricsRegistry registry;
  registry.counter(obs::Protocol::kNet, "tx_kind_heartbeat")->add(4);
  registry.counter(obs::Protocol::kNet, "tx_kind_update")->add(6);
  registry.counter(obs::Protocol::kNet, "tx_messages")->add(10);
  EXPECT_EQ(registry.counter_prefix_sum(obs::Protocol::kNet, "tx_kind_"),
            10u);
}

TEST(MetricsRegistry, VisitIsSortedAndIncludesZeroCells) {
  obs::MetricsRegistry registry;
  registry.counter(obs::Protocol::kHier, "b_metric", 2);
  registry.counter(obs::Protocol::kHier, "a_metric", 1)->add(1);
  registry.counter(obs::Protocol::kNet, "z_metric", 0);

  std::vector<std::string> order;
  registry.visit_counters([&](const obs::MetricsRegistry::CounterRow& row) {
    order.push_back(std::string(obs::protocol_name(row.protocol)) + "/" +
                    std::string(row.name));
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "net/z_metric");  // kNet sorts before kHier
  EXPECT_EQ(order[1], "hier/a_metric");
  EXPECT_EQ(order[2], "hier/b_metric");
}

// --- tracer ----------------------------------------------------------------

TEST(Tracer, DisabledByDefaultRecordsNothing) {
  obs::Tracer tracer;
  tracer.record(obs::TraceKind::kDeltaEmit, 1, 100);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, KindsMaskFiltersAtRecordTime) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_kinds_mask(obs::trace_bit(obs::TraceKind::kEpochMint));
  tracer.record(obs::TraceKind::kEpochMint, 1, 100, 0, 42);
  tracer.record(obs::TraceKind::kDeltaEmit, 1, 100);
  ASSERT_EQ(tracer.recorded(), 1u);
  EXPECT_EQ(tracer.events().front().kind, obs::TraceKind::kEpochMint);
  EXPECT_EQ(tracer.events().front().a, 42u);
}

TEST(Tracer, RingEvictsOldestBeyondCapacity) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_capacity(4);
  for (int i = 0; i < 6; ++i) {
    tracer.record(obs::TraceKind::kFault, obs::kNoNode, i);
  }
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.overwritten(), 2u);
  ASSERT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.events().front().at, 2);  // the two oldest were evicted
}

TEST(Tracer, JsonlIsOneEventPerLine) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(obs::TraceKind::kCoordinator, 5, 1000, 2, 9, 0);
  tracer.record(obs::TraceKind::kFault, obs::kNoNode, 2000);
  std::string jsonl = tracer.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"coordinator\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"node\":-1"), std::string::npos);  // kNoNode
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

// --- trace determinism through the scenario runner ------------------------

chaos::ScenarioSpec traced_spec(uint64_t seed) {
  chaos::ScenarioSpec spec;
  spec.scheme = protocols::Scheme::kHierarchical;
  spec.shape = chaos::ShapeKind::kRacked;
  spec.plan = chaos::PlanKind::kLeaderKill;
  spec.seed = seed;
  spec.trace = true;
  spec.metrics = true;
  return spec;
}

TEST(TraceDeterminism, SameSeedRunsProduceByteIdenticalArtifacts) {
  chaos::ScenarioResult first = chaos::run_scenario(traced_spec(3));
  chaos::ScenarioResult second = chaos::run_scenario(traced_spec(3));
  ASSERT_TRUE(first.passed) << first.report;
  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
  ASSERT_FALSE(first.metrics_json.empty());
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  chaos::ScenarioResult a = chaos::run_scenario(traced_spec(3));
  chaos::ScenarioResult b = chaos::run_scenario(traced_spec(4));
  EXPECT_NE(a.trace_jsonl, b.trace_jsonl);
}

TEST(TraceDeterminism, KindsMaskRestrictsTheArtifact) {
  chaos::ScenarioSpec spec = traced_spec(3);
  spec.trace_kinds_mask = obs::trace_bit(obs::TraceKind::kFault);
  chaos::ScenarioResult result = chaos::run_scenario(spec);
  ASSERT_FALSE(result.trace_jsonl.empty());
  EXPECT_EQ(result.trace_jsonl.find("\"kind\":\"delta_emit\""),
            std::string::npos);
  EXPECT_NE(result.trace_jsonl.find("\"kind\":\"fault\""), std::string::npos);
}

// The runner grades the registry's conservation identities on every run
// (per-host sums vs totals, per-kind decomposition, protocol-vs-transport
// send counts); a passing scenario certifies that no message was counted
// twice or lost from the books. Sweep one plan per scheme here — the full
// matrix in chaos_matrix_test covers the rest.
TEST(MetricsConservation, HoldsAcrossSchemesUnderChaos) {
  for (protocols::Scheme scheme :
       {protocols::Scheme::kAllToAll, protocols::Scheme::kGossip,
        protocols::Scheme::kHierarchical}) {
    chaos::ScenarioSpec spec;
    spec.scheme = scheme;
    spec.shape = chaos::ShapeKind::kRacked;
    spec.plan = chaos::PlanKind::kCrashRestart;
    spec.seed = 2;
    chaos::ScenarioResult result = chaos::run_scenario(spec);
    EXPECT_TRUE(result.passed) << result.name << "\n" << result.report;
    EXPECT_EQ(result.report.find("metrics-conservation"), std::string::npos)
        << result.report;
  }
}

// --- control surface -------------------------------------------------------

class ControlObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    layout = net::build_single_segment(topo, 4);
    net = std::make_unique<net::Network>(sim, topo);
    service = std::make_unique<api::MService>(
        sim, *net, store, layout.hosts[0], api::MembershipConfig{});
  }

  sim::Simulation sim{17};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  api::DirectoryStore store;
  std::unique_ptr<api::MService> service;
};

TEST_F(ControlObsFixture, MetricsQueryRoundTrip) {
  ASSERT_EQ(service->run(), 0);
  sim.run_until(10 * sim::kSecond);

  api::ControlResponse response = service->control(api::MetricsQuery{});
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  ASSERT_FALSE(response.metrics.empty());
  // Sorted by name, and consistent with the registry's own cells.
  for (size_t i = 1; i < response.metrics.size(); ++i) {
    EXPECT_LT(response.metrics[i - 1].name, response.metrics[i].name);
  }
  bool heartbeats_seen = false;
  for (const api::MetricValue& metric : response.metrics) {
    EXPECT_EQ(metric.value,
              net->obs().metrics.counter_value(obs::Protocol::kHier,
                                               metric.name, layout.hosts[0]));
    if (metric.name == "heartbeats_sent") {
      heartbeats_seen = true;
      EXPECT_GT(metric.value, 0u);
    }
  }
  EXPECT_TRUE(heartbeats_seen);
  // Nothing is cut: the answer holds every hier counter the registry keeps
  // for this node.
  size_t registered = 0;
  net->obs().metrics.visit_counters(
      [&](const obs::MetricsRegistry::CounterRow& row) {
        if (row.protocol == obs::Protocol::kHier &&
            row.node == layout.hosts[0]) {
          ++registered;
        }
      });
  EXPECT_EQ(response.metrics.size(), registered);

  // The substring filter narrows the response.
  api::MetricsQuery filtered;
  filtered.name_filter = "heartbeats";
  api::ControlResponse narrowed = service->control(filtered);
  ASSERT_TRUE(narrowed.status.ok());
  ASSERT_FALSE(narrowed.metrics.empty());
  EXPECT_LT(narrowed.metrics.size(), response.metrics.size());
  for (const api::MetricValue& metric : narrowed.metrics) {
    EXPECT_NE(metric.name.find("heartbeats"), std::string::npos);
  }
}

TEST_F(ControlObsFixture, MalformedObservabilityRequestsAreRejected) {
  ASSERT_EQ(service->run(), 0);
  api::MetricsQuery oversized;
  oversized.name_filter.assign(257, 'x');
  EXPECT_FALSE(service->control(oversized).status.ok());

  api::TraceControl zero_ring;
  zero_ring.capacity = 0;
  EXPECT_FALSE(service->control(zero_ring).status.ok());
  api::TraceControl giant_ring;
  giant_ring.capacity = api::kMaxTraceCapacity + 1;
  EXPECT_FALSE(service->control(giant_ring).status.ok());
  api::TraceControl unknown_kinds;
  unknown_kinds.kinds_mask = obs::kAllTraceKinds | (obs::kAllTraceKinds + 1);
  EXPECT_FALSE(service->control(unknown_kinds).status.ok());
}

TEST_F(ControlObsFixture, MetricsQueryRequiresRunningDaemon) {
  EXPECT_FALSE(service->control(api::MetricsQuery{}).status.ok());
}

// The anti-entropy counters are read through MetricsQuery; requests carry no
// version stamp, so the run() gate is the one left to check.
TEST_F(ControlObsFixture, AntiEntropyQueryVersionAndRunGates) {
  api::MetricsQuery digests;
  digests.name_filter = "digest";

  // Before run(): refused like every daemon-backed query, nothing filled.
  api::ControlResponse refused = service->control(digests);
  EXPECT_FALSE(refused.status.ok());
  EXPECT_NE(refused.status.message().find("MetricsQuery requires run()"),
            std::string::npos)
      << refused.status.message();
  EXPECT_TRUE(refused.metrics.empty());

  ASSERT_EQ(service->run(), 0);
  sim.run_until(70 * sim::kSecond);  // digests sent, so counters are non-zero
  api::ControlResponse response = service->control(digests);
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  auto sent = std::find_if(
      response.metrics.begin(), response.metrics.end(),
      [](const api::MetricValue& metric) {
        return metric.name == "digests_sent";
      });
  ASSERT_NE(sent, response.metrics.end());
  EXPECT_GT(sent->value, 0u);
}

TEST_F(ControlObsFixture, MetricsQueryReportsDigestCounters) {
  ASSERT_EQ(service->run(), 0);
  sim.run_until(70 * sim::kSecond);  // past at least one refresh interval

  // The lone leader on its channel has sent at least one digest round.
  ASSERT_GT(net->obs().metrics.counter_value(obs::Protocol::kHier,
                                             "digests_sent", layout.hosts[0]),
            0u);
  // Unfiltered: every digest-round counter is there and agrees with the
  // registry.
  api::ControlResponse response = service->control(api::MetricsQuery{});
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  for (const char* name :
       {"digests_sent", "digest_pulls_sent", "digest_pulls_served",
        "deltas_sent", "delta_rows_shipped", "digest_rows_suppressed",
        "digest_full_fallbacks"}) {
    auto it = std::find_if(
        response.metrics.begin(), response.metrics.end(),
        [&](const api::MetricValue& metric) { return metric.name == name; });
    ASSERT_NE(it, response.metrics.end()) << name;
    EXPECT_EQ(it->value, net->obs().metrics.counter_value(
                             obs::Protocol::kHier, name, layout.hosts[0]))
        << name;
  }
}

TEST_F(ControlObsFixture, TraceControlDrivesTheNetworkTracer) {
  // Works before run(): the tracer lives on the Network.
  api::TraceControl control;
  control.capacity = 1024;
  control.kinds_mask = obs::trace_bit(obs::TraceKind::kGroupJoin);
  ASSERT_TRUE(service->control(control).status.ok());
  EXPECT_TRUE(net->obs().tracer.enabled());
  EXPECT_EQ(net->obs().tracer.capacity(), 1024u);

  // run() leaves the tracer as the control set it.
  ASSERT_EQ(service->run(), 0);
  EXPECT_EQ(net->obs().tracer.capacity(), 1024u);
  EXPECT_EQ(net->obs().tracer.kinds_mask(),
            obs::trace_bit(obs::TraceKind::kGroupJoin));
  sim.run_until(5 * sim::kSecond);
  EXPECT_GT(net->obs().tracer.recorded(), 0u);
  for (const obs::TraceEvent& event : net->obs().tracer.events()) {
    EXPECT_EQ(event.kind, obs::TraceKind::kGroupJoin);
  }

  api::TraceControl off;
  off.enable = false;
  ASSERT_TRUE(service->control(off).status.ok());
  EXPECT_FALSE(net->obs().tracer.enabled());
}

}  // namespace
}  // namespace tamp
