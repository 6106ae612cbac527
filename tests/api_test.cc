#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "api/mclient.h"
#include "api/mservice.h"
#include "net/builders.h"

namespace tamp::api {
namespace {

constexpr char kPaperConfig[] = R"(
*SYSTEM
SHM_KEY = 999
MAX_TTL = 4
MCAST_ADDR = 239.255.0.2
MCAST_PORT = 10050
MCAST_FREQ = 1
MAX_LOSS = 5

*SERVICE
[HTTP]
    PARTITION = 0
    Port = 8080
[Cache]
    PARTITION = 2
)";

TEST(Config, ParsesPaperExample) {
  std::string error;
  auto config = parse_config(kPaperConfig, &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->system.shm_key, 999);
  EXPECT_EQ(config->system.max_ttl, 4);
  EXPECT_EQ(config->system.mcast_addr, "239.255.0.2");
  EXPECT_EQ(config->system.mcast_port, 10050);
  EXPECT_DOUBLE_EQ(config->system.mcast_freq, 1.0);
  EXPECT_EQ(config->system.max_loss, 5);
  ASSERT_EQ(config->services.size(), 2u);
  EXPECT_EQ(config->services[0].name, "HTTP");
  EXPECT_EQ(config->services[0].partition_spec, "0");
  EXPECT_EQ(config->services[0].params.at("Port"), "8080");
  EXPECT_EQ(config->services[1].name, "Cache");
  EXPECT_EQ(config->services[1].partition_spec, "2");
}

TEST(Config, EmptyTextYieldsDefaults) {
  auto config = parse_config("");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->system.shm_key, 999);
  EXPECT_TRUE(config->services.empty());
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  auto config = parse_config("# hello\n\n*SYSTEM\n; note\nMAX_TTL = 2\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->system.max_ttl, 2);
}

TEST(Config, RejectsUnknownSection) {
  std::string error;
  EXPECT_FALSE(parse_config("*BOGUS\nA = 1\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(Config, RejectsUnknownSystemKey) {
  std::string error;
  EXPECT_FALSE(parse_config("*SYSTEM\nWAT = 1\n", &error).has_value());
}

TEST(Config, RejectsNonNumericValue) {
  std::string error;
  EXPECT_FALSE(parse_config("*SYSTEM\nMAX_TTL = lots\n", &error).has_value());
}

TEST(Config, RejectsKeyOutsideSection) {
  std::string error;
  EXPECT_FALSE(parse_config("MAX_TTL = 4\n", &error).has_value());
}

TEST(Config, RejectsServiceKeyBeforeHeader) {
  std::string error;
  EXPECT_FALSE(
      parse_config("*SERVICE\nPARTITION = 1\n", &error).has_value());
}

TEST(Config, McastAddrMapsToStableChannel) {
  EXPECT_EQ(channel_for_mcast_addr("239.255.0.2"),
            channel_for_mcast_addr("239.255.0.2"));
  EXPECT_NE(channel_for_mcast_addr("239.255.0.2"),
            channel_for_mcast_addr("239.255.0.3"));
}

struct ApiFixture : public ::testing::Test {
  sim::Simulation sim{51};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  DirectoryStore store;
  std::vector<std::unique_ptr<MService>> services;

  void build(int racks, int hosts_per_rack) {
    net::RackedClusterParams params;
    params.racks = racks;
    params.hosts_per_rack = hosts_per_rack;
    layout = net::build_racked_cluster(topo, params);
    net = std::make_unique<net::Network>(sim, topo);
    for (net::HostId host : layout.hosts) {
      services.push_back(
          std::make_unique<MService>(sim, *net, store, host, kPaperConfig));
      EXPECT_TRUE(services.back()->config_error().empty());
      EXPECT_EQ(services.back()->run(), 0);
    }
  }
};

TEST_F(ApiFixture, FullStackConvergesAndClientSeesServices) {
  build(2, 4);
  sim.run_until(15 * sim::kSecond);

  MClient client(store, layout.hosts[0], 999);
  ASSERT_TRUE(client.attached());

  MachineList machines;
  // Every node registered HTTP partition 0 from the shared config file.
  int count = client.lookup_service("HTTP", "0", &machines);
  EXPECT_EQ(count, 8);
  ASSERT_EQ(machines.size(), 8u);

  // Attributes include the service parameters from the config file.
  bool port_found = false;
  for (const auto& [key, value] : machines[0]) {
    if (key == "service.HTTP.Port" && value == "8080") port_found = true;
  }
  EXPECT_TRUE(port_found);

  // Regex + partition spec work through the client API too.
  EXPECT_EQ(client.lookup_service("(HTTP|Cache)", "2", nullptr), 8);
  EXPECT_EQ(client.lookup_service("Cache", "0-1", nullptr), 0);
}

TEST_F(ApiFixture, UpdateValuePropagates) {
  build(2, 3);
  sim.run_until(15 * sim::kSecond);
  services[0]->update_value("load", "0.42");
  sim.run_until(sim.now() + 5 * sim::kSecond);

  MClient client(store, layout.hosts[5], 999);
  MachineList machines;
  client.lookup_service("HTTP", "*", &machines);
  bool seen = false;
  for (const auto& machine : machines) {
    for (const auto& [key, value] : machine) {
      if (key == "load" && value == "0.42") seen = true;
    }
  }
  EXPECT_TRUE(seen);

  services[0]->delete_value("load");
  sim.run_until(sim.now() + 5 * sim::kSecond);
  machines.clear();
  client.lookup_service("HTTP", "*", &machines);
  for (const auto& machine : machines) {
    for (const auto& [key, value] : machine) {
      EXPECT_FALSE(key == "load" && value == "0.42");
    }
  }
}

TEST_F(ApiFixture, RegisterServiceAtRuntime) {
  build(1, 4);
  sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(services[2]->register_service("Retriever", "1-3"), 0);
  // A malformed spec registers nothing, even a range past the id bound.
  EXPECT_EQ(services[2]->register_service("Broken", "2-x"), -1);
  EXPECT_EQ(services[2]->register_service("Huge", "0-4000000000"), -1);
  sim.run_until(sim.now() + 5 * sim::kSecond);

  MClient client(store, layout.hosts[0], 999);
  MachineList machines;
  EXPECT_EQ(client.lookup_service("Retriever", "2", &machines), 1);
  EXPECT_EQ(client.lookup_service("Broken|Huge", "*", nullptr), 0);
}

TEST_F(ApiFixture, ShutdownWithdrawsSegment) {
  build(1, 3);
  sim.run_until(8 * sim::kSecond);
  MClient client(store, layout.hosts[0], 999);
  EXPECT_TRUE(client.attached());
  services[0]->shutdown();
  EXPECT_FALSE(client.attached());
  EXPECT_EQ(client.lookup_service("HTTP", "*", nullptr), -1);
}

TEST_F(ApiFixture, ControlAdjustsDaemonParameters) {
  net::ClusterLayout small = net::build_single_segment(topo, 2);
  net = std::make_unique<net::Network>(sim, topo);
  MService service(sim, *net, store, small.hosts[0], kPaperConfig);
  EXPECT_TRUE(service.control(SetFrequencyRequest{2.0}).status.ok());
  EXPECT_TRUE(service.control(SetMaxLossRequest{3}).status.ok());
  ControlResponse ttl_response = service.control(SetMaxTtlRequest{2});
  EXPECT_TRUE(ttl_response.status.ok());
  ASSERT_EQ(service.run(), 0);
  EXPECT_EQ(service.daemon().config().period, sim::kSecond / 2);
  EXPECT_EQ(service.daemon().config().max_losses, 3);
  EXPECT_EQ(service.daemon().config().max_ttl, 2);
  EXPECT_EQ(service.run(), -1);  // double run rejected
}

TEST_F(ApiFixture, ControlRejectsBadValuesAndLateChanges) {
  net::ClusterLayout small = net::build_single_segment(topo, 2);
  net = std::make_unique<net::Network>(sim, topo);
  MService service(sim, *net, store, small.hosts[0], kPaperConfig);

  // Invalid values come back as Status errors instead of asserting, and
  // leave the configuration untouched.
  EXPECT_FALSE(service.control(SetFrequencyRequest{-1.0}).status.ok());
  EXPECT_FALSE(service.control(SetMaxTtlRequest{0}).status.ok());
  EXPECT_FALSE(service.control(SetMaxLossRequest{0}).status.ok());
  EXPECT_DOUBLE_EQ(service.config().system.mcast_freq, 1.0);
  EXPECT_EQ(service.config().system.max_ttl, 4);

  // Queries before run() are rejected too, with nothing filled.
  ControlResponse early = service.control(LeadershipQuery{});
  EXPECT_FALSE(early.status.ok());
  EXPECT_NE(early.status.message().find("LeadershipQuery requires run()"),
            std::string::npos)
      << early.status.message();
  EXPECT_TRUE(early.leadership.empty());

  ASSERT_EQ(service.run(), 0);
  // Parameter changes after run() are rejected, not applied.
  EXPECT_FALSE(service.control(SetFrequencyRequest{2.0}).status.ok());
  EXPECT_EQ(service.daemon().config().period, sim::kSecond);
}

// SetFrequencyRequest is validated by the same check as the file.
TEST_F(ApiFixture, ControlRejectsNonFiniteFrequency) {
  net::ClusterLayout small = net::build_single_segment(topo, 2);
  net = std::make_unique<net::Network>(sim, topo);
  MService service(sim, *net, store, small.hosts[0], kPaperConfig);
  for (double hz : {std::nan(""), std::numeric_limits<double>::infinity(),
                    1e12}) {
    EXPECT_FALSE(service.control(SetFrequencyRequest{hz}).status.ok()) << hz;
  }
  EXPECT_DOUBLE_EQ(service.config().system.mcast_freq, 1.0);
  ASSERT_EQ(service.run(), 0);
  EXPECT_EQ(service.daemon().config().period, sim::kSecond);
}

TEST_F(ApiFixture, LeadershipQueryReportsEpochsAndIncarnation) {
  build(1, 4);
  sim.run_until(15 * sim::kSecond);

  bool leader_seen = false;
  for (auto& service : services) {
    ControlResponse response = service->control(LeadershipQuery{});
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_GE(response.incarnation, 1u);
    ASSERT_EQ(response.leadership.size(), 4u);
    const LeadershipInfo& level0 = response.leadership[0];
    EXPECT_EQ(level0.level, 0);
    EXPECT_TRUE(level0.joined);
    EXPECT_NE(level0.leader, membership::kInvalidNode);
    if (level0.is_leader) {
      leader_seen = true;
      // A node that led an election minted at least epoch 1.
      EXPECT_GE(level0.epoch, 1u);
    }
  }
  EXPECT_TRUE(leader_seen);
}

TEST(ConfigValidate, AcceptsAValidAggregate) {
  MembershipConfig config;
  config.system.mcast_addr = "239.255.0.7";
  config.system.mcast_freq = 2.0;
  config.system.max_ttl = 3;
  config.system.max_loss = 4;
  config.services.push_back({"HTTP", "0", {{"Port", "8080"}}});
  Status status = validate(config);
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_TRUE(validate(MembershipConfig{}).ok());
}

TEST(ConfigValidate, RejectsOutOfRangeValues) {
  auto rejects = [](auto mutate) {
    MembershipConfig config;
    mutate(config);
    return !validate(config).ok();
  };
  EXPECT_TRUE(rejects([](MembershipConfig& c) { c.system.max_ttl = 0; }));
  EXPECT_TRUE(rejects([](MembershipConfig& c) { c.system.max_ttl = 251; }));
  EXPECT_TRUE(rejects([](MembershipConfig& c) { c.system.mcast_freq = 0; }));
  EXPECT_TRUE(rejects([](MembershipConfig& c) { c.system.max_loss = 0; }));
  EXPECT_TRUE(
      rejects([](MembershipConfig& c) { c.system.mcast_port = 65535; }));
  EXPECT_TRUE(rejects([](MembershipConfig& c) { c.system.mcast_addr = ""; }));
  EXPECT_TRUE(rejects(
      [](MembershipConfig& c) { c.services.push_back({"S", "4-2", {}}); }));
  EXPECT_TRUE(rejects(
      [](MembershipConfig& c) { c.services.push_back({"", "0", {}}); }));
}

// A heartbeat rate must give a usable period: NaN, infinities and rates
// outside [0.001, 1000] Hz would otherwise yield periods of INT64_MIN or 0.
TEST(ConfigValidate, RejectsNonFiniteAndOutOfBandFrequency) {
  MembershipConfig config;
  for (double hz : {std::nan(""), std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity(), 1e12, 1000.5,
                    0.0009}) {
    config.system.mcast_freq = hz;
    EXPECT_FALSE(validate(config).ok()) << hz;
  }
  for (double hz : {0.001, 1000.0}) {
    config.system.mcast_freq = hz;
    EXPECT_TRUE(validate(config).ok()) << hz;
  }
}

TEST(Config, RejectsNonFiniteAndOutOfBandFrequencyText) {
  for (const char* value : {"nan", "inf", "-inf", "1e12", "0.0001"}) {
    std::string error;
    EXPECT_FALSE(
        parse_config(std::string("*SYSTEM\nMCAST_FREQ = ") + value + "\n",
                     &error)
            .has_value())
        << value;
    EXPECT_NE(error.find("MCAST_FREQ"), std::string::npos) << error;
  }
  EXPECT_TRUE(parse_config("*SYSTEM\nMCAST_FREQ = 1000\n").has_value());
}

// 4294967297 == 2^32 + 1 used to be truncated to 1 on its way into an int.
TEST(Config, RejectsIntegersThatDoNotFitInt) {
  for (const char* line :
       {"MAX_LOSS = 4294967297", "MAX_TTL = 2147483648",
        "MCAST_PORT = -2147483649", "SHM_KEY = 9223372036854775807"}) {
    std::string error;
    EXPECT_FALSE(
        parse_config(std::string("*SYSTEM\n") + line + "\n", &error)
            .has_value())
        << line;
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  }
  auto config = parse_config("*SYSTEM\nSHM_KEY = 2147483647\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->system.shm_key, 2147483647);
}

// Digest rounds are the only periodic anti-entropy, so the keys that once
// chose and tuned a mode are gone: a file still naming one fails like any
// other unknown key.
TEST(Config, RetiredAntiEntropyKeysAreUnknown) {
  for (const char* key : {"ANTI_ENTROPY_MODE = digest", "DIGEST_INTERVAL = 20",
                          "DIGEST_MAX_ROWS_PER_DELTA = 32"}) {
    std::string error;
    EXPECT_FALSE(
        parse_config(std::string("*SYSTEM\n") + key + "\n", &error)
            .has_value())
        << key;
    EXPECT_NE(error.find("unknown *SYSTEM key"), std::string::npos)
        << key << ": " << error;
  }
}

TEST(ApiStandalone, ValidatedConfigConstructsServiceDirectly) {
  sim::Simulation sim(7);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  DirectoryStore store;

  auto config = parse_config(kPaperConfig);
  ASSERT_TRUE(config.has_value());
  config->system.shm_key = 1234;
  MService service(sim, net, store, layout.hosts[0], std::move(*config));
  EXPECT_TRUE(service.config_error().empty());
  EXPECT_EQ(service.shm_key(), 1234);
  EXPECT_EQ(service.run(), 0);
  MClient client(store, layout.hosts[0], 1234);
  EXPECT_TRUE(client.attached());
}

// --- the application-traffic query ------------------------------------------

struct TrafficQueryFixture : public ::testing::Test {
  sim::Simulation sim{91};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  DirectoryStore store;
  std::unique_ptr<MService> service;

  void SetUp() override {
    layout = net::build_single_segment(topo, 2);
    net = std::make_unique<net::Network>(sim, topo);
    service = std::make_unique<MService>(sim, *net, store, layout.hosts[0],
                                         kPaperConfig);
  }

  // Stand in for a workload driver having run on this node: SloQuery reads
  // the registry, so seeding it directly gives exact expectations.
  void seed_workload_metrics() {
    obs::MetricsRegistry& metrics = net->obs().metrics;
    const net::HostId self = layout.hosts[0];
    metrics.counter(obs::Protocol::kWorkload, "requests_issued", self)
        ->add(120);
    metrics.counter(obs::Protocol::kWorkload, "requests_ok", self)->add(110);
    metrics.counter(obs::Protocol::kWorkload, "requests_failed", self)
        ->add(10);
    metrics.counter(obs::Protocol::kWorkload, "request_attempts", self)
        ->add(140);
    metrics.counter(obs::Protocol::kWorkload, "misroutes", self)->add(7);
    metrics.counter(obs::Protocol::kWorkload, "proxy_fallbacks", self)
        ->add(3);
  }
};

// The workload counters come back in SloQuery's WorkloadStats.
TEST_F(TrafficQueryFixture, WorkloadQueryRoundTrip) {
  ASSERT_EQ(service->run(), 0);
  seed_workload_metrics();
  // A neighbor's counters must not bleed into this node's answer.
  net->obs()
      .metrics.counter(obs::Protocol::kWorkload, "requests_issued",
                       layout.hosts[1])
      ->add(999);

  ControlResponse response = service->control(SloQuery{});
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.workload.requests_issued, 120u);
  EXPECT_EQ(response.workload.requests_ok, 110u);
  EXPECT_EQ(response.workload.requests_failed, 10u);
  EXPECT_EQ(response.workload.request_attempts, 140u);
  EXPECT_EQ(response.workload.misroutes, 7u);
  EXPECT_EQ(response.workload.proxy_fallbacks, 3u);
}

TEST_F(TrafficQueryFixture, SloQueryReportsLatencyDistribution) {
  ASSERT_EQ(service->run(), 0);
  seed_workload_metrics();
  obs::Histogram* latency = net->obs().metrics.histogram(
      obs::Protocol::kWorkload, "latency_ns", layout.hosts[0]);
  for (int ms = 1; ms <= 100; ++ms) latency->observe(ms * 1e6);
  // A neighbor's samples must not bleed into this node's distribution.
  net->obs()
      .metrics.histogram(obs::Protocol::kWorkload, "latency_ns",
                         layout.hosts[1])
      ->observe(5e9);

  ControlResponse response = service->control(SloQuery{});
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.workload.requests_issued, 120u);
  EXPECT_EQ(response.slo.latency_samples, 100u);
  EXPECT_GT(response.slo.p50_ns, 40 * 1000000ll);
  EXPECT_LT(response.slo.p50_ns, 60 * 1000000ll);
  EXPECT_LE(response.slo.p50_ns, response.slo.p99_ns);
  EXPECT_LE(response.slo.p99_ns, response.slo.p999_ns);
  EXPECT_EQ(response.slo.max_ns, 100 * 1000000ll);
}

TEST_F(TrafficQueryFixture, SloQueryWithoutSamplesReportsEmptySentinels) {
  ASSERT_EQ(service->run(), 0);
  ControlResponse response = service->control(SloQuery{});
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.slo.latency_samples, 0u);
  EXPECT_EQ(response.slo.p50_ns, -1);
  EXPECT_EQ(response.slo.p999_ns, -1);
}

// Requests carry no version stamp, so the run() gate is the one left.
TEST_F(TrafficQueryFixture, TrafficQueriesGateOnVersionAndRun) {
  // Before run(): refused, nothing filled.
  seed_workload_metrics();
  ControlResponse refused = service->control(SloQuery{});
  EXPECT_FALSE(refused.status.ok());
  EXPECT_NE(refused.status.message().find("SloQuery requires run()"),
            std::string::npos)
      << refused.status.message();
  EXPECT_EQ(refused.workload.requests_issued, 0u);
  EXPECT_EQ(refused.slo.latency_samples, 0u);

  ASSERT_EQ(service->run(), 0);
  ControlResponse response = service->control(SloQuery{});
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.workload.requests_issued, 120u);
}

TEST(ApiStandalone, MalformedConfigFallsBackToDefaults) {
  sim::Simulation sim(1);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  DirectoryStore store;
  MService service(sim, net, store, layout.hosts[0], "*SYSTEM\nMAX_TTL=oops");
  EXPECT_FALSE(service.config_error().empty());
  EXPECT_EQ(service.config().system.max_ttl, 4);  // default kept
  EXPECT_EQ(service.run(), 0);
}

// A file that parses but breaks a range rule gets the same fallback as a
// syntax error: the constructor validates, so no value the rules refuse
// reaches the daemon.
TEST(ApiStandalone, OutOfRangeConfigFallsBackToDefaults) {
  struct Case {
    const char* text;
    const char* key;
  };
  for (const Case& c :
       {Case{"*SYSTEM\nMAX_TTL = 0\n", "MAX_TTL"},
        Case{"*SYSTEM\nMAX_TTL = 251\n", "MAX_TTL"},
        Case{"*SYSTEM\nMAX_LOSS = 0\n", "MAX_LOSS"},
        Case{"*SYSTEM\nMCAST_PORT = 70000\n", "MCAST_PORT"},
        Case{"*SERVICE\n[HTTP]\nPARTITION = 2-x\n", "PARTITION"}}) {
    sim::Simulation sim(1);
    net::Topology topo;
    auto layout = net::build_single_segment(topo, 2);
    net::Network net(sim, topo);
    DirectoryStore store;
    MService service(sim, net, store, layout.hosts[0], c.text);
    EXPECT_NE(service.config_error().find(c.key), std::string::npos)
        << c.text << ": " << service.config_error();
    EXPECT_EQ(service.config().system.max_ttl, 4) << c.text;
    EXPECT_EQ(service.config().system.max_loss, 5) << c.text;
    EXPECT_EQ(service.config().system.mcast_port, 10050) << c.text;
    EXPECT_TRUE(service.config().services.empty()) << c.text;
    ASSERT_EQ(service.run(), 0) << c.text;
    EXPECT_EQ(service.daemon().config().max_ttl, 4) << c.text;
  }

  // The aggregate constructor runs the same check.
  sim::Simulation sim(1);
  net::Topology topo;
  auto layout = net::build_single_segment(topo, 2);
  net::Network net(sim, topo);
  DirectoryStore store;
  MembershipConfig bad;
  bad.system.max_ttl = 0;
  bad.system.shm_key = 1234;
  MService service(sim, net, store, layout.hosts[0], std::move(bad));
  EXPECT_NE(service.config_error().find("MAX_TTL"), std::string::npos)
      << service.config_error();
  EXPECT_EQ(service.shm_key(), 999);  // defaults, not half the aggregate
  ASSERT_EQ(service.run(), 0);
  EXPECT_EQ(service.daemon().config().max_ttl, 4);
}

}  // namespace
}  // namespace tamp::api
