// Edge cases of the Neptune consumer module's invocation state machine:
// polling behavior, retry ordering, callback-exactly-once, and timeout
// boundaries.
#include <gtest/gtest.h>

#include "net/builders.h"
#include "protocols/cluster.h"
#include "proxy/proxy.h"
#include "service/consumer.h"
#include "service/messages.h"
#include "service/provider.h"

namespace tamp::service {
namespace {

struct ConsumerEdgeFixture : public ::testing::Test {
  sim::Simulation sim{111};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<protocols::Cluster> cluster;
  std::vector<std::unique_ptr<ServiceProvider>> providers;

  void build(int hosts,
             protocols::Scheme scheme = protocols::Scheme::kHierarchical,
             bool start = true) {
    layout = net::build_single_segment(topo, hosts);
    net = std::make_unique<net::Network>(sim, topo);
    protocols::Cluster::Options opts;
    opts.scheme = scheme;
    opts.hier.max_ttl = 1;
    cluster = std::make_unique<protocols::Cluster>(sim, *net, layout.hosts,
                                                   opts);
    if (start) cluster->start_all();
  }

  ServiceProvider& add_provider(size_t index, const std::string& service,
                                int partition) {
    providers.push_back(
        std::make_unique<ServiceProvider>(sim, *net, cluster->daemon(index)));
    providers.back()->host_service(service, {partition});
    providers.back()->start();
    return *providers.back();
  }
};

TEST_F(ConsumerEdgeFixture, CallbackFiresExactlyOnceOnSuccess) {
  build(4);
  add_provider(1, "svc", 0);
  add_provider(2, "svc", 0);
  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  int calls = 0;
  consumer.invoke("svc", 0, 10, 10, [&](const InvokeResult&) { ++calls; });
  sim.run_until(sim.now() + 5 * sim::kSecond);
  EXPECT_EQ(calls, 1);
}

TEST_F(ConsumerEdgeFixture, CallbackFiresExactlyOnceOnFailure) {
  build(3);
  ConsumerConfig config;
  config.proxy_fallback = false;
  ServiceConsumer consumer(sim, *net, cluster->daemon(0), config);
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  int calls = 0;
  consumer.invoke("ghost", 0, 10, 10, [&](const InvokeResult&) { ++calls; });
  sim.run_until(sim.now() + 5 * sim::kSecond);
  EXPECT_EQ(calls, 1);
}

TEST_F(ConsumerEdgeFixture, SingleReplicaSkipsPolling) {
  build(3);
  auto& provider = add_provider(1, "solo", 0);
  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  sim::Duration latency = -1;
  consumer.invoke("solo", 0, 10, 10, [&](const InvokeResult& result) {
    ASSERT_TRUE(result.ok());
    latency = result.latency;
  });
  sim.run_until(sim.now() + 2 * sim::kSecond);
  // No 20 ms poll round: straight dispatch + ~10 ms service time.
  EXPECT_GT(latency, 0);
  EXPECT_LT(latency, 150 * sim::kMillisecond);
  EXPECT_EQ(provider.requests_served(), 1u);
}

TEST_F(ConsumerEdgeFixture, PollTimeoutFallsBackToResponders) {
  build(5);
  add_provider(1, "mix", 0);
  add_provider(2, "mix", 0);
  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  // One of the two replicas silently dies (no membership update yet).
  net->set_host_up(layout.hosts[1], false);
  int ok = 0;
  for (int i = 0; i < 8; ++i) {
    consumer.invoke("mix", 0, 10, 10, [&](const InvokeResult& result) {
      if (result.ok()) {
        ++ok;
        EXPECT_EQ(result.server, layout.hosts[2]);
      }
    });
  }
  sim.run_until(sim.now() + 6 * sim::kSecond);
  EXPECT_EQ(ok, 8);
}

TEST_F(ConsumerEdgeFixture, ExhaustedAttemptsReportUnavailable) {
  build(5);
  add_provider(1, "doomed", 0);
  add_provider(2, "doomed", 0);
  add_provider(3, "doomed", 0);
  ConsumerConfig config;
  config.proxy_fallback = false;
  ServiceConsumer consumer(sim, *net, cluster->daemon(0), config);
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  // All replicas die silently.
  for (size_t i : {1, 2, 3}) net->set_host_up(layout.hosts[i], false);
  InvokeResult got;
  bool done = false;
  consumer.invoke("doomed", 0, 10, 10, [&](const InvokeResult& result) {
    got = result;
    done = true;
  });
  sim.run_until(sim.now() + 10 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.cause, FailureCause::kProviderDead);
  EXPECT_EQ(got.attempts, kMaxAttempts);
  // Bounded by attempts x (poll timeout + request timeout).
  EXPECT_LT(got.latency, kMaxAttempts * (kPollTimeout + kRequestTimeout));
}

// Requests go out on the provider and relay ports, so a reply port equal
// to either would make the consumer answer itself.
TEST_F(ConsumerEdgeFixture, ReplyPortCollisionAborts) {
  build(2);
  for (net::Port port : {protocols::kServicePort, kProxyRelayPort}) {
    ConsumerConfig config;
    config.reply_port = port;
    EXPECT_DEATH(
        { ServiceConsumer consumer(sim, *net, cluster->daemon(0), config); },
        "collides with a request port");
  }
}

TEST_F(ConsumerEdgeFixture, ConcurrentInvocationsKeepIdsSeparate) {
  build(4);
  add_provider(1, "a", 0);
  add_provider(2, "b", 0);
  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  int done = 0;
  for (int i = 0; i < 20; ++i) {
    const char* service = (i % 2 == 0) ? "a" : "b";
    net::HostId expected = (i % 2 == 0) ? layout.hosts[1] : layout.hosts[2];
    consumer.invoke(service, 0, 10, 10,
                    [&, expected](const InvokeResult& result) {
                      EXPECT_TRUE(result.ok());
                      EXPECT_EQ(result.server, expected);
                      ++done;
                    });
  }
  sim.run_until(sim.now() + 5 * sim::kSecond);
  EXPECT_EQ(done, 20);
}

TEST_F(ConsumerEdgeFixture, StopCancelsPendingWork) {
  build(3);
  ProviderConfig slow;
  slow.mean_service_time = 2 * sim::kSecond;
  providers.push_back(std::make_unique<ServiceProvider>(
      sim, *net, cluster->daemon(1), slow));
  providers.back()->host_service("slow", {0});
  providers.back()->start();

  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  int calls = 0;
  consumer.invoke("slow", 0, 10, 10, [&](const InvokeResult&) { ++calls; });
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  consumer.stop();
  sim.run_until(sim.now() + 10 * sim::kSecond);
  EXPECT_EQ(calls, 0);  // stopped consumers never fire stale callbacks
}

TEST_F(ConsumerEdgeFixture, ProviderQueueDrainsInOrder) {
  build(3);
  ProviderConfig config;
  config.concurrency = 1;
  config.mean_service_time = 20 * sim::kMillisecond;
  providers.push_back(std::make_unique<ServiceProvider>(
      sim, *net, cluster->daemon(1), config));
  providers.back()->host_service("fifo", {0});
  providers.back()->start();

  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(8 * sim::kSecond);

  int done = 0;
  for (int i = 0; i < 10; ++i) {
    consumer.invoke("fifo", 0, 10, 10, [&](const InvokeResult& result) {
      EXPECT_TRUE(result.ok());
      ++done;
    });
  }
  sim.run_until(sim.now() + 10 * sim::kSecond);
  EXPECT_EQ(done, 10);
  EXPECT_EQ(providers.back()->requests_served(), 10u);
}

// --- directory reads --------------------------------------------------------
//
// The consumer keeps the provider lists it read from the directory until the
// table's rows change (MembershipTable::generation). Each case below fills
// those lists with one invocation, changes the view, and checks that the
// next reads see the change.
struct DirectoryReadFixture : public ConsumerEdgeFixture {
  std::unique_ptr<ServiceConsumer> consumer;

  // Replicas of svc partition 0 on nodes 1 and 2, a consumer on node 0, and
  // one invocation that reads the directory.
  void build_replicas(
      ConsumerConfig config = {},
      protocols::Scheme scheme = protocols::Scheme::kHierarchical) {
    build(4, scheme);
    add_provider(1, "svc", 0);
    add_provider(2, "svc", 0);
    consumer = std::make_unique<ServiceConsumer>(sim, *net,
                                                 cluster->daemon(0), config);
    consumer->start();
    sim.run_until(8 * sim::kSecond);
    ASSERT_TRUE(invoke_and_wait("svc", 0).ok());
  }

  InvokeResult invoke_and_wait(const std::string& service, int partition) {
    InvokeResult got;
    bool done = false;
    consumer->invoke(service, partition, 10, 10,
                     [&](const InvokeResult& result) {
                       got = result;
                       done = true;
                     });
    sim.run_until(sim.now() + 2 * sim::kSecond);
    EXPECT_TRUE(done);
    return got;
  }

  // Runs until node 0's directory lists `providers` replicas of svc 0.
  void await_providers(size_t providers) {
    const auto& table = cluster->daemon(0).table();
    for (int step = 0; step < 600; ++step) {
      if (table.lookup("svc", "0").size() == providers) return;
      sim.run_until(sim.now() + 100 * sim::kMillisecond);
    }
    FAIL() << "node 0 never listed " << providers << " replicas";
  }

  // Crashes node 1. Once its row has left node 0's directory, an
  // invocation goes straight to node 2: no probe or request reaches the
  // dead host.
  void expect_crash_reaches_next_read() {
    cluster->kill(1);
    await_providers(1);
    InvokeResult result = invoke_and_wait("svc", 0);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.server, layout.hosts[2]);
    EXPECT_EQ(result.misroutes, 0);
    EXPECT_EQ(result.attempts, 1);
  }
};

// A read before nodes 1 and 2 have started finds no replica. Their rows,
// inserted afterwards, reach the next read. They register svc before they
// start and all-to-all relays nothing, so node 0 writes each row once.
TEST_F(DirectoryReadFixture, InsertedRowReachesTheNextRead) {
  ConsumerConfig config;
  config.proxy_fallback = false;
  build(4, protocols::Scheme::kAllToAll, /*start=*/false);
  add_provider(1, "svc", 0);
  add_provider(2, "svc", 0);
  cluster->daemon(0).start();
  consumer = std::make_unique<ServiceConsumer>(sim, *net, cluster->daemon(0),
                                               config);
  consumer->start();
  ASSERT_EQ(invoke_and_wait("svc", 0).cause, FailureCause::kNoProvider);
  cluster->daemon(1).start();
  cluster->daemon(2).start();
  await_providers(2);
  EXPECT_TRUE(invoke_and_wait("svc", 0).ok());
}

// Node 2 re-registers svc for partition 1 only. Its provider would still
// serve partition 0, so only the replaced row keeps requests away from it.
TEST_F(DirectoryReadFixture, ReplacedRowReachesTheNextRead) {
  build_replicas();
  cluster->daemon(2).register_service("svc", {1});
  await_providers(1);
  const uint64_t served = providers[1]->requests_served();
  for (int i = 0; i < 20; ++i) {
    InvokeResult result = invoke_and_wait("svc", 0);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.server, layout.hosts[1]);
  }
  EXPECT_EQ(providers[1]->requests_served(), served);
}

// The hierarchical leader reports the crash: node 0 erases the row through
// MembershipTable::remove.
TEST_F(DirectoryReadFixture, RemovedRowReachesTheNextRead) {
  build_replicas();
  expect_crash_reaches_next_read();
}

// All-to-all has no failure report: node 0's row for node 1 times out in
// MembershipTable::expire.
TEST_F(DirectoryReadFixture, ExpiredRowReachesTheNextRead) {
  build_replicas({}, protocols::Scheme::kAllToAll);
  expect_crash_reaches_next_read();
}

// Partitions and service names arrive from the wire through the proxy
// relay. No partition value stands for "any", and unknown names cannot
// crowd the known ones out.
TEST_F(DirectoryReadFixture, WireShapedKeysMatchNothing) {
  ConsumerConfig config;
  config.proxy_fallback = false;
  build_replicas(config);
  for (int partition : {-1, 65536}) {
    EXPECT_EQ(invoke_and_wait("svc", partition).cause,
              FailureCause::kNoProvider)
        << "partition " << partition;
  }
  for (int i = 0; i < 100; ++i) {
    const std::string name = "unknown-" + std::to_string(i);
    EXPECT_EQ(invoke_and_wait(name, 0).cause, FailureCause::kNoProvider)
        << name;
  }
  // Both replicas stay candidates: across 20 invocations each serves.
  const uint64_t served_1 = providers[0]->requests_served();
  const uint64_t served_2 = providers[1]->requests_served();
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(invoke_and_wait("svc", 0).ok());
  EXPECT_GT(providers[0]->requests_served(), served_1);
  EXPECT_GT(providers[1]->requests_served(), served_2);
}

// --- proxy fallback under dynamic-topology faults --------------------------
//
// The racked fixture mirrors the router-flap / rewire-heal chaos plans at
// unit scale: providers live across the core router from the consumer, a
// proxy lives on the consumer's own segment, and the test mutates the
// topology mid-run. The "proxy" is the directory row plus a minimal relay
// stub answering kOk on the relay port — the consumer's fallback decision
// (when to give up on the directory and pay the relay) is what's under test,
// not the WAN handshake (multidc_test covers that).
struct ProxyFallbackFixture : public ::testing::Test {
  sim::Simulation sim{17};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<protocols::Cluster> cluster;
  std::vector<std::unique_ptr<ServiceProvider>> providers;
  uint64_t relay_served = 0;

  void build(int racks, int hosts_per_rack) {
    net::RackedClusterParams params;
    params.racks = racks;
    params.hosts_per_rack = hosts_per_rack;
    layout = net::build_racked_cluster(topo, params);
    net = std::make_unique<net::Network>(sim, topo);
    protocols::Cluster::Options opts;
    opts.scheme = protocols::Scheme::kHierarchical;
    cluster = std::make_unique<protocols::Cluster>(sim, *net, layout.hosts,
                                                   opts);
    cluster->start_all();
  }

  protocols::MembershipDaemon& daemon_of(net::HostId host) {
    protocols::MembershipDaemon* daemon = cluster->daemon_for(host);
    EXPECT_NE(daemon, nullptr);
    return *daemon;
  }

  void add_provider(net::HostId host, const std::string& service) {
    providers.push_back(
        std::make_unique<ServiceProvider>(sim, *net, daemon_of(host)));
    providers.back()->host_service(service, {0});
    providers.back()->start();
  }

  // Advertise `host` as a proxy and answer relayed requests with kOk.
  void add_relay_stub(net::HostId host) {
    daemon_of(host).register_service(proxy::kProxyServiceName, {0});
    net->bind(host, kProxyRelayPort, [this, host](const net::Packet& packet) {
      auto message = decode_service_message(packet);
      if (!message) return;
      const auto* request = std::get_if<RequestMsg>(&*message);
      if (request == nullptr) return;
      ++relay_served;
      ResponseMsg response;
      response.request_id = request->request_id;
      response.from = host;
      response.status = ResponseStatus::kOk;
      response.payload_bytes = request->response_bytes;
      net->send_unicast(host,
                        net::Address{request->reply_host, request->reply_port},
                        encode_service_message(response));
    });
  }

  InvokeResult invoke_and_wait(ServiceConsumer& consumer,
                               const std::string& service) {
    InvokeResult got;
    bool done = false;
    consumer.invoke(service, 0, 10, 10, [&](const InvokeResult& result) {
      got = result;
      done = true;
    });
    sim.run_until(sim.now() + 10 * sim::kSecond);
    EXPECT_TRUE(done);
    return got;
  }
};

// Router-flap: the core router power-cycles. While it is dark the directory
// still lists the cross-rack providers (stale rows), so the consumer pays
// misroutes, exhausts its direct attempts, and must fall back to the
// same-segment proxy; once the router returns and the directory
// reconverges, requests go direct again.
TEST_F(ProxyFallbackFixture, RouterFlapFallsBackToProxyAndRecovers) {
  build(2, 4);
  add_provider(layout.racks[1][0], "svc");
  add_provider(layout.racks[1][1], "svc");
  add_relay_stub(layout.racks[0][1]);
  ServiceConsumer consumer(sim, *net, daemon_of(layout.racks[0][0]));
  consumer.start();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster->converged());

  InvokeResult direct = invoke_and_wait(consumer, "svc");
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct.via_proxy);
  EXPECT_EQ(relay_served, 0u);

  // Dark phase, stale window: invoked at the instant of the crash, before
  // any topology tick can prune, the rows still point across the dead core.
  topo.set_device_up(layout.routers[0], false);
  InvokeResult flapped = invoke_and_wait(consumer, "svc");
  ASSERT_TRUE(flapped.ok());
  EXPECT_TRUE(flapped.via_proxy);
  EXPECT_GT(flapped.misroutes, 0);
  EXPECT_EQ(relay_served, 1u);

  // Dark phase, after reconvergence: whether or not the stale rows are
  // gone, the proxy still carries the traffic.
  sim.run_until(sim.now() + 25 * sim::kSecond);
  InvokeResult pruned = invoke_and_wait(consumer, "svc");
  ASSERT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned.via_proxy);
  EXPECT_EQ(relay_served, 2u);

  // Heal: the router returns, the directory re-merges, traffic goes direct.
  topo.set_device_up(layout.routers[0], true);
  sim.run_until(sim.now() + 30 * sim::kSecond);
  ASSERT_TRUE(cluster->converged());
  InvokeResult healed = invoke_and_wait(consumer, "svc");
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed.via_proxy);
  EXPECT_EQ(relay_served, 2u);
}

// Rewire-heal: the core crashes and the network heals into a different
// shape before it returns — a provider host is re-homed onto the consumer's
// own segment. The consumer must ride the proxy while dark, then find the
// migrated provider directly once the directory tracks the new shape (the
// core is still down — only the rewire made the direct path exist).
TEST_F(ProxyFallbackFixture, RewireHealRestoresDirectPathWithoutRouter) {
  build(3, 3);
  net::HostId migrant = layout.racks[1][0];
  add_provider(migrant, "svc");
  add_provider(layout.racks[1][1], "svc");
  add_relay_stub(layout.racks[0][1]);
  ServiceConsumer consumer(sim, *net, daemon_of(layout.racks[0][0]));
  consumer.start();
  sim.run_until(15 * sim::kSecond);
  ASSERT_TRUE(cluster->converged());

  topo.set_device_up(layout.routers[0], false);
  sim.run_until(sim.now() + 1 * sim::kSecond);
  InvokeResult dark = invoke_and_wait(consumer, "svc");
  ASSERT_TRUE(dark.ok());
  EXPECT_TRUE(dark.via_proxy);
  EXPECT_EQ(relay_served, 1u);

  // Rewire: the provider joins the consumer's segment while the core is
  // still dark; the level-0 group re-forms around it.
  topo.migrate_host(migrant, layout.rack_switches[0]);
  sim.run_until(sim.now() + 25 * sim::kSecond);
  InvokeResult rewired = invoke_and_wait(consumer, "svc");
  ASSERT_TRUE(rewired.ok());
  EXPECT_FALSE(rewired.via_proxy);
  EXPECT_EQ(rewired.server, migrant);
  EXPECT_EQ(relay_served, 1u);

  // Heal: the router returns; direct service continues uninterrupted.
  topo.set_device_up(layout.routers[0], true);
  sim.run_until(sim.now() + 30 * sim::kSecond);
  InvokeResult healed = invoke_and_wait(consumer, "svc");
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed.via_proxy);
}

}  // namespace
}  // namespace tamp::service
