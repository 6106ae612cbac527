#include <gtest/gtest.h>

#include <map>

#include "membership/messages.h"
#include "net/builders.h"
#include "protocols/cluster.h"
#include "service/consumer.h"
#include "service/provider.h"

namespace tamp::service {
namespace {

struct ServiceFixture : public ::testing::Test {
  sim::Simulation sim{31};
  net::Topology topo;
  net::ClusterLayout layout;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<protocols::Cluster> cluster;

  void build(int hosts) {
    layout = net::build_single_segment(topo, hosts);
    net = std::make_unique<net::Network>(sim, topo);
    protocols::Cluster::Options opts;
    opts.scheme = protocols::Scheme::kHierarchical;
    opts.hier.max_ttl = 1;
    cluster = std::make_unique<protocols::Cluster>(sim, *net, layout.hosts,
                                                   opts);
    cluster->start_all();
    sim.run_until(8 * sim::kSecond);
    ASSERT_TRUE(cluster->converged());
  }
};

TEST_F(ServiceFixture, InvokeRoundTrip) {
  build(4);
  ServiceProvider provider(sim, *net, cluster->daemon(1));
  provider.host_service("echo", {0});
  provider.start();

  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(sim.now() + 3 * sim::kSecond);  // registration propagates

  InvokeResult got;
  bool done = false;
  consumer.invoke("echo", 0, 100, 500, [&](const InvokeResult& result) {
    got = result;
    done = true;
  });
  sim.run_until(sim.now() + 2 * sim::kSecond);

  ASSERT_TRUE(done);
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.server, layout.hosts[1]);
  EXPECT_FALSE(got.via_proxy);
  EXPECT_GT(got.latency, 0);
  EXPECT_LT(got.latency, 200 * sim::kMillisecond);
  EXPECT_EQ(provider.requests_served(), 1u);
}

TEST_F(ServiceFixture, UnknownServiceFailsCleanly) {
  build(3);
  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();

  InvokeResult got;
  bool done = false;
  consumer.invoke("nonexistent", 0, 10, 10, [&](const InvokeResult& result) {
    got = result;
    done = true;
  });
  sim.run_until(sim.now() + 3 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.cause, FailureCause::kNoProvider);
}

TEST_F(ServiceFixture, RandomPollingPrefersLightReplica) {
  build(5);
  ServiceProvider busy(sim, *net, cluster->daemon(1));
  busy.host_service("work", {0});
  busy.start();
  ServiceProvider idle(sim, *net, cluster->daemon(2));
  idle.host_service("work", {0});
  idle.start();

  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(sim.now() + 3 * sim::kSecond);

  // Swamp the busy replica directly so its queue is long.
  for (int i = 0; i < 50; ++i) {
    RequestMsg request;
    request.request_id = 900000u + static_cast<uint64_t>(i);
    request.reply_host = layout.hosts[0];
    request.reply_port = 12345;  // nobody listens; fine
    request.service = "work";
    request.partition = 0;
    net->send_unicast(layout.hosts[0],
                      {layout.hosts[1], protocols::kServicePort},
                      encode_service_message(request));
  }
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  ASSERT_GT(busy.current_load(), 10u);

  std::map<net::HostId, int> hits;
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    consumer.invoke("work", 0, 10, 10, [&](const InvokeResult& result) {
      if (result.ok()) hits[result.server]++;
      ++done;
    });
  }
  sim.run_until(sim.now() + 10 * sim::kSecond);
  EXPECT_EQ(done, 30);
  // Random polling (d=2) must route the large majority to the idle one.
  EXPECT_GT(hits[layout.hosts[2]], 25);
}

TEST_F(ServiceFixture, FailoverToAnotherReplicaOnDeadTarget) {
  build(5);
  ServiceProvider a(sim, *net, cluster->daemon(1));
  a.host_service("kv", {0});
  a.start();
  ServiceProvider b(sim, *net, cluster->daemon(2));
  b.host_service("kv", {0});
  b.start();
  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(sim.now() + 3 * sim::kSecond);

  // Node 1 crashes; before the membership notices, invocations must still
  // succeed by timing out against the dead replica and retrying the other.
  net->set_host_up(layout.hosts[1], false);

  int ok = 0, total = 0;
  for (int i = 0; i < 10; ++i) {
    consumer.invoke("kv", 0, 10, 10, [&](const InvokeResult& result) {
      ++total;
      if (result.ok()) {
        ++ok;
        EXPECT_EQ(result.server, layout.hosts[2]);
      }
    });
  }
  sim.run_until(sim.now() + 5 * sim::kSecond);
  EXPECT_EQ(total, 10);
  EXPECT_EQ(ok, 10);
}

TEST_F(ServiceFixture, OverloadedProviderRejects) {
  build(3);
  ProviderConfig config;
  config.max_queue = 2;
  config.concurrency = 1;
  config.mean_service_time = 500 * sim::kMillisecond;
  ServiceProvider provider(sim, *net, cluster->daemon(1), config);
  provider.host_service("slow", {0});
  provider.start();

  ConsumerConfig consumer_config;
  consumer_config.proxy_fallback = false;
  ServiceConsumer consumer(sim, *net, cluster->daemon(0), consumer_config);
  consumer.start();
  sim.run_until(sim.now() + 3 * sim::kSecond);

  int ok = 0, rejected = 0;
  for (int i = 0; i < 12; ++i) {
    consumer.invoke("slow", 0, 10, 10, [&](const InvokeResult& result) {
      if (result.ok()) {
        ++ok;
      } else {
        ++rejected;
      }
    });
  }
  sim.run_until(sim.now() + 10 * sim::kSecond);
  EXPECT_EQ(ok + rejected, 12);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(provider.requests_rejected(), 0u);
}

TEST_F(ServiceFixture, PartitionSelectsCorrectProvider) {
  build(5);
  ServiceProvider p0(sim, *net, cluster->daemon(1));
  p0.host_service("part", {0});
  p0.start();
  ServiceProvider p1(sim, *net, cluster->daemon(2));
  p1.host_service("part", {1});
  p1.start();
  ServiceConsumer consumer(sim, *net, cluster->daemon(0));
  consumer.start();
  sim.run_until(sim.now() + 3 * sim::kSecond);

  bool done = false;
  consumer.invoke("part", 1, 10, 10, [&](const InvokeResult& result) {
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.server, layout.hosts[2]);
    done = true;
  });
  sim.run_until(sim.now() + 2 * sim::kSecond);
  EXPECT_TRUE(done);
}

TEST(ServiceMessages, RoundTrips) {
  RequestMsg request;
  request.request_id = 42;
  request.reply_host = 7;
  request.reply_port = 999;
  request.service = "search";
  request.partition = 3;
  request.request_bytes = 256;
  request.response_bytes = 1024;
  request.relay_hops = 1;
  auto payload = encode_service_message_bytes(request);
  // Request body is padded onto the wire.
  EXPECT_GE(payload.size(), 256u);
  auto decoded = decode_service_message(payload.data(), payload.size());
  ASSERT_TRUE(decoded.has_value());
  auto* out = std::get_if<RequestMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->service, "search");
  EXPECT_EQ(out->partition, 3);
  EXPECT_EQ(out->relay_hops, 1);

  ResponseMsg response;
  response.request_id = 42;
  response.from = 9;
  response.status = ResponseStatus::kOk;
  response.payload_bytes = 2048;
  auto response_payload = encode_service_message_bytes(response);
  EXPECT_GE(response_payload.size(), 2048u);
  auto response_decoded = decode_service_message(response_payload.data(),
                                                 response_payload.size());
  ASSERT_TRUE(response_decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<ResponseMsg>(*response_decoded));

  uint8_t garbage[] = {0xfe, 0x01};
  EXPECT_FALSE(decode_service_message(garbage, sizeof(garbage)).has_value());
}

// A simulated body's size is a field a sender copies into what it sends
// next, so the decoder refuses any above kMaxServiceBody.
TEST(ServiceMessages, SimulatedBodiesAreCapped) {
  const auto decodes = [](const std::vector<uint8_t>& frame) {
    return decode_service_message(frame.data(), frame.size()).has_value();
  };
  const auto forge_u32 = [](std::vector<uint8_t> frame, size_t at) {
    for (size_t i = 0; i < 4; ++i) frame[at + i] = 0xff;
    return frame;
  };

  RequestMsg request;
  request.service = "search";
  request.request_bytes = kMaxServiceBody;
  request.response_bytes = kMaxServiceBody;
  EXPECT_TRUE(decodes(encode_service_message_bytes(request)));
  request.request_bytes = 0;
  request.response_bytes = 0xFFFFFFFF;
  EXPECT_FALSE(decodes(encode_service_message_bytes(request)));
  // With no body, request_bytes, response_bytes and relay_hops end the
  // frame.
  request.response_bytes = 0;
  const std::vector<uint8_t> small = encode_service_message_bytes(request);
  ASSERT_TRUE(decodes(small));
  EXPECT_FALSE(decodes(forge_u32(small, small.size() - 9)));

  ResponseMsg response;
  response.payload_bytes = kMaxServiceBody;
  EXPECT_TRUE(decodes(encode_service_message_bytes(response)));
  response.payload_bytes = 0;
  const std::vector<uint8_t> empty = encode_service_message_bytes(response);
  ASSERT_TRUE(decodes(empty));
  EXPECT_FALSE(decodes(forge_u32(empty, empty.size() - 4)));
}

// Each plane reads only its own payloads: a service message multicast to
// the hierarchical daemons' data port, and a membership message sent to a
// provider's port, both read as no message.
TEST_F(ServiceFixture, PayloadOfTheOtherPlaneReadsAsNoMessage) {
  build(4);
  ServiceProvider provider(sim, *net, cluster->daemon(1));
  provider.host_service("echo", {0});
  provider.start();
  int replies = 0;
  net->bind(layout.hosts[0], protocols::kServiceReplyPort,
            [&](const net::Packet&) { ++replies; });

  const net::Payload poll = encode_service_message(
      LoadPollMsg{1, layout.hosts[0], protocols::kServiceReplyPort});
  const net::Payload election =
      membership::encode_message(membership::ElectionMsg{0, 0});
  net::Packet packet;
  packet.payload = poll;
  EXPECT_NE(decode_service_message(packet), nullptr);
  EXPECT_EQ(membership::decode_message(packet), nullptr);
  packet.payload = election;
  EXPECT_NE(membership::decode_message(packet), nullptr);
  EXPECT_EQ(decode_service_message(packet), nullptr);

  // The provider answers a poll...
  const net::Address provider_port{layout.hosts[1], protocols::kServicePort};
  net->send_unicast(layout.hosts[0], provider_port, poll);
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(replies, 1);
  // ...but not a membership message, and the daemons drop the poll.
  net->send_unicast(layout.hosts[0], provider_port, election);
  net->send_multicast(layout.hosts[0], protocols::kBaseChannel, 1,
                      protocols::kDataPort, poll);
  sim.run_until(sim.now() + 100 * sim::kMillisecond);
  EXPECT_EQ(replies, 1);
  EXPECT_TRUE(cluster->converged());
}

}  // namespace
}  // namespace tamp::service
