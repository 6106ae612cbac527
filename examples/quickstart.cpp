// Quickstart: the membership service API end to end.
//
// Builds a 2-rack / 8-node simulated cluster, starts an MService daemon on
// every node from a validated MembershipConfig, looks the cluster up
// through MClient, then kills a node and watches the directory converge.
//
//   ./examples/quickstart
#include <cstdio>

#include "api/mclient.h"
#include "api/mservice.h"
#include "net/builders.h"

using namespace tamp;

namespace {

void show_directory(const api::MClient& client, const char* label) {
  api::MachineList machines;
  int count = client.lookup_service(".*", "*", &machines);
  std::printf("%s: %d machines visible\n", label, count);
  for (const auto& machine : machines) {
    std::printf("  ");
    for (const auto& [key, value] : machine) {
      if (key == "node" || key == "hostname" || key == "incarnation") {
        std::printf("%s=%s ", key.c_str(), value.c_str());
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  sim::Simulation sim(2026);
  net::Topology topo;
  net::RackedClusterParams racks;
  racks.racks = 2;
  racks.hosts_per_rack = 4;
  auto layout = net::build_racked_cluster(topo, racks);
  net::Network net(sim, topo);
  api::DirectoryStore store;

  // One validated configuration shared by every node (paper Section 5:
  // "all nodes share the same configuration file").
  api::MembershipConfig config;
  config.system.shm_key = 999;
  config.system.max_ttl = 4;
  config.system.mcast_addr = "239.255.0.2";
  config.system.mcast_port = 10050;
  config.system.mcast_freq = 1.0;
  config.system.max_loss = 5;
  config.services.push_back({"HTTP", "0", {{"Port", "8080"}}});
  api::Status valid = api::validate(config);
  if (!valid.ok()) {
    std::printf("configuration rejected: %s\n", valid.message().c_str());
    return 1;
  }

  std::vector<std::unique_ptr<api::MService>> services;
  for (net::HostId host : layout.hosts) {
    services.push_back(
        std::make_unique<api::MService>(sim, net, store, host, config));
    services.back()->run();
  }

  // A node can also publish extra services and values at runtime.
  services[3]->register_service("Retriever", "1-3");
  services[3]->update_value("version", "2.1");

  std::printf("== letting the cluster form (virtual time) ==\n");
  sim.run_until(10 * sim::kSecond);

  api::MClient client(store, layout.hosts[0], /*shm_key=*/999);
  show_directory(client, "after formation");

  // The typed control API exposes the leadership view: which levels this
  // node joined, who leads them, and at what epoch.
  api::ControlResponse view = services[0]->control(api::LeadershipQuery{});
  std::printf("node %u (incarnation %llu) leadership view:\n",
              layout.hosts[0],
              static_cast<unsigned long long>(view.incarnation));
  for (const auto& info : view.leadership) {
    if (!info.joined) continue;
    std::printf("  level %d: leader=%u epoch=%llu%s\n", info.level,
                info.leader, static_cast<unsigned long long>(info.epoch),
                info.is_leader ? " (this node)" : "");
  }

  api::MachineList retrievers;
  int hits = client.lookup_service("Retriever", "2", &retrievers);
  std::printf("Retriever partition 2 -> %d provider(s)\n", hits);

  std::printf("\n== killing node %u ==\n", layout.hosts[5]);
  services[5]->shutdown();
  net.set_host_up(layout.hosts[5], false);
  sim.run_until(sim.now() + 10 * sim::kSecond);
  show_directory(client, "after failure detection");

  std::printf("\nvirtual time elapsed: %.1f s, events executed: %llu\n",
              sim::to_seconds(sim.now()),
              static_cast<unsigned long long>(sim.events_executed()));
  return 0;
}
