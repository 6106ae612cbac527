// A partitioned, replicated cache service on the membership layer — the
// "Cache" service from the paper's configuration example (Fig. 7), showing
// how a real component uses partition specs, published key/values, and the
// directory for replica selection.
//
//   ./examples/cache_cluster
#include <cstdio>

#include "net/builders.h"
#include "protocols/cluster.h"
#include "service/consumer.h"
#include "service/provider.h"

using namespace tamp;

int main() {
  sim::Simulation sim(404);
  net::Topology topo;
  net::RackedClusterParams racks;
  racks.racks = 2;
  racks.hosts_per_rack = 8;
  auto layout = net::build_racked_cluster(topo, racks);
  net::Network net(sim, topo);

  protocols::Cluster::Options opts;
  opts.scheme = protocols::Scheme::kHierarchical;
  protocols::Cluster cluster(sim, net, layout.hosts, opts);
  cluster.start_all();

  // 4 cache partitions x 3 replicas on nodes 2..13; nodes 0,1 are clients.
  std::vector<std::unique_ptr<service::ServiceProvider>> caches;
  for (int partition = 0; partition < 4; ++partition) {
    for (int replica = 0; replica < 3; ++replica) {
      size_t host = 2 + static_cast<size_t>(partition * 3 + replica);
      service::ProviderConfig config;
      config.mean_service_time = 2 * sim::kMillisecond;
      caches.push_back(std::make_unique<service::ServiceProvider>(
          sim, net, cluster.daemon(host), config));
      caches.back()->host_service("Cache", {partition});
      // Cache nodes publish their shard size through the membership layer.
      cluster.daemon(host).update_value(
          "shard_mb", std::to_string(128 * (partition + 1)));
    }
  }
  for (auto& cache : caches) cache->start();

  service::ServiceConsumer client(sim, net, cluster.daemon(0));
  client.start();
  sim.run_until(12 * sim::kSecond);
  std::printf("cluster converged: %s\n",
              cluster.converged() ? "yes" : "no");

  // Clients route by key: partition = hash(key) % 4.
  auto get = [&](const std::string& key) {
    int partition = static_cast<int>(std::hash<std::string>{}(key) % 4);
    client.invoke("Cache", partition, 64, 512,
                  [key, partition](const service::InvokeResult& result) {
                    std::printf("GET %-10s -> partition %d via node %-3u"
                                " (%s, %.2f ms)\n",
                                key.c_str(), partition, result.server,
                                result.ok() ? "hit" : "MISS",
                                sim::to_millis(result.latency));
                  });
  };
  for (const char* key :
       {"user:42", "session:9", "doc:7", "query:abc", "user:43"}) {
    get(key);
  }
  sim.run_until(sim.now() + 2 * sim::kSecond);

  // The directory exposes the published shard sizes to any node.
  auto shards = cluster.daemon(1).table().lookup("Cache", "2");
  std::printf("\npartition 2 replicas:");
  for (const auto* entry : shards) {
    std::printf(" node %u (shard %s MB)", entry->data().node,
                entry->data().values.at("shard_mb").c_str());
  }
  std::printf("\n");

  // Kill a replica of partition 0; keys still resolve through the others.
  std::printf("\nkilling one partition-0 replica...\n");
  cluster.kill(2);
  sim.run_until(sim.now() + 8 * sim::kSecond);
  get("user:42");
  sim.run_until(sim.now() + 2 * sim::kSecond);
  return 0;
}
