// Service provider (the Neptune provider module): hosts one or more
// (service, partitions) instances on a node, registers them with the
// membership daemon, answers load polls, and processes requests with a
// configurable concurrency + service-time model.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "protocols/daemon.h"
#include "protocols/ports.h"
#include "service/messages.h"
#include "sim/simulation.h"

namespace tamp::service {

struct ProviderConfig {
  net::Port port = protocols::kServicePort;
  int concurrency = 2;         // parallel request slots (cpus)
  size_t max_queue = 256;      // beyond this, respond kOverloaded
  // Mean service time; each request draws an exponential around it.
  sim::Duration mean_service_time = 10 * sim::kMillisecond;
};

class ServiceProvider {
 public:
  // `membership` is the node's membership daemon (used for registration and
  // identity). Not owned.
  ServiceProvider(sim::Simulation& sim, net::Network& net,
                  protocols::MembershipDaemon& membership,
                  ProviderConfig config = {});
  ~ServiceProvider();

  ServiceProvider(const ServiceProvider&) = delete;
  ServiceProvider& operator=(const ServiceProvider&) = delete;

  // Host (service, partitions); announced through the membership protocol.
  void host_service(const std::string& name, const std::vector<int>& partitions,
                    std::map<std::string, std::string> params = {});

  void start();
  void stop();
  bool running() const { return running_; }

  net::HostId self() const { return self_; }
  uint32_t current_load() const {
    return static_cast<uint32_t>(active_ + queue_.size());
  }
  uint64_t requests_served() const { return served_; }
  uint64_t requests_rejected() const { return rejected_; }

 private:
  bool hosts(const std::string& service, int partition) const;
  void on_packet(const net::Packet& packet);
  void maybe_dispatch();
  void finish(const RequestMsg& request);

  sim::Simulation& sim_;
  net::Network& net_;
  protocols::MembershipDaemon& membership_;
  // Kept apart from membership_: Cluster::restart destroys the daemon this
  // provider was built on, and stop() must still unbind the port afterwards.
  net::HostId self_;
  ProviderConfig config_;
  std::map<std::string, std::vector<int>> hosted_;
  // In-service completion events capture a weak ref to this token; stop()
  // drops it so completions scheduled before a crash cannot touch a dead
  // (or destroyed) provider.
  std::shared_ptr<bool> alive_;
  std::deque<RequestMsg> queue_;
  int active_ = 0;
  bool running_ = false;
  uint64_t served_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace tamp::service
