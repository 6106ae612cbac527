// The all-to-all membership protocol (paper Section 2).
//
// Every node multicasts one heartbeat per period to a single cluster-wide
// channel and independently builds its directory from the heartbeats it
// receives. A node is declared dead after `max_losses` consecutive missed
// heartbeats. Simple, fully distributed, best failure isolation — and
// O(N^2) aggregate traffic, which is what Figure 2 demonstrates.
#pragma once

#include <memory>

#include "obs/obs.h"
#include "protocols/daemon.h"
#include "protocols/ports.h"
#include "sim/timer.h"

namespace tamp::protocols {

// Heartbeats go to kAllToAllChannel on kDataPort with this TTL, which
// must cover the whole cluster.
inline constexpr uint8_t kAllToAllTtl = 32;
// The grid on which the table is checked for members past their timeout:
// a member silent since t is declared dead on the first tick after
// t + max_losses * period.
inline constexpr sim::Duration kAllToAllScanInterval = 100 * sim::kMillisecond;

struct AllToAllConfig {
  sim::Duration period = sim::kSecond;
  int max_losses = 5;
  size_t heartbeat_pad = 0;  // pad heartbeats to a fixed size (0 = off)
};

class AllToAllDaemon : public MembershipDaemon {
 public:
  AllToAllDaemon(sim::Simulation& sim, net::Network& net,
                 membership::NodeId self, membership::EntryData own,
                 AllToAllConfig config = {});
  ~AllToAllDaemon() override;

  void start() override;
  void stop() override;

  const AllToAllConfig& config() const { return config_; }

 private:
  void announce();
  void scan();
  // Arms the scan timer at the oldest peer row's expiry.
  void arm_scan();
  void on_packet(const net::Packet& packet);
  sim::Duration member_timeout() const {
    return static_cast<sim::Duration>(config_.max_losses) * config_.period;
  }

  AllToAllConfig config_;
  sim::PeriodicTimer announce_timer_;
  sim::GridTimer scan_timer_;
  uint64_t seq_ = 0;
  // Registry-backed (obs::Protocol::kAllToAll, "heartbeats_sent", self).
  obs::Counter* heartbeats_sent_ = nullptr;
};

}  // namespace tamp::protocols
