// Gossip-style membership (van Renesse et al., Middleware '98) — the
// paper's second comparison point.
//
// Each round a node increments its own heartbeat counter and sends its full
// local view (every known member's record + counter) to one randomly chosen
// peer. A member whose counter hasn't increased for `tfail` is declared
// failed, and is quarantined for `2 * tfail` so stale gossip can't
// resurrect it (the classic cleanup rule).
//
// `tfail` is the O(log n) mistake-probability bound (gossip_tfail): with one
// gossip per period, information about a node reaches everyone in O(log n)
// rounds, so the failure timeout must scale with log n to keep the mistake
// probability at a fixed level. The constants are calibrated
// so that P_mistake ~ 0.1% reproduces the paper's measured detection times
// (~13 s at 20 nodes, ~17-20 s at 100).
//
// Targets are chosen by cycling a shuffled permutation of the known peers
// (re-shuffled each cycle) rather than independently at random — the
// standard practical refinement: with i.i.d. choices a node goes
// un-gossiped-to for L seconds with probability e^-L, and such receive
// droughts combine with view staleness into correlated false failure
// detections; permutation selection bounds the gap.
#pragma once

#include <unordered_map>

#include "obs/obs.h"
#include "protocols/daemon.h"
#include "protocols/ports.h"
#include "sim/timer.h"

namespace tamp::protocols {

// One gossip round per period, sent to one peer.
inline constexpr sim::Duration kGossipPeriod = sim::kSecond;
// The grid on which failures are declared and quarantines lifted: each on
// the first tick past its deadline.
inline constexpr sim::Duration kGossipScanInterval = 200 * sim::kMillisecond;
// Seed peers each node starts with; a real deployment would use a static
// bootstrap list the same way.
inline constexpr int kGossipSeeds = 3;

// Failure timeout at view size `n` (clamped to at least 2):
// kGossipPeriod * (5.5 + 1.75 * log2 n), i.e. ~13.06 s at 20 nodes and
// ~17.13 s at 100. The daemon and the oracle both read it from here.
sim::Duration gossip_tfail(size_t n);

class GossipDaemon : public MembershipDaemon {
 public:
  GossipDaemon(sim::Simulation& sim, net::Network& net, membership::NodeId self,
               membership::EntryData own);
  ~GossipDaemon() override;

  void start() override;
  void stop() override;

  // Pre-load knowledge of another node (bootstrap seed). Must be called
  // before or after start; seeds count as heard-now.
  void add_seed(membership::EntryData entry);

  // Effective failure timeout at the current view size.
  sim::Duration effective_tfail() const;

 private:
  // Heartbeat-counter cursor for one peer, scoped to an incarnation: a
  // restarted peer begins a fresh counter-space at zero, so comparing its
  // counters against the old life's cursor would declare it silent forever
  // (and a stale relayed record of the old life must not drag the cursor
  // past the new life's counters).
  struct PeerState {
    uint64_t counter = 0;
    uint64_t incarnation = 0;
    sim::Time last_increase = 0;
  };

  void round();
  void scan();
  // Arms the scan timer at the earliest failure or quarantine deadline.
  void arm_scan();
  void on_packet(const net::Packet& packet);
  membership::GossipMsg build_view();
  // Next peer from the shuffled cycle; kInvalidNode when no peers exist.
  membership::NodeId next_target();

  sim::PeriodicTimer round_timer_;
  // Only scan() shrinks the view, so tfail cannot fall between scans and a
  // deadline armed at the view size of its day stays early enough.
  sim::GridTimer scan_timer_;
  uint64_t own_counter_ = 0;
  std::unordered_map<membership::NodeId, PeerState> peers_;
  // Failed nodes quarantined until the stored time; records with counters
  // <= .counter are ignored while quarantined — unless they carry a higher
  // incarnation, which proves a restarted process (fresh counters start at
  // zero) rather than stale gossip about the dead one.
  struct DeadState {
    uint64_t counter = 0;
    uint64_t incarnation = 0;
    sim::Time until = 0;
  };
  std::unordered_map<membership::NodeId, DeadState> dead_;
  std::vector<membership::NodeId> target_cycle_;
  size_t target_cursor_ = 0;
  // Registry-backed (obs::Protocol::kGossip, "gossips_sent", self).
  obs::Counter* gossips_sent_ = nullptr;
};

}  // namespace tamp::protocols
