// Leadership of one hierarchy level: the paper's per-group rule, "each
// group elects a leader (bully algorithm, lowest ID) plus a backup", with
// the epoch fencing that keeps a superseded leader from replaying its claim
// (DESIGN §5 items 2 and 11).
//
// The unit is a value. It owns the leader, both backup fields, the election
// flags, the epoch, the succession fences and the previous leader, and it
// decides when the level's four timers are armed or cancelled. It holds no
// network, clock or timer: every input takes the `Host` it acts through,
// and every send and side effect goes through that host in the order the
// unit calls it. `HierDaemon::LevelState` is the production host; a test
// can drive a few units through a fake one and fire any armed timer.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>

#include "membership/messages.h"
#include "obs/obs.h"
#include "sim/simulation.h"

namespace tamp::protocols {

// Bully election: how long a candidate waits for an ANSWER before claiming,
// and how long an answered candidate waits for the winner's COORDINATOR.
inline constexpr sim::Duration kElectionTimeout = 300 * sim::kMillisecond;
inline constexpr sim::Duration kCoordinatorTimeout = 800 * sim::kMillisecond;
// How long a group waits for the designated backup to take over a dead
// leader before it falls back to a full election.
inline constexpr sim::Duration kBackupGrace = 600 * sim::kMillisecond;

class Leadership {
 public:
  enum class Timer : uint8_t { kListen, kElection, kCoordinator, kBackupGrace };
  static constexpr size_t kTimers = 4;

  // The level's side of the seam.
  class Host {
   public:
    virtual void arm(Timer timer, sim::Duration delay) = 0;
    virtual void cancel(Timer timer) = 0;
    // Joined, and no member heard here flags itself leader (the paper's
    // overlap rule: stay out of elections on a channel where a leader,
    // even one of an overlapping group, is heard).
    virtual bool can_participate() const = 0;
    virtual bool is_member(membership::NodeId node) const = 0;
    // A random member, or kInvalidNode when there is none.
    virtual membership::NodeId pick_backup() = 0;
    virtual void send_election() = 0;
    virtual void send_answer(membership::NodeId candidate) = 0;
    // `msg` carries the leadership fields; the host adds the rest.
    virtual void send_coordinator(membership::CoordinatorMsg msg) = 0;
    // This node now leads the level: drop the bootstrap poll (its own view
    // is the group's authority now), heartbeat, re-seed the group, join the
    // level above and announce the subtree there.
    virtual void took_lead() = 0;
    // It stopped leading: leave the levels above, with a goodbye.
    virtual void gave_up_lead() = 0;
    virtual void request_bootstrap(membership::NodeId leader) = 0;
    // Its leadership was superseded: drop the out-log (stamped under the
    // lost leadership), mark the level unbootstrapped, drop the poll in
    // flight and pull a fresh image from `leader` when it is known.
    virtual void superseded(membership::NodeId leader) = 0;
    // After repelling a stale claim: re-seed the claimant's view
    // (rate-limited by the host).
    virtual void reseed() = 0;
    // Count and trace one of the unit's events: kElectionStart, kEpochMint,
    // kEpochSupersede, or kStaleReject when a leader repels a stale claim.
    virtual void note(obs::TraceKind kind, uint64_t a, uint64_t b) = 0;

   protected:
    ~Host() = default;
  };

  // How a COORDINATOR was taken.
  enum class Heard : uint8_t { kStale, kKept, kFollowed };

  explicit Leadership(membership::NodeId self) : self_(self) {}

  // --- inputs ---------------------------------------------------------------
  // Joined the level: listen this long for a leader before electing.
  void join(Host& host, sim::Duration listen);
  // Left the level: forget everything but the epoch and the fences, which
  // must never regress within one daemon lifetime.
  void leave(Host& host);
  void on_timer(Host& host, Timer timer);
  void on_election(Host& host, membership::NodeId candidate);
  void on_answer() {
    if (electing_) answered_ = true;
  }
  // A heartbeat, in two halves around the host's peer bookkeeping. First
  // the epoch it carries, which returns whether it is a stale claim; then
  // the claim itself. `bootstrapped` is whether the level holds an image.
  bool hear_epoch(Host& host, const membership::HeartbeatMsg& msg);
  void hear_claim(Host& host, const membership::HeartbeatMsg& msg, bool stale,
                  bool bootstrapped);
  Heard hear_coordinator(Host& host, const membership::CoordinatorMsg& msg);
  // A member was heard for the first time.
  void member_added(membership::NodeId member) {
    // A leader that took the role alone names its first member as backup.
    if (i_am_leader_ && my_backup_ == membership::kInvalidNode) {
      my_backup_ = member;
    }
  }
  // A member left this channel alive (goodbye, or moved out of scope).
  void member_gone(Host& host, membership::NodeId member);
  // A member died or left: a leader whose backup it was picks another.
  void backup_lost(Host& host, membership::NodeId member);
  // A dead member was the leader if `flagged` (its heartbeats said so) or
  // it is the one this node follows; `life` is the incarnation it died in.
  void leader_dead(Host& host, membership::NodeId member,
                   membership::Incarnation life, bool flagged);

  // --- reads ----------------------------------------------------------------
  bool leads() const { return i_am_leader_; }
  membership::NodeId leader() const { return leader_; }  // may be self
  // The group's backup as this node knows it: its own pick while it leads.
  membership::NodeId backup() const {
    return i_am_leader_ ? my_backup_ : leader_backup_;
  }
  // Highest leadership epoch observed on this channel (this node's own
  // minted epoch while it leads). Epochs are lineage-scoped: overlapping
  // groups sharing the channel mint independently, so this value is used
  // for minting above the channel's history and for claim-vs-claim
  // resolution, never as a blanket fence against arbitrary senders.
  membership::Epoch epoch() const { return epoch_; }
  // Whether `node`'s *current life* was superseded at or below `epoch`: a
  // claim, update, digest or image from it is stale replay. A higher
  // incarnation is a restart, a fresh lineage the record says nothing of.
  bool fenced_stale(membership::NodeId node, membership::Epoch epoch,
                    membership::Incarnation incarnation) const {
    auto it = superseded_.find(node);
    return it != superseded_.end() && incarnation <= it->second.incarnation &&
           epoch <= it->second.epoch;
  }

  // Units compare by state, so a model checker can memoise them.
  friend auto operator<=>(const Leadership&, const Leadership&) = default;

 private:
  // The two claim rules, in the order every claim handler applies them: a
  // newer epoch outranks anything; between a leader and an equal-or-older
  // claim, the lower id keeps the role.
  enum class Outranks : uint8_t { kNo, kByEpoch, kById };
  Outranks weigh(membership::NodeId claimant, membership::Epoch epoch) const {
    if (epoch > epoch_) return Outranks::kByEpoch;
    return i_am_leader_ && claimant < self_ ? Outranks::kById : Outranks::kNo;
  }

  void maybe_start_election(Host& host);
  void become_leader(Host& host);
  void abdicate(Host& host);
  // Adopt a *directly claimed* newer epoch (leader-flagged heartbeat or
  // COORDINATOR, never second-hand gossip). A leader it supersedes steps
  // down silently and re-bootstraps from `new_leader`.
  void adopt_epoch(Host& host, membership::Epoch epoch,
                   membership::NodeId new_leader);
  // A leader heard a stale claim: fence the claimant, re-assert naming it
  // as superseded, and re-seed its view.
  void repel(Host& host, membership::NodeId claimant, membership::Epoch epoch,
             membership::Incarnation life);
  // Multicast a COORDINATOR with the current epoch, naming the superseded
  // predecessor when there is one.
  void send_coordinator(Host& host);
  // A fence is keyed to the fenced life: raising it with a newer
  // incarnation replaces the record, with an older one is ignored.
  void raise_fence(membership::NodeId node, membership::Epoch epoch,
                   membership::Incarnation life);

  // Sequences several inputs share (backup_lost, above, is one more).
  void end_election(Host& host);
  void resolve_succession() {
    prev_leader_ = membership::kInvalidNode;
    prev_incarnation_ = 0;
  }
  // The leader is gone: give its backup's claim the grace to arrive.
  void lose_leader(Host& host) {
    leader_ = membership::kInvalidNode;
    host.arm(Timer::kBackupGrace, kBackupGrace);
  }
  void follow(membership::NodeId leader, membership::NodeId backup) {
    leader_ = leader;
    leader_backup_ = backup;
  }

  struct Fence {
    membership::Epoch epoch = 0;
    membership::Incarnation incarnation = 0;
    friend auto operator<=>(const Fence&, const Fence&) = default;
  };

  membership::NodeId self_;
  membership::NodeId leader_ = membership::kInvalidNode;  // may be self
  membership::NodeId leader_backup_ = membership::kInvalidNode;
  bool i_am_leader_ = false;
  membership::NodeId my_backup_ = membership::kInvalidNode;
  bool electing_ = false;
  bool answered_ = false;  // saw an ANSWER for our candidacy
  membership::Epoch epoch_ = 0;
  // Succession record: claimant -> highest (epoch, incarnation) at which
  // its leadership of a group on this channel is known superseded.
  // Populated from CoordinatorMsg::prev and repelled claims.
  std::map<membership::NodeId, Fence> superseded_;
  // The leader whose loss triggered our pending or held leadership, named
  // as CoordinatorMsg::prev so the group learns the succession, plus the
  // incarnation its fenced life was living.
  membership::NodeId prev_leader_ = membership::kInvalidNode;
  membership::Incarnation prev_incarnation_ = 0;
};

}  // namespace tamp::protocols
