// Anti-entropy of one hierarchy level: the periodic digest round that
// backstops the paper's relayed updates and bootstrap/sync images (DESIGN §9).
//
// A leader's round multicasts a bucketed digest of its scope into the group.
// A receiver hashes the same scope of its own table; rows in agreeing
// buckets are reconfirmed at once, and the mismatched buckets are pulled
// with a summary of the receiver's rows in them. The origin answers with a
// delta: the rows that differ, and the ids of the pulled rows that agree
// after all. A delta that cannot carry the whole divergence is truncated,
// and the receiver escalates to the full-image sync. A digest carries no
// sequence number, so a lost round is found by time: each stream owes its
// next round one interval after the last, and one heartbeat later it is
// pulled whole.
//
// The unit is a value. It owns the deadline of every digest stream heard on
// the level and nothing else: it holds no network, clock or timer, every
// input takes the time, the table and the `Host` it acts through, and every
// send and side effect goes through that host in the order the unit calls
// it. `HierDaemon::LevelState` is the production host; a test can drive a
// few units through a fake one.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "membership/messages.h"
#include "membership/table.h"
#include "sim/time.h"

namespace tamp::protocols {

// Buckets per anti-entropy digest; mismatches are repaired per bucket, so
// more buckets localize divergence better at ~8 bytes each on the wire.
// Every digest carries exactly this many, and a pull's indices are read in
// this one geometry.
inline constexpr size_t kDigestBuckets = 16;
// Divergent rows one RefreshDeltaMsg may carry. A delta clipped at this cap
// is marked truncated and the receiver escalates to the full-image sync
// path (which sits behind image_serve_budget).
inline constexpr size_t kDigestMaxRowsPerDelta = 64;

class AntiEntropy {
 public:
  // The level's digest counters, one `note` each.
  enum class Count : uint8_t {
    kDigestSent,      // digests_sent
    kPullSent,        // digest_pulls_sent
    kPullServed,      // digest_pulls_served
    kDeltaSent,       // deltas_sent
    kRowsShipped,     // delta_rows_shipped: divergent rows in a delta
    kRowsSuppressed,  // digest_rows_suppressed: pulled rows confirmed
    kFullFallback,    // digest_full_fallbacks: truncated delta -> image sync
    kRoundMissed,     // digest_rounds_missed: overdue round -> full pull
  };
  static constexpr size_t kCounts =
      static_cast<size_t>(Count::kRoundMissed) + 1;

  // The level's side of the seam.
  class Host {
   public:
    // The digest goes to the level's channel; a pull and a delta to one
    // node's control port.
    virtual void send_digest(membership::RefreshDigestMsg msg) = 0;
    virtual void send_pull(membership::NodeId origin,
                           membership::RefreshPullMsg msg) = 0;
    virtual void send_delta(membership::NodeId requester,
                            membership::RefreshDeltaMsg msg) = 0;
    // Apply a delta's rows as relayed by `responder`, with the relay and
    // notification rules of any absorbed image.
    virtual void absorb(const std::vector<membership::RowRef>& rows,
                        membership::NodeId responder) = 0;
    // A truncated delta: open the full-image sync with `responder`.
    virtual void escalate(membership::NodeId responder) = 0;
    // Whether a message from `sender`'s life is stale replay on this level
    // (a superseded leadership); a rejection is counted.
    virtual bool rejects_stale(membership::NodeId sender,
                               membership::Epoch epoch,
                               membership::Incarnation life) = 0;
    virtual bool is_member(membership::NodeId node) const = 0;
    // The level's leader (may be this node) and leadership epoch.
    virtual membership::NodeId leader() const = 0;
    virtual membership::Epoch epoch() const = 0;
    // This node's own incarnation, stamped on digests and deltas.
    virtual membership::Incarnation incarnation() const = 0;
    // The round period (HierConfig::refresh_interval) and the heartbeat
    // period: a stream owes its next round one round after the last, and
    // one heartbeat later that round counts as lost.
    virtual sim::Duration round_interval() const = 0;
    virtual sim::Duration heartbeat_period() const = 0;
    virtual void note(Count count, uint64_t n) = 0;

   protected:
    ~Host() = default;
  };

  AntiEntropy(membership::NodeId self, int level)
      : self_(self), level_(static_cast<uint8_t>(level)) {}

  // --- inputs ---------------------------------------------------------------
  // A round tick: multicast a digest of the scope, downward (the whole view,
  // into the group this node leads) or upward (`subtree`: the subtree this
  // node represents in the parent group).
  void round(Host& host, const membership::MembershipTable& table,
             bool subtree) const;
  // A digest heard on the level's channel. The daemon touches the sender's
  // peer record first; this reconfirms the rows in agreeing buckets and
  // pulls the rest.
  void on_digest(Host& host, membership::MembershipTable& table,
                 sim::Time now, const membership::RefreshDigestMsg& msg);
  // A pull answering one of this node's digests: ship the divergent rows.
  void on_pull(Host& host, const membership::MembershipTable& table,
               const membership::RefreshPullMsg& msg) const;
  // A delta answering one of this node's pulls.
  void on_delta(Host& host, membership::MembershipTable& table, sim::Time now,
                const membership::RefreshDeltaMsg& msg) const;
  // Per heartbeat: pull every bucket from a stream whose round is overdue,
  // and forget streams whose origin no longer owes rounds here.
  void check_overdue(Host& host, const membership::MembershipTable& table,
                     sim::Time now);
  // Left the level: every stream is forgotten.
  void leave() { due_.clear(); }

  // --- reads ----------------------------------------------------------------
  // The rows a round of this level covers: the whole view downward; upward,
  // the subtree this node represents, which leaves out the group's members
  // and the rows relayed by them (re-announcing what it learned from this
  // very group would keep a departed peer's rows alive by mutual refresh).
  std::vector<const membership::MembershipEntry*> scope(
      const Host& host, const membership::MembershipTable& table,
      bool subtree) const;
  // When each (origin, subtree) stream heard here owes its next round.
  using Deadlines = std::map<std::pair<membership::NodeId, bool>, sim::Time>;
  const Deadlines& deadlines() const { return due_; }

  // Units compare by state, so a model checker can memoise them.
  friend auto operator<=>(const AntiEntropy&, const AntiEntropy&) = default;

 private:
  // The rows a receiver hashes against `msg`. A downward digest covers the
  // origin's whole view, so the receiver hashes its own. A subtree digest
  // names its rows in `subjects`, and the receiver hashes its copies of
  // exactly those: a listed row it lacks leaves its bucket mismatched, which
  // is how the pull discovers it, and a row the origin stopped listing goes
  // unrefreshed and ages into orphan expiry.
  std::vector<const membership::MembershipEntry*> receiver_scope(
      const membership::MembershipTable& table,
      const membership::RefreshDigestMsg& msg) const;
  // Pull the `mismatched` buckets of `origin`'s scope, listing `rows`: this
  // node's copies of the rows in them.
  void send_pull(Host& host, membership::NodeId origin, bool subtree,
                 const std::vector<const membership::MembershipEntry*>& rows,
                 const std::vector<bool>& mismatched) const;

  membership::NodeId self_;
  uint8_t level_;
  // Refresh timers tick at a fixed period, so a round still missing one
  // heartbeat past its deadline is lost; check_overdue pulls it rather than
  // letting its rows age toward orphan expiry.
  Deadlines due_;
};

}  // namespace tamp::protocols
