#include "protocols/leadership.h"

#include <algorithm>

namespace tamp::protocols {

using membership::CoordinatorMsg;
using membership::Epoch;
using membership::HeartbeatMsg;
using membership::Incarnation;
using membership::kInvalidNode;
using membership::NodeId;

void Leadership::join(Host& host, sim::Duration listen) {
  // Paper bootstrap: listen for a leader flag first; elect only if the
  // channel turns out to be leaderless.
  host.arm(Timer::kListen, listen);
}

void Leadership::leave(Host& host) {
  follow(kInvalidNode, kInvalidNode);
  i_am_leader_ = false;
  my_backup_ = kInvalidNode;
  resolve_succession();
  end_election(host);
  host.cancel(Timer::kListen);
  host.cancel(Timer::kBackupGrace);
}

void Leadership::on_timer(Host& host, Timer timer) {
  switch (timer) {
    case Timer::kElection:
      if (!electing_) return;
      if (!answered_) {
        become_leader(host);
      } else {
        // A lower-id node objected; give it time to announce itself.
        host.arm(Timer::kCoordinator, kCoordinatorTimeout);
      }
      return;
    case Timer::kCoordinator:
      electing_ = false;
      break;
    case Timer::kListen:
    case Timer::kBackupGrace:
      break;
  }
  // The listen window, the backup grace and an objector that never
  // announced itself all end the same way: elect if still leaderless.
  if (leader_ == kInvalidNode) maybe_start_election(host);
}

void Leadership::on_election(Host& host, NodeId candidate) {
  if (candidate == self_) return;
  if (i_am_leader_) {
    send_coordinator(host);
    return;
  }
  if (self_ < candidate && host.can_participate()) {
    host.send_answer(candidate);
    maybe_start_election(host);
  }
}

bool Leadership::hear_epoch(Host& host, const HeartbeatMsg& msg) {
  // Epochs are lineage-scoped: overlapping groups sharing this channel mint
  // independently, so a bigger number from an arbitrary sender proves
  // nothing by itself. A claim is stale only when the succession record
  // says this claimant's *current life* was already superseded at that
  // epoch; supersession of *our own* leadership likewise requires a direct
  // claim (leader flag / COORDINATOR), never second-hand member gossip.
  const NodeId sender = msg.entry->node();
  const bool stale =
      msg.is_leader &&
      fenced_stale(sender, msg.epoch, msg.entry->incarnation());
  if (msg.is_leader && !stale) {
    if (weigh(sender, msg.epoch) == Outranks::kByEpoch) {
      adopt_epoch(host, msg.epoch, sender);
    }
  } else if (!msg.is_leader && !i_am_leader_ && msg.epoch > epoch_) {
    // Member gossip raises the channel-history watermark (so a later mint
    // lands above it) but carries no supersession authority.
    epoch_ = msg.epoch;
  }
  return stale;
}

void Leadership::hear_claim(Host& host, const HeartbeatMsg& msg, bool stale,
                            bool bootstrapped) {
  const NodeId sender = msg.entry->node();
  if (stale) {
    // Reject the claim: don't adopt the sender as leader, don't yield to
    // it, don't pull its (stale) image. If we hold the live leadership,
    // repel it so the claimant abdicates and recovers on its own.
    if (i_am_leader_) {
      repel(host, sender, msg.epoch, msg.entry->incarnation());
    }
    if (leader_ == sender) leader_ = kInvalidNode;
  } else if (msg.is_leader) {
    const bool leader_changed = leader_ != sender;
    if (leader_changed) {
      resolve_succession();
      host.cancel(Timer::kBackupGrace);
      end_election(host);
    }
    follow(sender, msg.backup);
    if (i_am_leader_) {
      // Two leaders in mutual earshot: a newer-epoch claim was already
      // resolved by hear_epoch (we yielded), so what remains is an
      // equal-or-older claim from an independent lineage (healed merge,
      // overlap fringe). A leader never tolerates seeing another.
      if (weigh(sender, msg.epoch) == Outranks::kById) {
        abdicate(host);
        // Merged groups (e.g. a healed partition): exchange views with the
        // surviving leader so both sides' subtrees propagate.
        host.request_bootstrap(sender);
      } else {
        send_coordinator(host);
        leader_ = self_;
      }
    } else if (!bootstrapped || leader_changed) {
      // First contact with a leader, or a leadership handoff: (re)pull the
      // full image from whoever now leads this channel.
      host.request_bootstrap(sender);
    }
  } else if (leader_ == sender) {
    // It stepped down. Give a successor's claim the backup grace to arrive,
    // then elect: two leaders that yield to each other in the same instant
    // would otherwise leave the level with no leader and no election.
    lose_leader(host);
  }
}

Leadership::Heard Leadership::hear_coordinator(Host& host,
                                               const CoordinatorMsg& msg) {
  if (msg.leader == self_) return Heard::kKept;
  if (fenced_stale(msg.leader, msg.epoch, msg.leader_incarnation)) {
    // Stale replay: an announcement of leadership the group has since
    // re-elected away (e.g. a resumed leader's deferred COORDINATOR).
    if (i_am_leader_) {
      repel(host, msg.leader, msg.epoch, msg.leader_incarnation);
    }
    return Heard::kStale;
  }
  // Record the succession the announcement carries: claims by the named
  // predecessor's fenced life below this epoch are fenced from now on. This
  // is what lets a receiver that never directly hears the new leader still
  // reject the old one's replayed leadership.
  if (msg.prev != kInvalidNode && msg.prev != msg.leader && msg.prev != self_ &&
      msg.epoch > 0) {
    raise_fence(msg.prev, msg.epoch - 1, msg.prev_incarnation);
  }
  if (weigh(msg.leader, msg.epoch) == Outranks::kByEpoch) {
    // Resolves any leadership we held; fall through as a follower.
    adopt_epoch(host, msg.epoch, msg.leader);
  }
  if (i_am_leader_) {
    if (weigh(msg.leader, msg.epoch) == Outranks::kById) {
      follow(msg.leader, msg.backup);
      abdicate(host);
    }
    // Otherwise keep the role; the higher-id claimant will yield when it
    // hears our leader-flagged heartbeat.
    return Heard::kKept;
  }
  follow(msg.leader, msg.backup);
  resolve_succession();
  end_election(host);
  host.cancel(Timer::kBackupGrace);
  return Heard::kFollowed;
}

void Leadership::member_gone(Host& host, NodeId member) {
  if (leader_ == member) lose_leader(host);
  backup_lost(host, member);
}

void Leadership::backup_lost(Host& host, NodeId member) {
  if (i_am_leader_ && my_backup_ == member) my_backup_ = host.pick_backup();
}

void Leadership::leader_dead(Host& host, NodeId member, Incarnation life,
                             bool flagged) {
  if (!flagged && leader_ != member) return;
  // Leadership may already have been resolved (a backup's COORDINATOR beat
  // our own detection scan): do not contest it.
  if (leader_ != kInvalidNode && leader_ != member) return;
  leader_ = kInvalidNode;
  // Whoever wins the succession (backup takeover or election) names the
  // lost leader's life as superseded in its COORDINATOR.
  prev_leader_ = member;
  prev_incarnation_ = life;
  const NodeId backup = leader_backup_;
  leader_backup_ = kInvalidNode;
  if (backup == self_ && !i_am_leader_) {
    become_leader(host);  // designated backup takes over immediately
    return;
  }
  if (backup != kInvalidNode && host.is_member(backup)) {
    lose_leader(host);
  } else {
    maybe_start_election(host);
  }
}

void Leadership::maybe_start_election(Host& host) {
  if (electing_ || i_am_leader_ || !host.can_participate()) return;
  host.note(obs::TraceKind::kElectionStart, epoch_, 0);
  electing_ = true;
  answered_ = false;
  host.send_election();
  host.arm(Timer::kElection, kElectionTimeout);
}

void Leadership::become_leader(Host& host) {
  end_election(host);
  host.cancel(Timer::kBackupGrace);
  if (i_am_leader_) return;
  i_am_leader_ = true;
  leader_ = self_;
  my_backup_ = host.pick_backup();
  // Mint a new leadership epoch above everything heard on this channel, and
  // fence the predecessor we are succeeding: its claims (and replayed
  // updates) below the new epoch are stale from this moment on.
  epoch_ += 1;
  host.note(obs::TraceKind::kEpochMint, epoch_, 0);
  if (prev_leader_ != kInvalidNode && prev_leader_ != self_) {
    raise_fence(prev_leader_, epoch_ - 1, prev_incarnation_);
  }
  send_coordinator(host);
  host.took_lead();
}

void Leadership::abdicate(Host& host) {
  if (!i_am_leader_) return;
  i_am_leader_ = false;
  my_backup_ = kInvalidNode;
  host.gave_up_lead();
}

void Leadership::adopt_epoch(Host& host, Epoch epoch, NodeId new_leader) {
  if (epoch <= epoch_) return;
  epoch_ = epoch;
  resolve_succession();
  if (!i_am_leader_) return;
  // A direct claim outranks our leadership: either we were superseded while
  // out of earshot (pause, partition) and the group elected past us, or a
  // merge brought a longer-lived leadership into earshot. Step down
  // silently. The out-log is dropped, not replayed (it holds leaves stamped
  // while detached, which would purge live nodes), and the old subtree's
  // entries are the new leadership's to curate, so no purge either. Then
  // re-enter as a plain member and pull a fresh image.
  host.note(obs::TraceKind::kEpochSupersede, epoch, new_leader);
  leader_ = new_leader;
  abdicate(host);
  host.superseded(new_leader);
}

void Leadership::repel(Host& host, NodeId claimant, Epoch epoch,
                       Incarnation life) {
  // Pin the claimant's current life in the succession fence (it may predate
  // our own knowledge, e.g. the fence was learned from a COORDINATOR) and
  // name it in the re-assertion so followers that missed the original
  // announcement learn the succession too.
  raise_fence(claimant, epoch, life);
  host.note(obs::TraceKind::kStaleReject, claimant, epoch);
  prev_leader_ = claimant;
  prev_incarnation_ = life;
  send_coordinator(host);
  host.reseed();
}

void Leadership::send_coordinator(Host& host) {
  // Every caller leads, so the message always names the leadership this
  // one superseded (when it succeeded one): every receiver, including ones
  // that will never hear us directly, learns to fence the predecessor.
  CoordinatorMsg msg;
  msg.leader = self_;
  msg.backup = my_backup_;
  msg.epoch = epoch_;
  msg.prev = prev_leader_;
  msg.prev_incarnation = prev_incarnation_;
  host.send_coordinator(msg);
}

void Leadership::raise_fence(NodeId node, Epoch epoch, Incarnation life) {
  // Fences are per-life: a record for a newer incarnation replaces the old
  // life's record wholesale (the old life can never claim again anyway),
  // while within one life the fence only ever rises.
  Fence& fence = superseded_[node];
  if (life > fence.incarnation) {
    fence.incarnation = life;
    fence.epoch = epoch;
  } else if (life == fence.incarnation) {
    fence.epoch = std::max(fence.epoch, epoch);
  }
}

void Leadership::end_election(Host& host) {
  electing_ = false;
  answered_ = false;
  host.cancel(Timer::kElection);
  host.cancel(Timer::kCoordinator);
}

}  // namespace tamp::protocols
