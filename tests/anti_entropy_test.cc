// The anti-entropy unit (protocols/anti_entropy.h) on its own: one relay
// leading a group and two receivers in it, each a real AntiEntropy over a
// real MembershipTable behind a fake host, with no network and a clock the
// explorer moves. A message is delivered, dropped or left pending.
//
// The explorer runs a fair schedule (the oldest message first, then the
// earliest overdue check due before the relay's next round, then that
// round) and branches at every state over each step that departs from it:
// delivering another message, dropping one, a late overdue check, a row
// change at the relay, a truncation (the relay learns
// kDigestMaxRowsPerDelta + 1 rows at once) and a leader change with its
// fence. Every script with at most kDepartures such steps is explored,
// memoising worlds by a fingerprint in which every time is relative to now.
//
// Along every script: no receiver expires a row the leader still holds (a
// false leave), no receiver takes a delta from a life it fenced, and a
// round with no departure in it leaves every receiver holding every row of
// the leader's. In every quiescent world (one that a further fair round
// leaves unchanged) every receiver's scope hashes equal the leader's.
//
// What the model leaves out, each because the daemon covers it elsewhere:
// - Between rounds the leader's own relayed rows are kept fresh by the tree
//   beyond this group; the model refreshes them at each of its round ticks.
// - An escalation is the relay serving its full image, which the receiver
//   absorbs. The real sync exchange retries until it is answered, so the
//   image is never dropped, and its reconciliation removes nothing the
//   orphan expiry would not.
// - Nothing removes a row with a tombstone, so a table is fully described
//   by its rows.
#include "protocols/anti_entropy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "membership/codec.h"
#include "protocols/hier.h"

namespace tamp::protocols {
namespace {

using membership::Epoch;
using membership::Incarnation;
using membership::kInvalidNode;
using membership::Liveness;
using membership::MembershipEntry;
using membership::MembershipTable;
using membership::NodeId;
using membership::RefreshDeltaMsg;
using membership::RefreshDigestMsg;
using membership::RefreshPullMsg;
using membership::RowRef;

constexpr size_t kNodes = 3;
// At most two drops, and of those at most one pull or delta: two lost
// exchanges are AntiEntropyKnownBug.TwoLostExchangesExpireARowTheLeaderHolds.
constexpr int kMaxDrops = 2;
constexpr int kMaxExchangeDrops = 1;
constexpr int kDepartures = 3;
// A script longer than this is a livelock: the explorer stops it and fails.
constexpr int kMaxSteps = 150;
constexpr Incarnation kLife = 1;
constexpr size_t kMaxViolations = 5;
// The leader's subject rows come from below the group.
constexpr NodeId kBelow = 50;
// Subject rows: 10-14 at the start, 15 added by a row change, and 100 on
// by a truncation.
constexpr NodeId kAdded = 15;
constexpr NodeId kTruncatedBase = 100;
constexpr size_t kTruncatedRows = kDigestMaxRowsPerDelta + 1;

NodeId id_of(size_t index) { return static_cast<NodeId>(index + 1); }
size_t index_of(NodeId id) { return id - 1; }
bool is_node(NodeId id) { return id >= 1 && id <= kNodes; }

sim::Duration round_interval() { return HierConfig{}.refresh_interval; }
sim::Duration heartbeat_period() { return HierConfig{}.period; }
// The horizon past which HierDaemon::heartbeat_tick expires a relayed row
// nobody reconfirmed.
sim::Duration orphan_horizon() {
  const HierConfig config;
  const sim::Duration top = level_timeout(config, config.max_ttl - 1);
  return std::max(2 * top, 2 * config.refresh_interval + top);
}

RowRef row_of(NodeId node, Incarnation incarnation) {
  static std::map<std::pair<NodeId, Incarnation>, RowRef> rows;
  auto [it, fresh] = rows.try_emplace({node, incarnation});
  if (fresh) {
    membership::EntryData data;
    data.node = node;
    data.incarnation = incarnation;
    it->second = membership::make_row(std::move(data));
  }
  return it->second;
}

// One table row, as the world stores it between steps.
struct Row {
  RowRef row;
  Liveness liveness = Liveness::kDirect;
  NodeId relayed_by = kInvalidNode;
  sim::Time last_heard = 0;
};
using Rows = std::vector<Row>;  // id order

MembershipTable load(const Rows& rows) {
  MembershipTable table;
  for (const Row& r : rows) {
    table.apply(r.row, r.liveness, r.relayed_by, r.last_heard);
  }
  return table;
}

Rows save(const MembershipTable& table) {
  Rows rows;
  for (const auto& [id, e] : table.entries()) {
    rows.push_back(Row{e.row, e.liveness, e.relayed_by, e.last_heard});
  }
  return rows;
}

const Row* find(const Rows& rows, NodeId node) {
  for (const Row& r : rows) {
    if (r.row->node() == node) return &r;
  }
  return nullptr;
}

// The escalation's answer: the responder's full view.
struct Image {
  std::vector<RowRef> rows;
  Epoch epoch = 0;
};

// One copy of a message on its way to one receiver. A multicast posts a
// copy per receiver, so each link loses or delivers on its own.
struct Msg {
  uint8_t to = 0;
  uint8_t from = 0;
  std::variant<RefreshDigestMsg, RefreshPullMsg, RefreshDeltaMsg, Image> body;
};

struct Node {
  explicit Node(NodeId self) : unit(self, 0) {}
  AntiEntropy unit;
  Rows rows;
  // A late overdue check fires no earlier than this.
  sim::Time hold = 0;
};

struct World {
  std::array<Node, kNodes> nodes{Node(id_of(0)), Node(id_of(1)),
                                 Node(id_of(2))};
  std::vector<Msg> pending;  // oldest first
  sim::Time now = 0;
  sim::Time next_round = 0;  // the leader's next round tick
  size_t leader = 0;
  Epoch epoch = 1;
  uint8_t drops = 0;
  uint8_t exchange_drops = 0;  // pulls and deltas among the drops
  // No departure since the last round tick, so the round now ending must
  // have repaired every row the leader held when it began.
  bool clean = false;
  bool row_changed = false;
  bool truncated = false;
  bool leader_changed = false;

  // Whether `at` fenced `sender`'s life at `epoch`: after the leader
  // change, every other node holds the first leader's epoch-1 life
  // superseded.
  bool fenced(size_t at, NodeId sender, Epoch stamped,
              Incarnation life) const {
    return leader_changed && at != 0 && sender == id_of(0) && life <= kLife &&
           stamped <= 1;
  }
};

class FakeHost final : public AntiEntropy::Host {
 public:
  FakeHost(World& world, std::array<MembershipTable, kNodes>& tables,
           size_t self, bool stale = false)
      : world_(world), tables_(tables), self_(self), stale_(stale) {}

  // Set when the unit took rows or confirmations from a fenced life.
  std::string problem;

  void send_digest(RefreshDigestMsg msg) override {
    for (size_t to = 0; to < kNodes; ++to) {
      if (to != self_) post(to, msg);
    }
  }
  void send_pull(NodeId origin, RefreshPullMsg msg) override {
    post(index_of(origin), std::move(msg));
  }
  void send_delta(NodeId requester, RefreshDeltaMsg msg) override {
    post(index_of(requester), std::move(msg));
  }
  void absorb(const std::vector<RowRef>& rows, NodeId responder) override {
    if (stale_) {
      problem = "node " + std::to_string(id_of(self_)) +
                " took a delta from node " + std::to_string(responder) +
                "'s fenced life";
    }
    absorb_rows(tables_[self_], self_, rows, responder, world_.now);
  }
  void escalate(NodeId responder) override {
    Image image;
    for (const auto& [id, e] : tables_[index_of(responder)].entries()) {
      image.rows.push_back(e.row);
    }
    image.epoch = world_.epoch;
    world_.pending.push_back(Msg{static_cast<uint8_t>(self_),
                                 static_cast<uint8_t>(index_of(responder)),
                                 std::move(image)});
  }
  bool rejects_stale(NodeId sender, Epoch epoch, Incarnation life) override {
    return world_.fenced(self_, sender, epoch, life);
  }
  bool is_member(NodeId node) const override { return is_node(node); }
  NodeId leader() const override { return id_of(world_.leader); }
  Epoch epoch() const override { return world_.epoch; }
  Incarnation incarnation() const override { return kLife; }
  sim::Duration round_interval() const override {
    return protocols::round_interval();
  }
  sim::Duration heartbeat_period() const override {
    return protocols::heartbeat_period();
  }
  void note(AntiEntropy::Count, uint64_t) override {}

  // HierDaemon::absorb_entries, cut down to the table.
  static void absorb_rows(MembershipTable& table, size_t self,
                          const std::vector<RowRef>& rows, NodeId relayed_by,
                          sim::Time now) {
    for (const RowRef& row : rows) {
      if (row->node() == id_of(self)) continue;
      table.apply_relayed(row, relayed_by, now, is_node);
    }
  }

 private:
  template <typename Body>
  void post(size_t to, Body body) {
    world_.pending.push_back(Msg{static_cast<uint8_t>(to),
                                 static_cast<uint8_t>(self_),
                                 std::move(body)});
  }

  World& world_;
  std::array<MembershipTable, kNodes>& tables_;
  size_t self_;
  bool stale_;
};

// --- the steps a script is made of ------------------------------------------

enum class Op : uint8_t {
  kDeliver, kDrop, kCheck, kRound, kLate, kChange, kTruncate, kLead
};

struct Step {
  Op op = Op::kRound;
  size_t index = 0;    // kDeliver, kDrop: position in `pending`
  uint8_t node = 0;    // kCheck, kLate
  NodeId subject = 0;  // kChange: the row bumped or added
};

Step on_message(Op op, size_t index) {
  Step step;
  step.op = op;
  step.index = index;
  return step;
}
Step at_node(Op op, size_t node) {
  Step step;
  step.op = op;
  step.node = static_cast<uint8_t>(node);
  return step;
}
Step change(NodeId subject) {
  Step step;
  step.op = Op::kChange;
  step.subject = subject;
  return step;
}

// When node `i`'s next overdue check is due, if it has a stream.
std::optional<sim::Time> check_time(const World& w, size_t i) {
  const AntiEntropy::Deadlines& due = w.nodes[i].unit.deadlines();
  if (due.empty()) return std::nullopt;
  sim::Time when = due.begin()->second;
  for (const auto& [stream, at] : due) when = std::min(when, at);
  return std::max({when, w.nodes[i].hold, w.now});
}

std::string describe_msg(const Msg& m) {
  char buf[120];
  const unsigned from = id_of(m.from);
  const unsigned to = id_of(m.to);
  if (const auto* d = std::get_if<RefreshDigestMsg>(&m.body)) {
    std::snprintf(buf, sizeof buf, "digest %u->%u (%u rows, epoch %llu)", from,
                  to, d->row_count, static_cast<unsigned long long>(d->epoch));
  } else if (const auto* p = std::get_if<RefreshPullMsg>(&m.body)) {
    std::snprintf(buf, sizeof buf, "pull %u->%u (%zu buckets, %zu rows)", from,
                  to, p->bucket_indices.size(), p->rows.size());
  } else if (const auto* d = std::get_if<RefreshDeltaMsg>(&m.body)) {
    std::snprintf(buf, sizeof buf,
                  "delta %u->%u (%zu rows, %zu confirmed%s, epoch %llu)", from,
                  to, d->entries.size(), d->confirmed.size(),
                  d->truncated ? ", truncated" : "",
                  static_cast<unsigned long long>(d->epoch));
  } else {
    std::snprintf(buf, sizeof buf, "image %u->%u (%zu rows)", from, to,
                  std::get<Image>(m.body).rows.size());
  }
  return buf;
}

std::string describe(const World& before, const Step& s) {
  char buf[160];
  const double t = static_cast<double>(before.now) / sim::kSecond;
  switch (s.op) {
    case Op::kDeliver:
    case Op::kDrop:
      std::snprintf(buf, sizeof buf, "t=%.0fs %s %s", t,
                    s.op == Op::kDeliver ? "deliver" : "drop",
                    describe_msg(before.pending[s.index]).c_str());
      break;
    case Op::kCheck:
      std::snprintf(buf, sizeof buf, "t=%.0fs overdue check at %u",
                    static_cast<double>(*check_time(before, s.node)) /
                        sim::kSecond,
                    id_of(s.node));
      break;
    case Op::kRound:
      std::snprintf(
          buf, sizeof buf, "t=%.0fs round of leader %u",
          static_cast<double>(before.next_round) / sim::kSecond,
          id_of(before.leader));
      break;
    case Op::kLate:
      std::snprintf(buf, sizeof buf, "t=%.0fs overdue check at %u runs late",
                    t, id_of(s.node));
      break;
    case Op::kChange:
      std::snprintf(buf, sizeof buf, "t=%.0fs leader %s row %u", t,
                    s.subject == kAdded ? "adds" : "bumps", s.subject);
      break;
    case Op::kTruncate:
      std::snprintf(buf, sizeof buf, "t=%.0fs leader learns %zu rows", t,
                    kTruncatedRows);
      break;
    case Op::kLead:
      std::snprintf(buf, sizeof buf,
                    "t=%.0fs node %u takes the lead, fencing node %u", t,
                    id_of(1), id_of(0));
      break;
  }
  return buf;
}

// Moves the clock to `t`. Receivers expire the relayed rows nobody
// reconfirmed within the orphan horizon; one the leader still holds is a
// false leave.
std::string advance(World& w, std::array<MembershipTable, kNodes>& tables,
                    sim::Time t) {
  w.now = t;
  std::string problem;
  for (size_t i = 0; i < kNodes; ++i) {
    if (i == w.leader) continue;
    auto expired = tables[i].expire(t, [&](const MembershipEntry& e) {
      return e.liveness == Liveness::kRelayed ? orphan_horizon()
                                              : sim::Duration{-1};
    });
    for (NodeId id : expired) {
      if (problem.empty() && tables[w.leader].find(id) != nullptr) {
        problem = "row " + std::to_string(id) + " expired at node " +
                  std::to_string(id_of(i)) + " though leader " +
                  std::to_string(id_of(w.leader)) + " holds it";
      }
    }
  }
  return problem;
}

void relayed_at_leader(World& w, MembershipTable& table, const RowRef& row) {
  table.apply(row, Liveness::kRelayed, kBelow, w.now);
}

bool departs(const Step& step) {
  return step.op != Op::kCheck && step.op != Op::kRound &&
         !(step.op == Op::kDeliver && step.index == 0);
}

// Empty when every receiver holds every row of the leader's, in its version.
std::string check_covered(const World& w) {
  const Rows& leader = w.nodes[w.leader].rows;
  for (size_t i = 0; i < kNodes; ++i) {
    if (i == w.leader) continue;
    for (const Row& r : leader) {
      const Row* held = find(w.nodes[i].rows, r.row->node());
      if (held == nullptr || held->row->hash() != r.row->hash()) {
        return "after a round with no departure, node " +
               std::to_string(id_of(i)) + " lacks row " +
               std::to_string(r.row->node()) + " of leader " +
               std::to_string(id_of(w.leader));
      }
    }
  }
  return {};
}

// Runs `step` on `w`; returns what went wrong, if anything.
std::string apply(World& w, const Step& step) {
  if (departs(step)) w.clean = false;
  std::array<MembershipTable, kNodes> tables;
  for (size_t i = 0; i < kNodes; ++i) tables[i] = load(w.nodes[i].rows);
  std::string problem;
  MembershipTable& lead = tables[w.leader];
  switch (step.op) {
    case Op::kDeliver: {
      const Msg m = w.pending[step.index];
      w.pending.erase(w.pending.begin() + static_cast<long>(step.index));
      AntiEntropy& unit = w.nodes[m.to].unit;
      MembershipTable& table = tables[m.to];
      if (const auto* d = std::get_if<RefreshDigestMsg>(&m.body)) {
        FakeHost host(w, tables, m.to);
        unit.on_digest(host, table, w.now, *d);
      } else if (const auto* p = std::get_if<RefreshPullMsg>(&m.body)) {
        FakeHost host(w, tables, m.to);
        unit.on_pull(host, table, *p);
      } else if (const auto* d = std::get_if<RefreshDeltaMsg>(&m.body)) {
        FakeHost host(w, tables, m.to,
                      w.fenced(m.to, d->responder, d->epoch,
                               d->responder_incarnation));
        unit.on_delta(host, table, w.now, *d);
        problem = host.problem;
      } else {
        const Image& image = std::get<Image>(m.body);
        if (!w.fenced(m.to, id_of(m.from), image.epoch, kLife)) {
          FakeHost::absorb_rows(table, m.to, image.rows, id_of(m.from), w.now);
        }
      }
      break;
    }
    case Op::kDrop:
      if (!std::holds_alternative<RefreshDigestMsg>(
              w.pending[step.index].body)) {
        ++w.exchange_drops;
      }
      w.pending.erase(w.pending.begin() + static_cast<long>(step.index));
      ++w.drops;
      break;
    case Op::kCheck: {
      problem = advance(w, tables, *check_time(w, step.node));
      w.nodes[step.node].hold = 0;
      FakeHost host(w, tables, step.node);
      w.nodes[step.node].unit.check_overdue(host, tables[step.node], w.now);
      break;
    }
    case Op::kRound: {
      // The round that began at the last tick ends here.
      if (w.clean) problem = check_covered(w);
      w.clean = true;
      if (std::string expired = advance(w, tables, w.next_round);
          problem.empty()) {
        problem = expired;
      }
      w.next_round += round_interval();
      for (const auto& [id, e] : lead.entries()) {
        lead.reconfirm_relay(e, e.relayed_by, w.now);
      }
      FakeHost host(w, tables, w.leader);
      w.nodes[w.leader].unit.round(host, lead, /*subtree=*/false);
      break;
    }
    case Op::kLate:
      w.nodes[step.node].hold = w.next_round;
      break;
    case Op::kChange: {
      w.row_changed = true;
      const MembershipEntry* held = lead.find(step.subject);
      relayed_at_leader(w, lead,
                        row_of(step.subject,
                               held ? held->row->incarnation() + 1 : kLife));
      break;
    }
    case Op::kTruncate:
      w.truncated = true;
      for (size_t k = 0; k < kTruncatedRows; ++k) {
        relayed_at_leader(w, lead,
                          row_of(kTruncatedBase + static_cast<NodeId>(k),
                                 kLife));
      }
      break;
    case Op::kLead: {
      // Node 2 takes the lead at epoch 2, current with everything node 1
      // relayed (a leader that is itself behind is the bootstrap path's
      // business, not this unit's). Its COORDINATOR names node 1 as
      // superseded, and it re-seeds the group with its whole view
      // (HierDaemon::send_state_refresh), a sequenced update that arrives.
      w.leader_changed = true;
      w.leader = 1;
      w.epoch = 2;
      std::vector<RowRef> view;
      for (const auto& [id, e] : tables[0].entries()) view.push_back(e.row);
      FakeHost::absorb_rows(tables[1], 1, view, id_of(0), w.now);
      view.clear();
      for (const auto& [id, e] : tables[1].entries()) view.push_back(e.row);
      for (size_t i = 0; i < kNodes; ++i) {
        if (i != 1) FakeHost::absorb_rows(tables[i], i, view, id_of(1), w.now);
      }
      // The fair schedule's phase for the new leader's round timer: its
      // first round follows the re-seed. A later phase is
      // AntiEntropyKnownBug.NewLeadersFirstRoundsHaveNoDeadline.
      w.next_round = w.now;
      break;
    }
  }
  for (size_t i = 0; i < kNodes; ++i) w.nodes[i].rows = save(tables[i]);
  return problem;
}

// The fair schedule's next step: the oldest message, else the earliest
// overdue check due before the leader's next round, else that round.
Step fair_step(const World& w) {
  if (!w.pending.empty()) return on_message(Op::kDeliver, 0);
  std::optional<size_t> first;
  sim::Time first_at = w.next_round;
  for (size_t i = 0; i < kNodes; ++i) {
    const std::optional<sim::Time> at = check_time(w, i);
    if (at && *at < first_at) {
      first = i;
      first_at = *at;
    }
  }
  return first ? at_node(Op::kCheck, *first) : Step{};
}

// Every step that departs from the fair one.
std::vector<Step> departures(const World& w, const Step& fair) {
  std::vector<Step> out;
  for (size_t i = 0; i < w.pending.size(); ++i) {
    if (i > 0) out.push_back(on_message(Op::kDeliver, i));
    const auto& body = w.pending[i].body;
    const bool digest = std::holds_alternative<RefreshDigestMsg>(body);
    if (w.drops < kMaxDrops && !std::holds_alternative<Image>(body) &&
        (digest || w.exchange_drops < kMaxExchangeDrops)) {
      out.push_back(on_message(Op::kDrop, i));
    }
  }
  if (fair.op == Op::kCheck) out.push_back(at_node(Op::kLate, fair.node));
  if (!w.row_changed) {
    for (NodeId subject = 10; subject <= 13; ++subject) {
      out.push_back(change(subject));
    }
    out.push_back(change(kAdded));
  }
  if (!w.truncated) out.push_back(Step{Op::kTruncate});
  if (!w.leader_changed) out.push_back(Step{Op::kLead});
  return out;
}

// A world's fingerprint. Every time in it is taken relative to now, so a
// world that repeats a round later is the same world.
using Key = std::pair<uint64_t, uint64_t>;

Key key_of(const World& w) {
  std::string bytes;
  auto put = [&](uint64_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  auto ago = [&](sim::Time t) { return static_cast<uint64_t>(w.now - t); };
  auto ahead = [&](sim::Time t) {
    return static_cast<uint64_t>(std::max<sim::Duration>(t - w.now, 0));
  };
  for (const Node& n : w.nodes) {
    for (const Row& r : n.rows) {
      const bool relayed = r.liveness == Liveness::kRelayed;
      put(uint64_t{r.row->node()} << 32 | r.relayed_by);
      put(r.row->hash());
      put(relayed ? ago(r.last_heard) + 1 : 0);
    }
    put(~uint64_t{0});
    for (const auto& [stream, due] : n.unit.deadlines()) {
      put(uint64_t{stream.first} << 1 | (stream.second ? 1 : 0));
      put(static_cast<uint64_t>(due - w.now));
    }
    put(ahead(n.hold));
  }
  put(ahead(w.next_round));
  put(uint64_t{w.leader} << 40 | w.epoch << 24 |
      uint64_t{w.exchange_drops} << 16 | uint64_t{w.drops} << 8 |
      (w.clean ? 8 : 0) | (w.row_changed ? 4 : 0) | (w.truncated ? 2 : 0) |
      (w.leader_changed ? 1 : 0));
  for (const Msg& m : w.pending) {
    put(uint64_t{m.to} << 16 | uint64_t{m.from} << 8 | m.body.index());
    std::visit(
        [&](const auto& body) {
          if constexpr (std::is_same_v<std::decay_t<decltype(body)>, Image>) {
            put(body.epoch);
            for (const RowRef& row : body.rows) put(row->hash());
          } else {
            const auto encoded =
                membership::encode_message_bytes(membership::Message{body});
            bytes.append(encoded.begin(), encoded.end());
          }
        },
        m.body);
  }
  uint64_t fnv = 1469598103934665603ull;
  for (char c : bytes) fnv = (fnv ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return {std::hash<std::string>{}(bytes), fnv};
}

struct KeyHash {
  size_t operator()(const Key& k) const { return k.first; }
};

// The worlds already expanded, each with the most departures it had left.
class Memo {
 public:
  // Whether `key` is new, or was expanded with fewer departures left.
  bool admit(const Key& key, int left) {
    auto [it, fresh] = seen_.try_emplace(key, left);
    if (fresh) return true;
    if (it->second >= left) return false;
    it->second = left;
    return true;
  }
  size_t size() const { return seen_.size(); }

 private:
  std::unordered_map<Key, int, KeyHash> seen_;
};

// Every fair step up to the leader's next round; the first problem met.
std::string settle(World& w) {
  std::string problem;
  for (int budget = kMaxSteps; fair_step(w).op != Op::kRound && budget > 0;
       --budget) {
    if (std::string bad = apply(w, fair_step(w)); problem.empty()) {
      problem = bad;
    }
  }
  return problem;
}

// `w` one fair round later: the round, then every fair step up to the next.
World after_round(const World& w) {
  World next = w;
  apply(next, Step{});
  settle(next);
  return next;
}

using Buckets = std::array<uint64_t, kDigestBuckets>;
Buckets scope_hashes(const Rows& rows) {
  Buckets out{};
  for (const Row& r : rows) {
    out[membership::digest_bucket_of(r.row->node(), kDigestBuckets)] ^=
        r.row->hash();
  }
  return out;
}

// Empty when the quiescent world is sound: every receiver's downward scope
// hashes equal the leader's.
std::string check_quiescent(const World& w) {
  const Rows& lead = w.nodes[w.leader].rows;
  for (size_t i = 0; i < kNodes; ++i) {
    if (i == w.leader) continue;
    const Rows& mine = w.nodes[i].rows;
    if (scope_hashes(mine) == scope_hashes(lead)) continue;
    std::string text = "node " + std::to_string(id_of(i)) +
                       "'s scope hashes differ from leader " +
                       std::to_string(id_of(w.leader)) + "'s:";
    for (const Row& r : lead) {
      const Row* held = find(mine, r.row->node());
      if (held == nullptr || held->row->hash() != r.row->hash()) {
        text += " lacks " + std::to_string(r.row->node());
      }
    }
    for (const Row& r : mine) {
      if (find(lead, r.row->node()) == nullptr) {
        text += " extra " + std::to_string(r.row->node());
      }
    }
    return text;
  }
  return {};
}

// The group at the start: every node hears the other two. The leader
// relays rows 10-13 from below; node 2 holds a stale row 11 and lacks row
// 12, and node 3 still holds row 14, whose LEAVE it lost.
World formation() {
  World w;
  std::array<MembershipTable, kNodes> tables;
  for (size_t i = 0; i < kNodes; ++i) {
    for (size_t j = 0; j < kNodes; ++j) {
      tables[i].apply(row_of(id_of(j), kLife), Liveness::kDirect,
                      kInvalidNode, 0);
    }
  }
  const std::map<size_t, std::vector<std::pair<NodeId, Incarnation>>> held =
      {{0, {{10, 1}, {11, 2}, {12, 1}, {13, 1}}},
       {1, {{10, 1}, {11, 1}, {13, 1}}},
       {2, {{10, 1}, {11, 2}, {12, 1}, {13, 1}, {14, 1}}}};
  for (const auto& [i, rows] : held) {
    for (const auto& [subject, life] : rows) {
      tables[i].apply(row_of(subject, life), Liveness::kRelayed,
                      i == 0 ? kBelow : id_of(0), 0);
    }
  }
  for (size_t i = 0; i < kNodes; ++i) w.nodes[i].rows = save(tables[i]);
  return w;
}

struct Explored {
  size_t states = 0;
  size_t quiescent = 0;
  size_t cut = 0;  // scripts stopped at kMaxSteps
  std::vector<std::string> violations;  // each with the script that led there
};

Explored explore(const World& start, int departures_allowed) {
  Explored out;
  Memo memo;
  std::vector<std::string> script;
  // The keys visited by fair steps since the last departure: meeting one
  // again is a fair schedule that cycles without settling.
  std::vector<Key> run;
  auto report = [&](const std::string& what) {
    std::string text = what + "; script:";
    for (const std::string& s : script) text += "\n  " + s;
    out.violations.push_back(std::move(text));
  };
  std::function<void(const World&, int)> visit = [&](const World& w,
                                                       int left) {
    if (out.violations.size() >= kMaxViolations) return;
    const Key key = key_of(w);
    if (std::find(run.begin(), run.end(), key) != run.end()) {
      report("the fair schedule cycles without settling");
      return;
    }
    const size_t known = memo.size();
    if (!memo.admit(key, left)) return;
    const bool fresh = memo.size() > known;
    const Step fair = fair_step(w);
    const bool quiescent =
        fair.op == Op::kRound && key_of(after_round(w)) == key;
    if (fresh && quiescent) {
      ++out.quiescent;
      if (std::string bad = check_quiescent(w); !bad.empty()) report(bad);
    }
    if (script.size() >= static_cast<size_t>(kMaxSteps)) {
      ++out.cut;
      return;
    }
    auto step_to = [&](const Step& step, int cost) {
      World next = w;
      script.push_back(describe(w, step));
      if (std::string bad = apply(next, step); !bad.empty()) {
        report(bad);
      } else if (cost == 0) {
        run.push_back(key);
        visit(next, left);
        run.pop_back();
      } else {
        std::vector<Key> saved = std::move(run);
        run.clear();
        visit(next, left - cost);
        run = std::move(saved);
      }
      script.pop_back();
    };
    // A quiescent world's round leads back to itself.
    if (!quiescent) step_to(fair, 0);
    if (left == 0) return;
    for (const Step& step : departures(w, fair)) step_to(step, 1);
  };
  visit(start, departures_allowed);
  out.states = memo.size();
  return out;
}

TEST(AntiEntropyExplorer, EveryBoundedScriptConvergesWithoutFalseLeaves) {
  const auto begin = std::chrono::steady_clock::now();
  const Explored result = explore(formation(), kDepartures);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  std::printf("anti-entropy explorer: %zu states, %zu quiescent, %.2f s\n",
              result.states, result.quiescent, seconds);
  EXPECT_GT(result.quiescent, 0u);
  EXPECT_EQ(result.cut, 0u);
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
}

// --- single units ------------------------------------------------------------

// Counts every send and effect the unit asks of its host; answers its
// queries as a member of node 1's group at epoch 1.
struct CountingHost final : AntiEntropy::Host {
  int calls = 0;
  std::vector<RefreshDigestMsg> digests;
  std::vector<RefreshPullMsg> pulls;
  void send_digest(RefreshDigestMsg msg) override {
    ++calls;
    digests.push_back(std::move(msg));
  }
  void send_pull(NodeId, RefreshPullMsg msg) override {
    ++calls;
    pulls.push_back(std::move(msg));
  }
  void send_delta(NodeId, RefreshDeltaMsg) override { ++calls; }
  void absorb(const std::vector<RowRef>&, NodeId) override { ++calls; }
  void escalate(NodeId) override { ++calls; }
  bool rejects_stale(NodeId, Epoch, Incarnation) override { return false; }
  bool is_member(NodeId node) const override { return is_node(node); }
  NodeId leader() const override { return id_of(0); }
  Epoch epoch() const override { return 1; }
  Incarnation incarnation() const override { return kLife; }
  sim::Duration round_interval() const override {
    return protocols::round_interval();
  }
  sim::Duration heartbeat_period() const override {
    return protocols::heartbeat_period();
  }
  void note(AntiEntropy::Count, uint64_t) override { ++calls; }
};

// Nodes 1-3 heard directly, and rows 10-13 relayed by `relay`.
MembershipTable group_table(NodeId relay) {
  MembershipTable table;
  for (size_t j = 0; j < kNodes; ++j) {
    table.apply(row_of(id_of(j), kLife), Liveness::kDirect, kInvalidNode, 0);
  }
  for (NodeId subject = 10; subject <= 13; ++subject) {
    table.apply(row_of(subject, kLife), Liveness::kRelayed, relay, 0);
  }
  return table;
}

// Leader 1's digest of `table`.
RefreshDigestMsg digest_of(const MembershipTable& table) {
  CountingHost host;
  AntiEntropy(id_of(0), 0).round(host, table, /*subtree=*/false);
  return host.digests.at(0);
}

// The steady case: a receiver whose scope matches the relay's hears a
// digest, sends nothing, and reconfirms each relayed row to the digest's
// origin: re-rooted there and stamped now, as a full re-announcement would
// leave it. Rows it hears directly keep their own stamps.
TEST(AntiEntropyUnit, SteadyDigestSendsNothingAndReconfirmsEachRelayedRow) {
  const RefreshDigestMsg digest = digest_of(group_table(kBelow));
  MembershipTable table = group_table(kBelow);
  AntiEntropy unit(id_of(1), 0);
  CountingHost host;
  const sim::Time now = 5 * sim::kSecond;
  unit.on_digest(host, table, now, digest);
  EXPECT_EQ(host.calls, 0);
  for (const auto& [id, e] : table.entries()) {
    if (e.liveness == Liveness::kRelayed) {
      EXPECT_EQ(e.relayed_by, id_of(0)) << "row " << id;
      EXPECT_EQ(e.last_heard, now) << "row " << id;
    } else {
      EXPECT_EQ(e.last_heard, 0) << "row " << id;
    }
  }
  const AntiEntropy::Deadlines owed = {
      {{id_of(0), false}, now + round_interval() + heartbeat_period()}};
  EXPECT_EQ(unit.deadlines(), owed);
  // The deadlines are the unit's whole state: leaving forgets them all.
  unit.leave();
  EXPECT_EQ(unit, AntiEntropy(id_of(1), 0));
}

// A pull's bucket indices are read in the one geometry every digest is
// built in, kDigestBuckets. A digest in another geometry cannot be answered
// with the rows it asks about, so it draws no pull and reconfirms nothing;
// the same divergence under a kDigestBuckets digest is pulled.
TEST(AntiEntropyUnit, ForeignBucketGeometryDrawsNoPull) {
  MembershipTable leader = group_table(kBelow);
  leader.apply(row_of(12, 2), Liveness::kRelayed, kBelow, 0);
  const RefreshDigestMsg honest = digest_of(leader);
  for (size_t buckets : {size_t{1}, size_t{8}, size_t{1024}, kDigestBuckets}) {
    RefreshDigestMsg digest = honest;
    digest.buckets.assign(buckets, 0);
    for (const auto& [id, e] : leader.entries()) {
      digest.buckets[membership::digest_bucket_of(id, buckets)] ^=
          e.row->hash();
    }
    MembershipTable table = group_table(id_of(0));
    AntiEntropy unit(id_of(1), 0);
    CountingHost host;
    unit.on_digest(host, table, 5 * sim::kSecond, digest);
    if (buckets == kDigestBuckets) {
      ASSERT_EQ(host.pulls.size(), 1u);
      EXPECT_EQ(host.pulls[0].bucket_indices,
                std::vector<uint16_t>{static_cast<uint16_t>(
                    membership::digest_bucket_of(12, kDigestBuckets))});
      continue;
    }
    EXPECT_EQ(host.calls, 0) << buckets << " buckets";
    for (const auto& [id, e] : table.entries()) {
      EXPECT_EQ(e.last_heard, 0) << buckets << " buckets, row " << id;
    }
  }
}

// --- scripts pinned by hand --------------------------------------------------

// Delivers fairly until a message of type `Body` from node `from` to node
// `to` is pending, then drops it.
template <typename Body>
void drop(World& w, size_t from, size_t to) {
  while (true) {
    for (size_t i = 0; i < w.pending.size(); ++i) {
      const Msg& m = w.pending[i];
      if (m.from == from && m.to == to &&
          std::holds_alternative<Body>(m.body)) {
        apply(w, on_message(Op::kDrop, i));
        return;
      }
    }
    if (w.pending.empty()) break;
    apply(w, on_message(Op::kDeliver, 0));
  }
  ADD_FAILURE() << "nothing sent from " << id_of(from) << " to " << id_of(to);
}

// Known bug, pinned as today's outcome: a row in a mismatched bucket is
// reconfirmed only by the delta, and a lost pull or delta is retried by
// nothing until the next round. The leader learns a new version of row 10
// that node 3 missed, so the next rounds mismatch that bucket; two lost
// exchanges in a row age node 3's copy past the orphan horizon, and it
// expires although the leader holds the row: a false leave. A lost digest
// is pulled at once (check_overdue); a lost exchange has no such deadline.
TEST(AntiEntropyKnownBug, TwoLostExchangesExpireARowTheLeaderHolds) {
  World w = formation();
  ASSERT_EQ(apply(w, Step{}), "");  // t=0: every row reconfirmed
  ASSERT_EQ(settle(w), "");
  ASSERT_EQ(apply(w, change(10)), "");
  ASSERT_EQ(apply(w, Step{}), "");  // t=30: the exchange with node 3 is lost
  drop<RefreshDeltaMsg>(w, 0, 2);
  ASSERT_EQ(settle(w), "");
  ASSERT_EQ(apply(w, Step{}), "");  // t=60: and again
  drop<RefreshPullMsg>(w, 2, 0);
  ASSERT_EQ(settle(w), "");
  EXPECT_EQ(apply(w, Step{}),  // t=90: 90 s without a reconfirmation
            "row 10 expired at node 3 though leader 1 holds it");
}

// Known bug, pinned as today's outcome: a receiver learns a stream's
// deadline from the stream's first digest, so a new leader's first rounds
// have none. Node 2 takes the lead and re-seeds the group just after a
// round, with its own round timer a whole round out; both its first two
// digests to node 3 are lost, and nothing pulls in between, so the rows it
// re-seeded age past the orphan horizon at node 3 and expire. The
// explorer's fair schedule puts the new leader's first round right after
// the re-seed, where the same two losses are harmless.
TEST(AntiEntropyKnownBug, NewLeadersFirstRoundsHaveNoDeadline) {
  World w = formation();
  ASSERT_EQ(apply(w, Step{}), "");  // t=0
  ASSERT_EQ(settle(w), "");
  ASSERT_EQ(apply(w, Step{Op::kLead}), "");
  w.next_round = w.now + round_interval();
  ASSERT_EQ(settle(w), "");
  ASSERT_EQ(apply(w, Step{}), "");  // t=30
  drop<RefreshDigestMsg>(w, 1, 2);
  ASSERT_EQ(settle(w), "");
  ASSERT_EQ(apply(w, Step{}), "");  // t=60
  drop<RefreshDigestMsg>(w, 1, 2);
  ASSERT_EQ(settle(w), "");
  EXPECT_EQ(apply(w, Step{}),  // t=90: node 3 last heard of row 10 at t=0
            "row 10 expired at node 3 though leader 2 holds it");
}

}  // namespace
}  // namespace tamp::protocols
