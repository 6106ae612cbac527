// The leadership unit (protocols/leadership.h) on its own: three members on
// one channel, each a real Leadership behind a fake host, with no network
// and no clock. A message is delivered, dropped or left pending, and any
// armed timer may fire at any step.
//
// The explorer runs a fair schedule (oldest message first, then the
// shortest armed timer, then the deaths the failure detector owes, then a
// heartbeat round) and branches at every state over each step that departs
// from it: delivering another message, dropping one, firing another timer,
// one node's heartbeat, a crash, a goodbye, another death. Every script with
// at most kDepartures such steps is explored, memoising canonical worlds.
#include "protocols/leadership.h"

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
#include <vector>

namespace tamp::protocols {
namespace {

using membership::CoordinatorMsg;
using membership::Epoch;
using membership::HeartbeatMsg;
using membership::Incarnation;
using membership::kInvalidNode;
using membership::NodeId;
using Timer = Leadership::Timer;

constexpr size_t kNodes = 3;
constexpr int kMaxDrops = 2;
constexpr int kDepartures = 4;
// A script longer than this is a livelock: the explorer stops it and fails.
constexpr int kMaxSteps = 80;
constexpr Incarnation kLife = 1;
constexpr size_t kMaxViolations = 5;

NodeId id_of(size_t index) { return static_cast<NodeId>(index + 1); }
uint8_t index_of(NodeId id) { return static_cast<uint8_t>(id - 1); }
uint8_t bit(Timer timer) {
  return static_cast<uint8_t>(1u << static_cast<unsigned>(timer));
}
// The fair schedule fires the timer with the shortest period first.
constexpr std::array<Timer, Leadership::kTimers> kTimerOrder = {
    Timer::kElection, Timer::kBackupGrace, Timer::kCoordinator, Timer::kListen};

enum class Kind : uint8_t {
  kHeartbeat, kGoodbye, kElection, kAnswer, kCoordinator
};

// One copy of a message on its way to one receiver. A multicast posts a
// copy per receiver, so each link loses or delivers on its own.
struct Msg {
  uint8_t to = 0;
  uint8_t from = 0;
  Kind kind = Kind::kHeartbeat;
  bool leader = false;  // heartbeat's flag
  Epoch epoch = 0;
  NodeId backup = kInvalidNode;
  NodeId prev = kInvalidNode;  // COORDINATOR's superseded predecessor
  Incarnation prev_incarnation = 0;
  auto operator<=>(const Msg&) const = default;
};

Msg message(size_t from, Kind kind) {
  Msg msg;
  msg.from = static_cast<uint8_t>(from);
  msg.kind = kind;
  return msg;
}

// What the daemon's LevelState keeps about a peer that the unit reads.
struct Peer {
  bool member = false;
  bool leader = false;  // heard flagging itself leader, and not stale
  auto operator<=>(const Peer&) const = default;
};

struct Node {
  explicit Node(NodeId self) : unit(self) {}
  Leadership unit;
  std::array<Peer, kNodes> peers{};
  uint8_t armed = 0;    // one bit per Leadership::Timer
  bool present = true;  // on the channel: not crashed, no goodbye said
  auto operator<=>(const Node&) const = default;
};

struct World {
  std::array<Node, kNodes> nodes{Node(id_of(0)), Node(id_of(1)),
                                 Node(id_of(2))};
  std::vector<Msg> pending;  // oldest first
  uint8_t drops = 0;
  bool crashed = false;
  bool goodbye = false;
  auto operator<=>(const World&) const = default;

  // A copy identical to one already pending adds nothing to explore.
  void post(const Msg& msg) {
    if (std::find(pending.begin(), pending.end(), msg) == pending.end()) {
      pending.push_back(msg);
    }
  }
  void multicast(Msg msg) {
    for (size_t to = 0; to < kNodes; ++to) {
      if (to == msg.from || !nodes[to].present) continue;
      msg.to = static_cast<uint8_t>(to);
      post(msg);
    }
  }
  Msg heartbeat_of(size_t from) const {
    const Leadership& unit = nodes[from].unit;
    Msg msg = message(from, Kind::kHeartbeat);
    msg.leader = unit.leads();
    msg.epoch = unit.epoch();
    if (unit.leads()) msg.backup = unit.backup();
    return msg;
  }
  // Crashed or gone: the node hears nothing more and its timers are moot.
  void remove(size_t index) {
    Node& node = nodes[index];
    node.present = false;
    node.armed = 0;
    node.unit = Leadership(id_of(index));
    node.peers = {};
    std::erase_if(pending, [&](const Msg& m) { return m.to == index; });
  }
  // A member the failure detector owes `at`: gone, yet still a member.
  bool owes_death(size_t at, size_t other) const {
    return nodes[at].present && !nodes[other].present &&
           nodes[at].peers[other].member;
  }
};

// The worlds already expanded, each with the most departures it had left
// then. A world is keyed by a 128-bit fingerprint of a compact encoding in
// which each unit stands for its index in an interning table (units compare
// by state), which keeps a million worlds in tens of megabytes.
class Memo {
 public:
  // Whether `w` is new, or was expanded with fewer departures left.
  bool admit(const World& w, int left) {
    auto [it, fresh] = seen_.try_emplace(key(w), left);
    if (fresh) return true;
    if (it->second >= left) return false;
    it->second = left;
    return true;
  }
  size_t size() const { return seen_.size(); }

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const { return k.first; }
  };

  Key key(const World& w) {
    std::string bytes;
    auto put = [&](uint64_t v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
    };
    for (const Node& n : w.nodes) {
      auto [it, fresh] = units_.try_emplace(n.unit, units_.size());
      uint64_t peers = 0;
      for (const Peer& p : n.peers) {
        peers = peers << 2 | (p.member ? 2 : 0) | (p.leader ? 1 : 0);
      }
      put(it->second << 24 | peers << 16 | uint64_t{n.armed} << 8 |
          (n.present ? 1 : 0));
    }
    put(uint64_t{w.drops} << 2 | (w.crashed ? 2 : 0) | (w.goodbye ? 1 : 0));
    for (const Msg& m : w.pending) {
      put(uint64_t{m.to} << 56 | uint64_t{m.from} << 48 |
          uint64_t{static_cast<uint8_t>(m.kind)} << 40 |
          uint64_t{m.leader} << 32 | m.backup);
      put(m.epoch);
      put(uint64_t{m.prev} << 32 | m.prev_incarnation);
    }
    uint64_t fnv = 1469598103934665603ull;
    for (char c : bytes) {
      fnv = (fnv ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    }
    return {std::hash<std::string>{}(bytes), fnv};
  }

  std::map<Leadership, uint64_t> units_;
  std::unordered_map<Key, int, KeyHash> seen_;
};

// The backup pick is the one random draw the unit asks for, and the
// explorer branches over every member: a run takes the given choices in
// order, then 0, recording how many options each draw had.
struct Choices {
  std::vector<size_t> given;
  std::vector<size_t> taken;
  std::vector<size_t> arity;
  size_t next(size_t options) {
    const size_t at = taken.size();
    taken.push_back(at < given.size() ? given[at] : 0);
    arity.push_back(options);
    return taken.back();
  }
};

class FakeHost final : public Leadership::Host {
 public:
  FakeHost(World& world, size_t self, Choices& choices)
      : world_(world), self_(self), choices_(choices) {}

  void arm(Timer timer, sim::Duration) override { node().armed |= bit(timer); }
  void cancel(Timer timer) override {
    node().armed = static_cast<uint8_t>(node().armed & ~bit(timer));
  }
  bool can_participate() const override {
    if (!node().present) return false;
    for (const Peer& peer : node().peers) {
      if (peer.member && peer.leader) return false;
    }
    return true;
  }
  bool is_member(NodeId id) const override {
    return node().peers[index_of(id)].member;
  }
  NodeId pick_backup() override {
    std::vector<NodeId> members;
    for (size_t i = 0; i < kNodes; ++i) {
      if (node().peers[i].member) members.push_back(id_of(i));
    }
    if (members.empty()) return kInvalidNode;
    return members[choices_.next(members.size())];
  }
  void send_election() override {
    world_.multicast(message(self_, Kind::kElection));
  }
  void send_answer(NodeId candidate) override {
    Msg answer = message(self_, Kind::kAnswer);
    answer.to = index_of(candidate);
    if (world_.nodes[answer.to].present) world_.post(answer);
  }
  void send_coordinator(CoordinatorMsg c) override {
    Msg out = message(self_, Kind::kCoordinator);
    out.epoch = c.epoch;
    out.backup = c.backup;
    out.prev = c.prev;
    out.prev_incarnation = c.prev_incarnation;
    world_.multicast(out);
  }
  // Of a new leader's side effects only its heartbeat reaches this channel;
  // the rest is images and the level above.
  void took_lead() override { world_.multicast(world_.heartbeat_of(self_)); }
  void gave_up_lead() override {}
  void request_bootstrap(NodeId) override {}
  void superseded(NodeId) override {}
  void reseed() override {}
  void note(obs::TraceKind, uint64_t, uint64_t) override {}

 private:
  Node& node() const { return world_.nodes[self_]; }

  World& world_;
  size_t self_;
  Choices& choices_;
};

// --- the steps a script is made of ------------------------------------------

enum class Op : uint8_t {
  kDeliver, kDrop, kFire, kHeartbeat, kRound, kCrash, kGoodbye, kDeath
};

struct Step {
  Op op = Op::kRound;
  size_t index = 0;  // kDeliver, kDrop: position in `pending`
  Msg msg;           // kDeliver, kDrop: the message there
  uint8_t node = 0;  // the acting node, or the one hearing a death
  uint8_t other = 0;             // kDeath: the dead member
  Timer timer = Timer::kListen;  // kFire
  std::vector<size_t> picks;     // backup picks taken, in order
};

Step at_node(Op op, size_t node) {
  Step step;
  step.op = op;
  step.node = static_cast<uint8_t>(node);
  return step;
}
Step on_message(Op op, const World& w, size_t index) {
  Step step;
  step.op = op;
  step.index = index;
  step.msg = w.pending[index];
  step.node = step.msg.to;
  return step;
}
Step fire(size_t node, Timer timer) {
  Step step = at_node(Op::kFire, node);
  step.timer = timer;
  return step;
}
Step death(size_t node, size_t other) {
  Step step = at_node(Op::kDeath, node);
  step.other = static_cast<uint8_t>(other);
  return step;
}

std::string describe(const Step& s) {
  static const char* kKinds[] = {"heartbeat", "goodbye", "election", "answer",
                                 "coordinator"};
  static const char* kTimers[] = {"listen", "election", "coordinator",
                                  "backup-grace"};
  const unsigned node = id_of(s.node);
  char buf[160];
  switch (s.op) {
    case Op::kDeliver:
    case Op::kDrop:
      std::snprintf(buf, sizeof buf, "%s %s %u->%u%s epoch=%llu backup=%u",
                    s.op == Op::kDeliver ? "deliver" : "drop",
                    kKinds[static_cast<int>(s.msg.kind)], id_of(s.msg.from),
                    id_of(s.msg.to), s.msg.leader ? " leader" : "",
                    static_cast<unsigned long long>(s.msg.epoch), s.msg.backup);
      break;
    case Op::kFire:
      std::snprintf(buf, sizeof buf, "fire %s at %u",
                    kTimers[static_cast<int>(s.timer)], node);
      break;
    case Op::kHeartbeat:
      std::snprintf(buf, sizeof buf, "heartbeat from %u", node);
      break;
    case Op::kRound:
      std::snprintf(buf, sizeof buf, "heartbeat round");
      break;
    case Op::kCrash:
      std::snprintf(buf, sizeof buf, "crash %u", node);
      break;
    case Op::kGoodbye:
      std::snprintf(buf, sizeof buf, "goodbye from %u", node);
      break;
    case Op::kDeath:
      std::snprintf(buf, sizeof buf, "%u hears %u died", node, id_of(s.other));
      break;
  }
  std::string out = buf;
  for (size_t pick : s.picks) out += " pick=" + std::to_string(pick);
  return out;
}

// The daemon's receive paths, cut down to what the unit sees.
void deliver(World& w, const Msg& m, FakeHost& host) {
  Node& node = w.nodes[m.to];
  const NodeId from = id_of(m.from);
  switch (m.kind) {
    case Kind::kElection:
      node.unit.on_election(host, from);
      return;
    case Kind::kAnswer:
      node.unit.on_answer();
      return;
    case Kind::kCoordinator: {
      CoordinatorMsg c;
      c.leader = from;
      c.backup = m.backup;
      c.epoch = m.epoch;
      c.prev = m.prev;
      c.prev_incarnation = m.prev_incarnation;
      c.leader_incarnation = kLife;
      if (node.unit.hear_coordinator(host, c) ==
          Leadership::Heard::kFollowed) {
        node.peers[m.from] = Peer{true, true};
      }
      return;
    }
    case Kind::kGoodbye:  // forget_member
      node.peers[m.from] = Peer{};
      node.unit.member_gone(host, from);
      return;
    case Kind::kHeartbeat: {
      static const std::array<membership::RowRef, kNodes> rows = [] {
        std::array<membership::RowRef, kNodes> out;
        for (size_t i = 0; i < kNodes; ++i) {
          membership::EntryData data;
          data.node = id_of(i);
          data.incarnation = kLife;
          out[i] = membership::make_row(std::move(data));
        }
        return out;
      }();
      HeartbeatMsg hb;
      hb.entry = rows[m.from];
      hb.is_leader = m.leader;
      hb.backup = m.backup;
      hb.epoch = m.epoch;
      const bool stale = node.unit.hear_epoch(host, hb);
      Peer& peer = node.peers[m.from];
      const bool added = !peer.member;
      peer = Peer{true, m.leader && !stale};
      if (added) node.unit.member_added(from);
      node.unit.hear_claim(host, hb, stale, /*bootstrapped=*/true);
      return;
    }
  }
}

void apply(World& w, const Step& step, Choices& choices) {
  FakeHost host(w, step.node, choices);
  switch (step.op) {
    case Op::kDeliver:
    case Op::kDrop:
      w.pending.erase(w.pending.begin() + static_cast<long>(step.index));
      if (step.op == Op::kDrop) {
        ++w.drops;
      } else {
        deliver(w, step.msg, host);
      }
      return;
    case Op::kFire:
      w.nodes[step.node].armed =
          static_cast<uint8_t>(w.nodes[step.node].armed & ~bit(step.timer));
      w.nodes[step.node].unit.on_timer(host, step.timer);
      return;
    case Op::kHeartbeat:
      w.multicast(w.heartbeat_of(step.node));
      return;
    case Op::kRound:
      for (size_t i = 0; i < kNodes; ++i) {
        if (w.nodes[i].present) w.multicast(w.heartbeat_of(i));
      }
      return;
    case Op::kCrash:
      w.crashed = true;
      w.remove(step.node);
      return;
    case Op::kGoodbye:
      w.goodbye = true;
      w.multicast(message(step.node, Kind::kGoodbye));
      w.nodes[step.node].unit.leave(host);
      w.remove(step.node);
      return;
    case Op::kDeath: {
      // on_member_dead: the record goes, then the unit hears of a lost
      // backup and, if it was the leader, of the leader's death.
      Node& node = w.nodes[step.node];
      const bool flagged = node.peers[step.other].leader;
      node.peers[step.other] = Peer{};
      node.unit.backup_lost(host, id_of(step.other));
      node.unit.leader_dead(host, id_of(step.other), kLife, flagged);
      return;
    }
  }
}

// `w` after a heartbeat round from every present node, all delivered; the
// round is cut short (and `w` returned) if the replies never end.
World after_round(const World& w) {
  World round = w;
  Choices choices;
  apply(round, Step{}, choices);
  for (int budget = 3 * kNodes * kNodes; !round.pending.empty(); --budget) {
    if (budget == 0) return w;
    apply(round, on_message(Op::kDeliver, round, 0), choices);
  }
  return round;
}

// The fair schedule's next step: the oldest message, else the shortest
// armed timer, else a heartbeat round while one changes anything (members
// heartbeat several times within a failure timeout), else the first death
// owed. None (nullopt) once the world is quiescent.
std::optional<Step> fair_step(const World& w) {
  if (!w.pending.empty()) return on_message(Op::kDeliver, w, 0);
  for (Timer timer : kTimerOrder) {
    for (size_t i = 0; i < kNodes; ++i) {
      if (w.nodes[i].present && (w.nodes[i].armed & bit(timer))) {
        return fire(i, timer);
      }
    }
  }
  if (after_round(w) != w) return Step{};
  for (size_t i = 0; i < kNodes; ++i) {
    for (size_t other = 0; other < kNodes; ++other) {
      if (w.owes_death(i, other)) return death(i, other);
    }
  }
  return std::nullopt;
}

// Every step that departs from the fair one.
std::vector<Step> departures(const World& w, const std::optional<Step>& fair) {
  std::vector<Step> out;
  for (size_t i = 0; i < w.pending.size(); ++i) {
    if (i > 0) out.push_back(on_message(Op::kDeliver, w, i));
    if (w.drops < kMaxDrops) out.push_back(on_message(Op::kDrop, w, i));
  }
  for (size_t i = 0; i < kNodes; ++i) {
    if (!w.nodes[i].present) continue;
    for (Timer timer : kTimerOrder) {
      const bool is_fair = fair && fair->op == Op::kFire && fair->node == i &&
                           fair->timer == timer;
      if ((w.nodes[i].armed & bit(timer)) && !is_fair) {
        out.push_back(fire(i, timer));
      }
    }
    out.push_back(at_node(Op::kHeartbeat, i));
    if (!w.crashed) out.push_back(at_node(Op::kCrash, i));
    if (!w.goodbye) out.push_back(at_node(Op::kGoodbye, i));
    for (size_t other = 0; other < kNodes; ++other) {
      const bool is_fair = fair && fair->op == Op::kDeath &&
                           fair->node == i && fair->other == other;
      if (w.owes_death(i, other) && !is_fair) out.push_back(death(i, other));
    }
  }
  return out;
}

// Runs `step` on a copy of `w` once per combination of backup picks.
void for_each_outcome(const World& w, const Step& step,
                      const std::function<void(World&, const Step&)>& fn) {
  std::vector<std::vector<size_t>> prefixes{{}};
  while (!prefixes.empty()) {
    Choices choices;
    choices.given = std::move(prefixes.back());
    prefixes.pop_back();
    World next = w;
    apply(next, step, choices);
    for (size_t at = choices.given.size(); at < choices.arity.size(); ++at) {
      for (size_t v = 1; v < choices.arity[at]; ++v) {
        std::vector<size_t> alt(choices.taken.begin(),
                                choices.taken.begin() + static_cast<long>(at));
        alt.push_back(v);
        prefixes.push_back(std::move(alt));
      }
    }
    Step taken = step;
    taken.picks = choices.taken;
    fn(next, taken);
  }
}

// Empty when the quiescent world is sound; else what is wrong with it.
std::string check_quiescent(const World& w) {
  size_t leaders = 0;
  size_t leader = 0;
  size_t present = 0;
  for (size_t i = 0; i < kNodes; ++i) {
    if (!w.nodes[i].present) continue;
    ++present;
    if (w.nodes[i].unit.leads()) {
      ++leaders;
      leader = i;
    }
  }
  if (leaders != 1) return std::to_string(leaders) + " live nodes lead";
  for (size_t i = 0; i < kNodes; ++i) {
    if (w.nodes[i].present && w.nodes[i].unit.leader() != id_of(leader)) {
      return "node " + std::to_string(id_of(i)) + " names " +
             std::to_string(w.nodes[i].unit.leader()) + " as leader, not " +
             std::to_string(id_of(leader));
    }
  }
  const NodeId backup = w.nodes[leader].unit.backup();
  if (present > 1 && (backup == kInvalidNode || backup == id_of(leader) ||
                      !w.nodes[index_of(backup)].present)) {
    return "leader " + std::to_string(id_of(leader)) +
           " has live members but names backup " + std::to_string(backup);
  }
  return {};
}

// Three nodes joining at once: each heartbeats, then listens.
World formation() {
  World w;
  for (size_t i = 0; i < kNodes; ++i) {
    w.multicast(w.heartbeat_of(i));
    Choices none;
    FakeHost host(w, i, none);
    w.nodes[i].unit.join(host, sim::kSecond);
  }
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
  std::vector<Step> script;
  auto report = [&](const std::string& what) {
    std::string text = what + "; script:";
    for (const Step& s : script) text += "\n  " + describe(s);
    out.violations.push_back(std::move(text));
  };
  std::function<void(const World&, int)> visit = [&](const World& w,
                                                       int left) {
    const size_t known = memo.size();
    if (!memo.admit(w, left)) return;
    const bool fresh = memo.size() > known;
    const std::optional<Step> fair = fair_step(w);
    if (fresh && !fair) {
      ++out.quiescent;
      if (std::string bad = check_quiescent(w); !bad.empty()) report(bad);
    }
    if (script.size() >= static_cast<size_t>(kMaxSteps)) ++out.cut;
    if (out.violations.size() >= kMaxViolations ||
        script.size() >= static_cast<size_t>(kMaxSteps)) {
      return;
    }
    auto step_to = [&](const Step& step, int cost) {
      for_each_outcome(w, step, [&](World& next, const Step& taken) {
        script.push_back(taken);
        for (size_t i = 0; i < kNodes; ++i) {
          if (next.nodes[i].present &&
              next.nodes[i].unit.epoch() < w.nodes[i].unit.epoch()) {
            report("node " + std::to_string(id_of(i)) + "'s epoch fell");
          }
        }
        visit(next, left - cost);
        script.pop_back();
      });
    };
    if (fair) step_to(*fair, 0);
    if (left == 0) return;
    for (const Step& step : departures(w, fair)) step_to(step, 1);
  };
  visit(start, departures_allowed);
  out.states = memo.size();
  return out;
}

TEST(LeadershipExplorer, EveryBoundedScriptSettlesOnOneLeaderWithABackup) {
  const auto begin = std::chrono::steady_clock::now();
  const Explored result = explore(formation(), kDepartures);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  std::printf("leadership explorer: %zu states, %zu quiescent, %.2f s\n",
              result.states, result.quiescent, seconds);
  EXPECT_GT(result.quiescent, 0u);
  EXPECT_EQ(result.cut, 0u);
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
}

// --- single units ------------------------------------------------------------

// Counts every call the unit makes on its host.
struct CountingHost final : Leadership::Host {
  int calls = 0;
  void arm(Timer, sim::Duration) override { ++calls; }
  void cancel(Timer) override { ++calls; }
  bool can_participate() const override { return true; }
  bool is_member(NodeId) const override { return true; }
  NodeId pick_backup() override { return ++calls, kInvalidNode; }
  void send_election() override { ++calls; }
  void send_answer(NodeId) override { ++calls; }
  void send_coordinator(CoordinatorMsg) override { ++calls; }
  void took_lead() override { ++calls; }
  void gave_up_lead() override { ++calls; }
  void request_bootstrap(NodeId) override { ++calls; }
  void superseded(NodeId) override { ++calls; }
  void reseed() override { ++calls; }
  void note(obs::TraceKind, uint64_t, uint64_t) override { ++calls; }
};

// Every member receives every heartbeat, so the steady case, a heartbeat
// that changes nothing, makes no call on the host at all.
TEST(LeadershipUnit, SteadyHeartbeatsCallNoHost) {
  Leadership unit(id_of(1));
  CountingHost host;
  CoordinatorMsg claim;
  claim.leader = id_of(0);
  claim.backup = id_of(1);
  claim.epoch = 1;
  ASSERT_EQ(unit.hear_coordinator(host, claim), Leadership::Heard::kFollowed);
  for (size_t from : {0, 2}) {
    membership::EntryData data;
    data.node = id_of(from);
    data.incarnation = kLife;
    HeartbeatMsg hb;
    hb.entry = membership::make_row(std::move(data));
    hb.is_leader = from == 0;
    hb.backup = hb.is_leader ? id_of(1) : kInvalidNode;
    hb.epoch = 1;
    host.calls = 0;
    const bool stale = unit.hear_epoch(host, hb);
    unit.hear_claim(host, hb, stale, /*bootstrapped=*/true);
    EXPECT_EQ(host.calls, 0) << "heartbeat from " << id_of(from);
  }
  EXPECT_EQ(unit.leader(), id_of(0));
  EXPECT_EQ(unit.backup(), id_of(1));
}

// --- scripts pinned by hand --------------------------------------------------

void run(World& w, const Step& step, std::vector<size_t> picks = {}) {
  Choices choices;
  choices.given = std::move(picks);
  apply(w, step, choices);
}

void deliver_pending(World& w) {
  while (!w.pending.empty()) run(w, on_message(Op::kDeliver, w, 0));
}

void deliver(World& w, Kind kind, size_t from, size_t to) {
  for (size_t i = 0; i < w.pending.size(); ++i) {
    const Msg& m = w.pending[i];
    if (m.kind == kind && m.from == from && m.to == to) {
      run(w, on_message(Op::kDeliver, w, i));
      return;
    }
  }
  ADD_FAILURE() << "nothing pending from " << id_of(from) << " to "
                << id_of(to);
}

// Known bug, pinned as today's outcome: a leader applies the lowest-id rule
// to an older-epoch COORDINATOR from a node that has already said goodbye,
// yields to it, and is left following a node that is gone, with nothing
// armed to end it. It takes a COORDINATOR that arrives after its sender's
// goodbye (a link that reorders). The single claim order of ROADMAP item 11
// (a newer epoch first, then the lowest id) would refuse the older claim.
TEST(LeadershipKnownBug, YieldsToAnOlderClaimFromANodeThatLeft) {
  World w = formation();
  deliver_pending(w);
  // Node 1 wins the formation election and names node 2 its backup; its
  // COORDINATOR to node 3 stays in flight.
  run(w, fire(0, Timer::kListen));
  deliver_pending(w);
  run(w, fire(0, Timer::kElection), {0});
  deliver(w, Kind::kCoordinator, 0, 1);
  deliver(w, Kind::kHeartbeat, 0, 1);
  deliver(w, Kind::kHeartbeat, 0, 2);
  ASSERT_EQ(w.nodes[2].unit.leader(), id_of(0));
  // Node 1 leaves; both goodbyes overtake that COORDINATOR. Node 2 crashes.
  run(w, at_node(Op::kGoodbye, 0));
  deliver(w, Kind::kGoodbye, 0, 1);
  deliver(w, Kind::kGoodbye, 0, 2);
  run(w, at_node(Op::kCrash, 1));
  // Node 3 waits out the backup grace, elects itself and leads epoch 2.
  run(w, fire(2, Timer::kBackupGrace));
  run(w, fire(2, Timer::kElection), {0});
  ASSERT_TRUE(w.nodes[2].unit.leads());
  ASSERT_EQ(w.nodes[2].unit.epoch(), 2u);
  // The epoch-1 COORDINATOR from the departed node 1 lands: lower id, so
  // node 3 steps down and follows it.
  deliver(w, Kind::kCoordinator, 0, 2);
  run(w, fire(2, Timer::kListen));
  run(w, death(2, 1));
  EXPECT_FALSE(w.nodes[2].unit.leads());
  EXPECT_EQ(w.nodes[2].unit.leader(), id_of(0));
  EXPECT_FALSE(fair_step(w).has_value());  // quiescent: nothing ends it
  EXPECT_EQ(check_quiescent(w), "0 live nodes lead");
}

// Known bug, pinned as today's outcome: the overlap rule suppresses an
// election while a member that has already abdicated is still flagged
// leader in the peer record (its first plain heartbeat has not arrived),
// and nothing arms the election again once that flag clears or the member
// leaves. Here the last other member says goodbye and the survivor stays
// leaderless, with nothing armed.
TEST(LeadershipKnownBug, SuppressedElectionIsNeverArmedAgain) {
  World w = formation();
  deliver_pending(w);
  // Node 1 wins the formation election and names node 3 its backup, while
  // node 3, not having heard it yet, elects itself too.
  run(w, fire(0, Timer::kListen));
  deliver_pending(w);
  run(w, fire(0, Timer::kElection), {1});
  run(w, fire(2, Timer::kListen));
  run(w, fire(2, Timer::kElection), {0});
  ASSERT_TRUE(w.nodes[0].unit.leads());
  ASSERT_TRUE(w.nodes[2].unit.leads());
  // Node 3 yields to the lower id; node 2 ends up following node 1 but
  // still holds node 3's leader flag.
  deliver_pending(w);
  run(w, fire(1, Timer::kListen));
  ASSERT_FALSE(w.nodes[2].unit.leads());
  ASSERT_EQ(w.nodes[1].unit.leader(), id_of(0));
  ASSERT_EQ(w.nodes[1].unit.backup(), id_of(2));
  ASSERT_TRUE(w.nodes[1].peers[2].leader);
  // Node 1 crashes. Node 2 waits out the backup grace for node 3, but the
  // stale flag keeps it out of the election; then node 3 leaves.
  run(w, at_node(Op::kCrash, 0));
  run(w, death(1, 0));
  run(w, fire(1, Timer::kBackupGrace));
  run(w, at_node(Op::kGoodbye, 2));
  deliver_pending(w);
  EXPECT_FALSE(w.nodes[1].unit.leads());
  EXPECT_EQ(w.nodes[1].unit.leader(), kInvalidNode);
  EXPECT_FALSE(fair_step(w).has_value());  // quiescent: nothing ends it
  EXPECT_EQ(check_quiescent(w), "0 live nodes lead");
}

}  // namespace
}  // namespace tamp::protocols
