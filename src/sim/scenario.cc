#include "sim/scenario.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>

#include "net/builders.h"
#include "protocols/oracle.h"
#include "util/check.h"
#include "workload/workload.h"

namespace tamp::chaos {

using protocols::Scheme;

const char* shape_name(ShapeKind shape) {
  switch (shape) {
    case ShapeKind::kSingleSegment:
      return "single-segment";
    case ShapeKind::kRacked:
      return "racked";
    case ShapeKind::kRouterChain:
      return "router-chain";
  }
  return "?";
}

std::string nodes_error(ShapeKind shape, int64_t nodes) {
  char message[160];
  if (nodes < 6) {
    std::snprintf(message, sizeof message,
                  "--nodes=%lld: a scenario needs at least 6 nodes",
                  static_cast<long long>(nodes));
    return message;
  }
  if (shape != ShapeKind::kSingleSegment && nodes % 3 != 0) {
    std::snprintf(message, sizeof message,
                  "--nodes=%lld: --shape=%s builds three equal segments, so"
                  " --nodes must be a multiple of 3",
                  static_cast<long long>(nodes), shape_name(shape));
    return message;
  }
  return "";
}

bool plan_applicable(Scheme scheme, PlanKind plan) {
  if (scheme != Scheme::kGossip) return true;
  switch (plan) {
    case PlanKind::kPartitionHeal:
    case PlanKind::kUplinkFlap:
    case PlanKind::kPauseResume:
    case PlanKind::kHealStorm:
    case PlanKind::kRouterFlap:
    case PlanKind::kRewireHeal:
      return false;  // symmetric split: gossip has no rejoin path
    default:
      return true;
  }
}

std::string scenario_name(const ScenarioSpec& spec) {
  std::string name = std::string(protocols::scheme_name(spec.scheme)) + "/" +
                     shape_name(spec.shape) + "/" + plan_name(spec.plan) +
                     "/s" + std::to_string(spec.seed);
  if (spec.slo) name += "/slo";
  return name;
}

std::string repro_command(const ScenarioSpec& spec) {
  std::string cmd = std::string("bench/chaos_soak --scheme=") +
                    protocols::scheme_name(spec.scheme) +
                    " --shape=" + shape_name(spec.shape) +
                    " --plan=" + plan_name(spec.plan) +
                    " --seed=" + std::to_string(spec.seed) +
                    " --nodes=" + std::to_string(spec.nodes);
  if (spec.slo) cmd += " --slo";
  return cmd;
}

bool parse_scheme(const std::string& token, Scheme* out) {
  if (token == "all-to-all" || token == "a2a" || token == "alltoall") {
    *out = Scheme::kAllToAll;
  } else if (token == "gossip") {
    *out = Scheme::kGossip;
  } else if (token == "hierarchical" || token == "hier") {
    *out = Scheme::kHierarchical;
  } else {
    return false;
  }
  return true;
}

bool parse_shape(const std::string& token, ShapeKind* out) {
  for (ShapeKind shape : kAllShapeKinds) {
    if (token == shape_name(shape)) {
      *out = shape;
      return true;
    }
  }
  if (token == "segment") {
    *out = ShapeKind::kSingleSegment;
    return true;
  }
  if (token == "chain") {
    *out = ShapeKind::kRouterChain;
    return true;
  }
  return false;
}

bool parse_plan(const std::string& token, PlanKind* out) {
  for (PlanKind plan : kAllPlanKinds) {
    if (token == plan_name(plan)) {
      *out = plan;
      return true;
    }
  }
  return false;
}

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

// The live fault state, consulted by the transport on every delivery
// attempt. Partitions cut deterministically; loss/delay/jitter/duplication
// windows apply to every pair.
class ChaosController : public net::FaultInjector {
 public:
  Verdict verdict(const net::Packet& packet) override {
    Verdict verdict;
    if (cut(packet.from.host, packet.to.host)) {
      verdict.cut = true;
      return verdict;
    }
    verdict.extra_loss = loss_;
    verdict.extra_delay = delay_;
    verdict.jitter = jitter_;
    verdict.duplicates = duplicates_;
    return verdict;
  }

  // Directional: are packets from `from` to `to` blackholed right now?
  bool cut(net::HostId from, net::HostId to) const {
    for (const auto& [id, partition] : partitions_) {
      bool from_in = partition.island.contains(from);
      bool to_in = partition.island.contains(to);
      if (partition.symmetric ? (from_in != to_in) : (from_in && !to_in)) {
        return true;
      }
    }
    return false;
  }

  void start_partition(int id, std::vector<net::HostId> island,
                       bool symmetric) {
    Partition partition;
    partition.island.insert(island.begin(), island.end());
    partition.symmetric = symmetric;
    partitions_[id] = std::move(partition);
  }
  void end_partition(int id) { partitions_.erase(id); }

  void set_loss(double loss) { loss_ = loss; }
  void set_delay(sim::Duration delay, sim::Duration jitter) {
    delay_ = delay;
    jitter_ = jitter;
  }
  void set_duplicates(int copies) { duplicates_ = copies; }

  bool any_active() const {
    return !partitions_.empty() || loss_ > 0 || delay_ > 0 || jitter_ > 0 ||
           duplicates_ > 0;
  }

 private:
  struct Partition {
    std::unordered_set<net::HostId> island;
    bool symmetric = true;
  };
  std::map<int, Partition> partitions_;
  double loss_ = 0.0;
  sim::Duration delay_ = 0;
  sim::Duration jitter_ = 0;
  int duplicates_ = 0;
};

// Partition ids >= this are reserved for the uplink-flap fallback on shapes
// that have no real uplinks, keyed by segment.
constexpr int kUplinkPartitionBase = 1000;
// Likewise for the router-crash fallback on shapes with no routers, keyed
// by router index.
constexpr int kRouterPartitionBase = 2000;

class ScenarioRunner {
 public:
  explicit ScenarioRunner(const ScenarioSpec& spec)
      : spec_(spec), sim_(spec.seed) {
    TAMP_CHECK(spec_.nodes >= 6);
    build_topology();
    // The plan draws victims from [0, nodes), so every one must exist.
    TAMP_CHECK_MSG(layout_.hosts.size() == spec_.nodes,
                   "--shape=%s builds %zu hosts, not --nodes=%zu",
                   shape_name(spec_.shape), layout_.hosts.size(), spec_.nodes);
    // Finite NICs: storms must contend for egress like they would on real
    // hardware. 100 Mbit/s with a ~256 KiB device queue — small enough that
    // a naive mass-bootstrap burst visibly drops, large enough that the
    // steady-state heartbeat load never touches it.
    net::NetworkConfig net_config;
    net_config.egress_bytes_per_sec = 12.5e6;
    net_config.egress_queue_bytes = 256 * 1024;
    net_ = std::make_unique<net::Network>(sim_, topo_, net_config);
    net_->set_fault_injector(&controller_);
    if (spec_.trace) {
      obs::Tracer& tracer = net_->obs().tracer;
      tracer.set_capacity(spec_.trace_capacity);
      tracer.set_kinds_mask(spec_.trace_kinds_mask);
      tracer.set_enabled(true);
    }

    protocols::Cluster::Options opts;
    opts.scheme = spec_.scheme;
    // The rewire-heal plan can deepen the hierarchy past its build-time
    // shape (single segment: the migrant ends up behind the annex router at
    // TTL 2), so the level budget must cover the final topology, not the
    // initial one.
    const int min_ttl = spec_.plan == PlanKind::kRewireHeal ? 2 : 1;
    opts.hier.max_ttl = std::max(min_ttl, topo_.max_ttl());
    // Faster anti-entropy keeps the post-fault repair horizon (and thus the
    // whole matrix's wall time) short without changing the protocol.
    opts.hier.refresh_interval = 10 * sim::kSecond;
    cluster_ = std::make_unique<protocols::Cluster>(sim_, *net_,
                                                    layout_.hosts, opts);

    // Gossip needs the cold start to finish its O(log n) fill-in before the
    // schedule starts grading it.
    fault_start_ = spec_.scheme == Scheme::kGossip ? 40 * sim::kSecond
                                                   : 15 * sim::kSecond;
    plan_ = make_fault_plan(spec_.plan, spec_.nodes, segment_size(),
                            fault_start_, spec_.seed);

    protocols::MembershipOracle::Config oracle_config;
    oracle_config.formation_grace = fault_start_;
    // Size the oracle's per-level bookkeeping for the deepest shape the
    // plan's mutations can produce (see min_ttl above).
    oracle_config.min_levels = min_ttl;
    oracle_ = std::make_unique<protocols::MembershipOracle>(
        sim_, *net_, topo_, *cluster_, oracle_config);
    oracle_->set_reachability([this](net::HostId from, net::HostId to) {
      return net_->host_up(from) && net_->host_up(to) &&
             topo_.path(from, to).reachable && !controller_.cut(from, to);
    });

    if (spec_.slo) {
      // Leave the gossip cold start outside the graded window, like
      // fault_start_ above.
      workload_ = std::make_unique<workload::WorkloadDriver>(
          sim_, *net_, *cluster_, fault_start_ - 5 * sim::kSecond,
          spec_.seed);
      // Phase boundaries: the fault window opens with the plan's first
      // event and the heal window with its last.
      workload_->set_phase_bounds(fault_start_, plan_.last_event_time());
    }
  }

  ScenarioResult run() {
    oracle_->start();
    cluster_->start_all();
    if (workload_ != nullptr) workload_->start();
    for (const FaultEvent& event : plan_.events) {
      const FaultAction* action = &event.action;
      sim_.schedule_at(event.at, [this, action] { apply(*action); });
    }
    const sim::Time horizon =
        plan_.last_event_time() + oracle_->quiesce_bound() + spec_.tail;
    if (workload_ != nullptr) {
      // Stop arrivals before the horizon so the in-flight tail can drain;
      // whatever is still pending at the horizon is graded as unresolved.
      sim_.schedule_at(horizon - 2 * sim::kSecond,
                       [this] { workload_->quiesce(); });
    }
    sim_.run_until(horizon);
    oracle_->stop();

    ScenarioResult result;
    result.passed = oracle_->ok();
    result.name = scenario_name(spec_);
    result.repro = repro_command(spec_);
    result.report = oracle_->report();
    result.violation_count = oracle_->violations().size();
    result.oracle_checks = oracle_->checks_run();
    result.horizon = horizon;
    result.events = sim_.events_executed();
    result.final_converged = cluster_->converged_count();
    result.final_running = cluster_->running_indices().size();
    if (workload_ != nullptr) {
      result.slo_json = workload_->report_json();
      result.slo_phases = workload_->report();
    }
    check_conservation(result);
    if (spec_.trace) result.trace_jsonl = net_->obs().tracer.to_jsonl();
    if (spec_.metrics) result.metrics_json = net_->obs().metrics.to_json();
    return result;
  }

  // Cross-checks the registry's accounting identities after the run. These
  // hold exactly — everything is counted at one place per event — so any
  // mismatch is double-counting or a leak in the instrumentation, graded
  // as a scenario failure like an oracle violation.
  void check_conservation(ScenarioResult& result) {
    const obs::MetricsRegistry& m = net_->obs().metrics;
    auto fail = [&](const std::string& what, uint64_t lhs, uint64_t rhs) {
      result.passed = false;
      if (!result.report.empty()) result.report += "\n";
      result.report += "metrics-conservation: " + what + " (" +
                       std::to_string(lhs) + " != " + std::to_string(rhs) +
                       ")";
    };
    // Per-host sums match the network-wide totals for every traffic family.
    for (const char* name :
         {"tx_messages", "tx_wire_bytes", "rx_messages", "rx_wire_bytes",
          "rx_multicast_messages", "dropped_messages", "tx_dropped_egress"}) {
      const uint64_t total =
          m.counter_value(obs::Protocol::kNet, name, obs::kNoNode);
      const uint64_t hosts =
          m.counter_sum_over_nodes(obs::Protocol::kNet, name);
      if (total != hosts) {
        fail(std::string("per-host ") + name + " != network total", hosts,
             total);
      }
    }
    // The per-kind attribution decomposes the totals exactly.
    const uint64_t tx_total =
        m.counter_value(obs::Protocol::kNet, "tx_messages", obs::kNoNode);
    const uint64_t tx_kinds =
        m.counter_prefix_sum(obs::Protocol::kNet, "tx_kind_");
    if (tx_total != tx_kinds) {
      fail("per-kind tx != tx_messages total", tx_kinds, tx_total);
    }
    const uint64_t tx_bytes_total =
        m.counter_value(obs::Protocol::kNet, "tx_wire_bytes", obs::kNoNode);
    const uint64_t tx_bytes_kinds =
        m.counter_prefix_sum(obs::Protocol::kNet, "tx_bytes_kind_");
    if (tx_bytes_total != tx_bytes_kinds) {
      fail("per-kind tx bytes != tx_wire_bytes total", tx_bytes_kinds,
           tx_bytes_total);
    }
    const uint64_t shed_total = m.counter_value(
        obs::Protocol::kNet, "tx_dropped_egress", obs::kNoNode);
    const uint64_t shed_kinds =
        m.counter_prefix_sum(obs::Protocol::kNet, "tx_egress_drop_kind_");
    if (shed_total != shed_kinds) {
      fail("per-kind egress drops != tx_dropped_egress total", shed_kinds,
           shed_total);
    }
    // Protocol-vs-transport identities for messages sent at exactly one
    // place: every protocol-counted send was transmitted, shed at the NIC
    // queue, or attempted while the host was down. (Hier heartbeats are
    // excluded: goodbye heartbeats bypass the protocol counter.)
    auto identity = [&](obs::Protocol protocol, std::string_view counter,
                        const std::string& kind) {
      const uint64_t sent = m.counter_sum_over_nodes(protocol, counter);
      const uint64_t wire =
          m.counter_value(obs::Protocol::kNet, "tx_kind_" + kind) +
          m.counter_value(obs::Protocol::kNet, "tx_egress_drop_kind_" + kind) +
          m.counter_value(obs::Protocol::kNet, "tx_down_kind_" + kind);
      if (sent != wire) {
        fail(std::string(counter) + " != wire " + kind + " accounting", sent,
             wire);
      }
    };
    switch (spec_.scheme) {
      case Scheme::kHierarchical:
        identity(obs::Protocol::kHier, "updates_sent", "update");
        identity(obs::Protocol::kHier, "coordinators_sent", "coordinator");
        identity(obs::Protocol::kHier, "bootstraps_requested",
                 "bootstrap_request");
        identity(obs::Protocol::kHier, "syncs_requested", "sync_request");
        identity(obs::Protocol::kHier, "busy_sent", "busy");
        identity(obs::Protocol::kHier, "digests_sent", "refresh_digest");
        identity(obs::Protocol::kHier, "digest_pulls_sent", "refresh_pull");
        identity(obs::Protocol::kHier, "deltas_sent", "refresh_delta");
        break;
      case Scheme::kGossip:
        identity(obs::Protocol::kGossip, "gossips_sent", "gossip");
        break;
      case Scheme::kAllToAll:
        identity(obs::Protocol::kAllToAll, "heartbeats_sent", "heartbeat");
        break;
    }
  }

 private:
  void build_topology() {
    switch (spec_.shape) {
      case ShapeKind::kSingleSegment:
        layout_ = net::build_single_segment(
            topo_, static_cast<int>(spec_.nodes), 0, "chaos");
        break;
      case ShapeKind::kRacked: {
        net::RackedClusterParams params;
        params.racks = 3;
        params.hosts_per_rack = static_cast<int>(spec_.nodes / 3);
        params.name_prefix = "chaos";
        layout_ = net::build_racked_cluster(topo_, params);
        break;
      }
      case ShapeKind::kRouterChain:
        layout_ = net::build_router_chain(
            topo_, 3, static_cast<int>(spec_.nodes / 3), 0, "chaos");
        break;
    }
  }

  size_t segment_size() const {
    return spec_.shape == ShapeKind::kSingleSegment ? layout_.hosts.size()
                                                    : layout_.racks[0].size();
  }

  net::HostId host(NodeIndex index) const {
    TAMP_CHECK(index < layout_.hosts.size());
    return layout_.hosts[index];
  }

  // Hosts of segment `segment` — the uplink-flap fallback island. On the
  // single-segment shape (one rack holding everyone) a whole-rack island
  // would detach nobody from nobody, so mirror make_fault_plan's island
  // rule: the first quarter of the cluster.
  std::vector<net::HostId> segment_hosts(size_t segment) const {
    if (layout_.racks.size() > 1 && segment < layout_.racks.size()) {
      return layout_.racks[segment];
    }
    size_t count = std::max<size_t>(2, layout_.hosts.size() / 4);
    return {layout_.hosts.begin(),
            layout_.hosts.begin() + static_cast<ptrdiff_t>(count)};
  }

  // The node to target with leader-directed faults, resolved at fire time:
  // for the hierarchical scheme, the running daemon leading at the highest
  // level (the root of the membership tree; ties to the lowest id); for the
  // leaderless schemes, the lowest-id running node.
  size_t leader_index() const {
    size_t best = SIZE_MAX;
    int best_level = -1;
    for (size_t i = 0; i < cluster_->size(); ++i) {
      if (!cluster_->alive(i)) continue;
      if (best == SIZE_MAX) best = i;  // lowest-id running fallback
      protocols::HierDaemon* daemon = cluster_->hier_daemon(i);
      if (daemon == nullptr || !daemon->running()) continue;
      for (int level = cluster_->options().hier.max_ttl - 1;
           level > best_level; --level) {
        if (daemon->is_leader(level)) {
          best_level = level;
          best = i;
          break;
        }
      }
    }
    TAMP_CHECK_MSG(best != SIZE_MAX, "no running node to target");
    return best;
  }

  void crash(size_t index) {
    if (!cluster_->alive(index)) return;  // already down: no-op
    // The workload agent must go first: its provider/consumer hold
    // references into the daemon the restart path will replace.
    if (workload_ != nullptr) workload_->note_kill(index);
    cluster_->kill(index);
    oracle_->note_crash(index);
  }

  void restart_node(size_t index) {
    if (cluster_->alive(index)) return;
    cluster_->restart(index);
    oracle_->note_restart(index);
    // After restart: the fresh daemon is in place for the rebuilt agent.
    if (workload_ != nullptr) workload_->note_restart(index);
  }

  void set_uplink(size_t segment, bool up) {
    if (segment < layout_.rack_uplinks.size()) {
      topo_.set_link_up(layout_.rack_uplinks[segment], up);
      uplinks_down_ += up ? -1 : 1;
      oracle_->note_topology_mutation();
    } else {
      // No physical uplink on this shape: emulate the same reachability cut
      // through the injector.
      int id = kUplinkPartitionBase + static_cast<int>(segment);
      if (up) {
        controller_.end_partition(id);
      } else {
        controller_.start_partition(id, segment_hosts(segment),
                                    /*symmetric=*/true);
      }
    }
    network_changed();
  }

  void network_changed() {
    oracle_->note_network_fault(controller_.any_active() ||
                                uplinks_down_ > 0 || routers_down_ > 0);
  }

  // The topology itself changed shape (as opposed to an injected
  // reachability cut): start invariant 11's reconvergence clock too.
  void topology_mutated() {
    oracle_->note_topology_mutation();
    network_changed();
  }

  // Crash or recover a router, all incident links at once. The index is
  // resolved modulo the routers the builder created; on the single-segment
  // shape (no routers at all) the blackout is emulated as an injector
  // partition of the router's segment.
  void set_router(size_t router, bool up) {
    if (!layout_.routers.empty()) {
      net::DeviceId device = layout_.routers[router % layout_.routers.size()];
      if (topo_.device_up(device) == up) return;  // already there: no-op
      topo_.set_device_up(device, up);
      routers_down_ += up ? -1 : 1;
      topology_mutated();
    } else {
      int id = kRouterPartitionBase + static_cast<int>(router);
      if (up) {
        controller_.end_partition(id);
      } else {
        controller_.start_partition(id, segment_hosts(router),
                                    /*symmetric=*/true);
      }
      network_changed();
    }
  }

  // Wire two segment switches directly together (a repair/shortcut link).
  // Indices resolve modulo the segment count; a self-link or a duplicate of
  // a link this runner already added is a no-op.
  void add_segment_link(size_t a, size_t b) {
    if (layout_.rack_switches.empty()) return;
    net::DeviceId sa = layout_.rack_switches[a % layout_.rack_switches.size()];
    net::DeviceId sb = layout_.rack_switches[b % layout_.rack_switches.size()];
    if (sa > sb) std::swap(sa, sb);
    if (sa == sb || added_links_.contains({sa, sb})) return;
    topo_.connect(sa, sb, net::LinkParams{20 * sim::kMicrosecond, 1e9, 0.0});
    added_links_.insert({sa, sb});
    topology_mutated();
  }

  // Re-home a node's uplink onto another segment's switch. On multi-segment
  // shapes the destination is that segment's rack switch (bumped by one if
  // the node already lives there); the single-segment shape has nowhere else
  // to go, so the first migration builds an "annex" — a new switch behind a
  // new router — which deepens the hierarchy to two levels.
  void migrate_node(NodeIndex node, size_t segment) {
    net::HostId h = host(node % layout_.hosts.size());
    net::DeviceId target;
    if (layout_.rack_switches.size() > 1) {
      target = layout_.rack_switches[segment % layout_.rack_switches.size()];
      const net::Link& uplink = topo_.link(topo_.uplink_of(h));
      net::DeviceId current = uplink.a == h ? uplink.b : uplink.a;
      if (target == current) {
        target =
            layout_.rack_switches[(segment + 1) % layout_.rack_switches.size()];
      }
    } else {
      target = annex_switch();
    }
    topo_.migrate_host(h, target);
    topology_mutated();
  }

  net::DeviceId annex_switch() {
    if (annex_switch_ == net::kInvalidDevice) {
      net::DeviceId router = topo_.add_router("chaos-annex-r");
      annex_switch_ = topo_.add_l2_switch("chaos-annex-sw");
      net::LinkParams uplink{20 * sim::kMicrosecond, 1e9, 0.0};
      topo_.connect(annex_switch_, router, uplink);
      topo_.connect(router, layout_.rack_switches[0], uplink);
    }
    return annex_switch_;
  }

  void apply(const FaultAction& action) {
    net_->obs().tracer.record(obs::TraceKind::kFault, obs::kNoNode, sim_.now(),
                              -1, static_cast<uint64_t>(action.index()));
    std::visit(
        Overloaded{
            [&](const CrashFault& f) { crash(f.node); },
            [&](const RestartFault& f) { restart_node(f.node); },
            [&](const PauseFault& f) {
              net_->set_host_up(host(f.node), false);
              oracle_->note_pause(f.node);
            },
            [&](const ResumeFault& f) {
              net_->set_host_up(host(f.node), true);
              oracle_->note_resume(f.node);
            },
            [&](const LeaderCrashFault&) {
              size_t index = leader_index();
              leader_victims_.push_back(index);
              crash(index);
            },
            [&](const LeaderRestartFault&) {
              // Most recent leader victim that is still down.
              for (auto it = leader_victims_.rbegin();
                   it != leader_victims_.rend(); ++it) {
                if (!cluster_->alive(*it)) {
                  restart_node(*it);
                  return;
                }
              }
            },
            [&](const LeaderPauseFault&) {
              size_t index = leader_index();
              paused_leaders_.push_back(index);
              net_->set_host_up(host(index), false);
              oracle_->note_pause(index);
            },
            [&](const LeaderResumeFault&) {
              // Most recent leader-pause victim that is still detached.
              for (auto it = paused_leaders_.rbegin();
                   it != paused_leaders_.rend(); ++it) {
                if (!net_->host_up(host(*it))) {
                  net_->set_host_up(host(*it), true);
                  oracle_->note_resume(*it);
                  return;
                }
              }
            },
            [&](const PartitionStartFault& f) {
              std::vector<net::HostId> island;
              island.reserve(f.island.size());
              for (NodeIndex index : f.island) island.push_back(host(index));
              controller_.start_partition(f.id, std::move(island),
                                          f.symmetric);
              network_changed();
            },
            [&](const PartitionEndFault& f) {
              controller_.end_partition(f.id);
              network_changed();
            },
            [&](const UplinkDownFault& f) { set_uplink(f.segment, false); },
            [&](const UplinkUpFault& f) { set_uplink(f.segment, true); },
            [&](const LossStartFault& f) {
              controller_.set_loss(f.loss);
              network_changed();
            },
            [&](const LossEndFault&) {
              controller_.set_loss(0.0);
              network_changed();
            },
            [&](const DelayStartFault& f) {
              controller_.set_delay(f.extra, f.jitter);
              network_changed();
            },
            [&](const DelayEndFault&) {
              controller_.set_delay(0, 0);
              network_changed();
            },
            [&](const DuplicateStartFault& f) {
              controller_.set_duplicates(f.copies);
              network_changed();
            },
            [&](const DuplicateEndFault&) {
              controller_.set_duplicates(0);
              network_changed();
            },
            [&](const RouterCrashFault& f) { set_router(f.router, false); },
            [&](const RouterRestartFault& f) { set_router(f.router, true); },
            [&](const LinkAddFault& f) {
              add_segment_link(f.segment_a, f.segment_b);
            },
            [&](const HostMigrateFault& f) { migrate_node(f.node, f.segment); },
        },
        action);
  }

  ScenarioSpec spec_;
  sim::Simulation sim_;
  net::Topology topo_;
  net::ClusterLayout layout_;
  std::unique_ptr<net::Network> net_;
  ChaosController controller_;
  std::unique_ptr<protocols::Cluster> cluster_;
  std::unique_ptr<protocols::MembershipOracle> oracle_;
  std::unique_ptr<workload::WorkloadDriver> workload_;
  FaultPlan plan_;
  sim::Time fault_start_ = 0;
  std::vector<size_t> leader_victims_;
  std::vector<size_t> paused_leaders_;
  int uplinks_down_ = 0;
  int routers_down_ = 0;
  net::DeviceId annex_switch_ = net::kInvalidDevice;
  std::set<std::pair<net::DeviceId, net::DeviceId>> added_links_;
};

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  ScenarioRunner runner(spec);
  return runner.run();
}

std::vector<ScenarioSpec> full_matrix(const MatrixOptions& options) {
  std::vector<ScenarioSpec> specs;
  for (Scheme scheme :
       {Scheme::kAllToAll, Scheme::kGossip, Scheme::kHierarchical}) {
    for (ShapeKind shape : kAllShapeKinds) {
      for (PlanKind plan : kAllPlanKinds) {
        if (!plan_applicable(scheme, plan)) continue;
        for (uint64_t s = 0; s < options.seed_count; ++s) {
          ScenarioSpec spec;
          spec.scheme = scheme;
          spec.shape = shape;
          spec.plan = plan;
          spec.seed = options.first_seed + s;
          spec.nodes = options.nodes;
          spec.trace = options.trace;
          spec.metrics = options.metrics;
          spec.slo = options.slo;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

}  // namespace tamp::chaos
