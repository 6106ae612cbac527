// Property sweep: the detection-time bound of the heartbeat-based schemes
// (detection within [k-1, k+1] heartbeat periods of the failure) must hold
// across cluster shapes, loss-tolerance settings, and heartbeat rates —
// the quantity Section 4's analysis calls T_detect = k / f.
#include <gtest/gtest.h>

#include <tuple>

#include "net/builders.h"
#include "protocols/cluster.h"

namespace tamp::protocols {
namespace {

using Param = std::tuple<Scheme, int /*max_losses*/, double /*freq hz*/,
                         uint64_t /*seed*/>;

class DetectionBounds : public ::testing::TestWithParam<Param> {};

TEST_P(DetectionBounds, DetectionWithinAnalyticalBound) {
  const auto& [scheme, max_losses, freq, seed] = GetParam();
  sim::Simulation sim(seed);
  net::Topology topo;
  net::RackedClusterParams params;
  params.racks = 2;
  params.hosts_per_rack = 8;
  auto layout = net::build_racked_cluster(topo, params);
  net::Network net(sim, topo);

  const auto period =
      static_cast<sim::Duration>(1e9 / freq);
  Cluster::Options opts;
  opts.scheme = scheme;
  opts.alltoall.period = period;
  opts.alltoall.max_losses = max_losses;
  opts.hier.period = period;
  opts.hier.max_losses = max_losses;
  Cluster cluster(sim, net, layout.hosts, opts);

  net::HostId victim = layout.hosts[12];
  sim::Time first = -1;
  cluster.set_change_listener(
      [&](membership::NodeId subject, bool alive, sim::Time when) {
        if (subject == victim && !alive && first < 0) first = when;
      });

  cluster.start_all();
  sim.run_until(20 * period + 10 * sim::kSecond);
  ASSERT_TRUE(cluster.converged());

  const sim::Time killed_at = sim.now();
  cluster.kill(12);
  sim.run_until(killed_at + (max_losses + 5) * period + 5 * sim::kSecond);

  ASSERT_GE(first, 0);
  const double detection_periods =
      static_cast<double>(first - killed_at) / static_cast<double>(period);
  // Analysis: T_detect = k/f. Allow one period of phase slack either way
  // plus the scan granularity.
  EXPECT_GE(detection_periods, static_cast<double>(max_losses) - 1.1);
  EXPECT_LE(detection_periods, static_cast<double>(max_losses) + 1.1);
  EXPECT_TRUE(cluster.converged());
}

std::string bound_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [scheme, k, freq, seed] = info.param;
  std::string name = scheme == Scheme::kAllToAll ? "a2a" : "hier";
  return name + "_k" + std::to_string(k) + "_f" +
         std::to_string(static_cast<int>(freq * 10)) + "_s" +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DetectionBounds,
    ::testing::Combine(
        ::testing::Values(Scheme::kAllToAll, Scheme::kHierarchical),
        ::testing::Values(3, 5, 8),
        ::testing::Values(0.5, 1.0, 2.0),
        ::testing::Values(6u, 7u)),
    bound_name);

}  // namespace
}  // namespace tamp::protocols
