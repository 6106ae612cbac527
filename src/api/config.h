// Parser for the membership configuration file format of paper Figure 7:
//
//   *SYSTEM
//   SHM_KEY = 999
//   MAX_TTL = 4
//   MCAST_ADDR = 239.255.0.2
//   MCAST_PORT = 10050
//   MCAST_FREQ = 1
//   MAX_LOSS = 5
//
//   *SERVICE
//   [HTTP]
//       PARTITION = 0
//       Port = 8080
//   [Cache]
//       PARTITION = 2
//
// All nodes share one file; per-service sections declare what this node
// hosts plus free-form service parameters.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "net/ids.h"
#include "obs/obs.h"

namespace tamp::api {

// Upper bound on the trace ring a service may configure (2^22 events ≈
// 160 MiB of TraceEvent) — large enough for any soak, small enough that a
// typo'd capacity cannot exhaust memory.
inline constexpr size_t kMaxTraceCapacity = size_t{1} << 22;

struct SystemConfig {
  int shm_key = 999;
  int max_ttl = 4;
  std::string mcast_addr = "239.255.0.2";
  int mcast_port = 10050;
  double mcast_freq = 1.0;  // heartbeats per second
  int max_loss = 5;
  // Observability (applied to the Network's registry/tracer by
  // MService::run(), before the daemon resolves its counter handles).
  bool metrics_enabled = true;
  size_t trace_capacity = size_t{1} << 16;
  uint64_t trace_kinds_mask = obs::kAllTraceKinds;
};

struct ServiceConfig {
  std::string name;
  std::string partition_spec = "0";
  std::map<std::string, std::string> params;  // e.g. Port = 8080
};

struct MembershipConfig {
  SystemConfig system;
  std::vector<ServiceConfig> services;
};

// Parses the Figure-7 format. On malformed input returns nullopt and, when
// `error` is non-null, stores a human-readable reason with a line number.
std::optional<MembershipConfig> parse_config(std::string_view text,
                                             std::string* error = nullptr);

// The single validated construction path for MService/MClient configuration.
// Seeds from defaults or a Figure-7 file, layers fluent overrides on top,
// and validates everything once in Build() — replacing the previous split
// where file parsing, control() asserts, and silent fallbacks each enforced
// (different subsets of) the rules.
//
//   MembershipConfig config;
//   Status status = MembershipConfigBuilder()
//                       .mcast_addr("239.255.0.2")
//                       .mcast_freq(2.0)
//                       .max_ttl(4)
//                       .add_service("HTTP", "0", {{"Port", "8080"}})
//                       .Build(&config);
class MembershipConfigBuilder {
 public:
  MembershipConfigBuilder() = default;

  // Seed the builder from a Figure-7 configuration file. A parse failure is
  // remembered and surfaces as the Build() status (fluent overrides applied
  // after a failed parse still land on the defaults, matching the paper's
  // "if the configuration file is not available, default values are used").
  static MembershipConfigBuilder FromText(std::string_view text);

  // Seed from an already-assembled configuration (e.g. re-validating after
  // a programmatic tweak). Clears any remembered parse failure.
  MembershipConfigBuilder& replace(MembershipConfig config);

  MembershipConfigBuilder& shm_key(int key);
  MembershipConfigBuilder& max_ttl(int ttl);
  MembershipConfigBuilder& mcast_addr(std::string addr);
  MembershipConfigBuilder& mcast_port(int port);
  MembershipConfigBuilder& mcast_freq(double heartbeats_per_second);
  MembershipConfigBuilder& max_loss(int consecutive_losses);
  MembershipConfigBuilder& metrics_enabled(bool enabled);
  MembershipConfigBuilder& trace_capacity(size_t capacity);
  MembershipConfigBuilder& trace_kinds_mask(uint64_t mask);
  MembershipConfigBuilder& add_service(
      std::string name, std::string partition_spec = "0",
      std::map<std::string, std::string> params = {});

  // Validates the assembled configuration (ranges, partition specs, parse
  // status) and writes it to `out` on success. `out` is untouched on error.
  Status Build(MembershipConfig* out) const;

 private:
  MembershipConfig config_;
  std::string parse_error_;  // non-empty when FromText failed
};

// Maps a dotted-quad multicast address to a simulator channel id (stable
// hash), so configuration files keep their familiar 239.x.y.z syntax.
net::ChannelId channel_for_mcast_addr(std::string_view addr);

}  // namespace tamp::api
