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

namespace tamp::api {

// Exactly the six *SYSTEM keys of the Figure-7 file.
struct SystemConfig {
  int shm_key = 999;
  int max_ttl = 4;
  std::string mcast_addr = "239.255.0.2";
  int mcast_port = 10050;
  double mcast_freq = 1.0;  // heartbeats per second
  int max_loss = 5;
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

// The one place the configuration rules live: the ranges of the six *SYSTEM
// keys and every service's partition spec. Both MService constructors and
// every control() parameter request run a candidate through it, so no path
// can hand the daemon a value another path would refuse. (The tracer is not
// part of the file; TraceControl configures and bounds-checks it.)
//
//   MembershipConfig config;
//   config.system.mcast_freq = 2.0;
//   config.services.push_back({"HTTP", "0", {{"Port", "8080"}}});
//   Status status = validate(config);
Status validate(const MembershipConfig& config);

// Maps a dotted-quad multicast address to a simulator channel id (stable
// hash), so configuration files keep their familiar 239.x.y.z syntax.
net::ChannelId channel_for_mcast_addr(std::string_view addr);

}  // namespace tamp::api
