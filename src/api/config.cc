#include "api/config.h"

#include <cmath>
#include <limits>

#include "util/strings.h"

namespace tamp::api {

using util::parse_double;
using util::parse_int;
using util::strformat;
using util::to_lower;
using util::trim;

namespace {

enum class Section { kNone, kSystem, kService };

// MCAST_FREQ band (heartbeats per second). Outside it the heartbeat period
// is years long or shorter than a millisecond, and a non-finite rate has no
// period at all.
constexpr double kMinMcastFreq = 0.001;
constexpr double kMaxMcastFreq = 1000.0;

bool valid_mcast_freq(double hz) {
  return std::isfinite(hz) && hz >= kMinMcastFreq && hz <= kMaxMcastFreq;
}

bool set_error(std::string* error, int line, const std::string& message) {
  if (error != nullptr) {
    *error = strformat("line %d: %s", line, message.c_str());
  }
  return false;
}

bool apply_system_key(SystemConfig& system, const std::string& key,
                      const std::string& value, int line,
                      std::string* error) {
  std::string upper = key;
  for (auto& c : upper) c = static_cast<char>(std::toupper(c));
  auto need_int = [&](int& slot) {
    auto v = parse_int(value);
    if (!v) return set_error(error, line, "expected integer for " + key);
    if (*v < std::numeric_limits<int>::min() ||
        *v > std::numeric_limits<int>::max()) {
      return set_error(error, line, "integer out of range for " + key);
    }
    slot = static_cast<int>(*v);
    return true;
  };
  if (upper == "SHM_KEY") return need_int(system.shm_key);
  if (upper == "MAX_TTL") return need_int(system.max_ttl);
  if (upper == "MCAST_PORT") return need_int(system.mcast_port);
  if (upper == "MAX_LOSS") return need_int(system.max_loss);
  if (upper == "MCAST_ADDR") {
    system.mcast_addr = value;
    return true;
  }
  if (upper == "MCAST_FREQ") {
    auto v = parse_double(value);
    if (!v || !valid_mcast_freq(*v)) {
      return set_error(error, line,
                       "expected a number in [0.001, 1000] for " + key);
    }
    system.mcast_freq = *v;
    return true;
  }
  return set_error(error, line, "unknown *SYSTEM key " + key);
}

}  // namespace

std::optional<MembershipConfig> parse_config(std::string_view text,
                                             std::string* error) {
  MembershipConfig config;
  Section section = Section::kNone;
  ServiceConfig* current_service = nullptr;

  int line_number = 0;
  for (const auto& raw_line : util::split(text, '\n')) {
    ++line_number;
    std::string_view line = trim(raw_line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;

    if (line.front() == '*') {
      std::string name = to_lower(line.substr(1));
      if (name == "system") {
        section = Section::kSystem;
      } else if (name == "service") {
        section = Section::kService;
      } else {
        set_error(error, line_number, "unknown section " + std::string(line));
        return std::nullopt;
      }
      current_service = nullptr;
      continue;
    }

    if (line.front() == '[') {
      if (section != Section::kService) {
        set_error(error, line_number, "service block outside *SERVICE");
        return std::nullopt;
      }
      if (line.back() != ']' || line.size() < 3) {
        set_error(error, line_number, "malformed service header");
        return std::nullopt;
      }
      ServiceConfig service;
      service.name = std::string(trim(line.substr(1, line.size() - 2)));
      config.services.push_back(std::move(service));
      current_service = &config.services.back();
      continue;
    }

    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      set_error(error, line_number, "expected KEY = VALUE");
      return std::nullopt;
    }
    std::string key(trim(line.substr(0, eq)));
    std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      set_error(error, line_number, "empty key");
      return std::nullopt;
    }

    switch (section) {
      case Section::kNone:
        set_error(error, line_number, "key outside any section");
        return std::nullopt;
      case Section::kSystem:
        if (!apply_system_key(config.system, key, value, line_number, error)) {
          return std::nullopt;
        }
        break;
      case Section::kService: {
        if (current_service == nullptr) {
          set_error(error, line_number, "key before any [service] header");
          return std::nullopt;
        }
        std::string upper = key;
        for (auto& c : upper) c = static_cast<char>(std::toupper(c));
        if (upper == "PARTITION") {
          current_service->partition_spec = value;
        } else {
          current_service->params[key] = value;
        }
        break;
      }
    }
  }
  return config;
}

Status validate(const MembershipConfig& config) {
  const SystemConfig& sys = config.system;
  if (sys.max_ttl < 1 || sys.max_ttl > 250) {
    return Status::Error(
        strformat("MAX_TTL must be in [1, 250], got %d", sys.max_ttl));
  }
  if (!valid_mcast_freq(sys.mcast_freq)) {
    return Status::Error(strformat(
        "MCAST_FREQ must be a finite number in [0.001, 1000], got %g",
        sys.mcast_freq));
  }
  if (sys.max_loss < 1) {
    return Status::Error(
        strformat("MAX_LOSS must be >= 1, got %d", sys.max_loss));
  }
  if (sys.mcast_port < 1 || sys.mcast_port > 65534) {
    // +1 is the daemon's control port, so 65535 is excluded too.
    return Status::Error(
        strformat("MCAST_PORT must be in [1, 65534], got %d", sys.mcast_port));
  }
  if (sys.mcast_addr.empty()) {
    return Status::Error("MCAST_ADDR must not be empty");
  }
  for (const auto& service : config.services) {
    if (service.name.empty()) {
      return Status::Error("service name must not be empty");
    }
    // expand_partition_spec yields nullopt for "*"/empty (meaning "default")
    // and an empty vector for a spec that failed to parse.
    auto partitions = util::expand_partition_spec(service.partition_spec);
    if (partitions && partitions->empty()) {
      return Status::Error("service " + service.name +
                           ": malformed PARTITION spec '" +
                           service.partition_spec + "'");
    }
  }
  return Status::Ok();
}

net::ChannelId channel_for_mcast_addr(std::string_view addr) {
  // FNV-1a over the address text, folded into a private channel range well
  // away from the small literal ids used elsewhere.
  uint32_t hash = 2166136261u;
  for (char c : addr) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 16777619u;
  }
  return 0x10000u + (hash % 0x10000u);
}

}  // namespace tamp::api
