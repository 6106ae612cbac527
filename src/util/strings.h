// Small string helpers shared by the config parser, partition-spec matcher
// and benchmark table printers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tamp::util {

// Split on a delimiter; empty fields are kept ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char delim);

// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text);

std::string to_lower(std::string_view text);

// Parse helpers returning nullopt on malformed input (never throw).
std::optional<int64_t> parse_int(std::string_view text);
std::optional<double> parse_double(std::string_view text);

// Largest partition id a spec may name. Specs arrive from configuration
// files and client lookups, so a range is bounded before it is expanded.
inline constexpr int64_t kMaxPartitionId = 65535;

// Expand a partition specification like "0", "1-3", "0,2,5-7" into the sorted
// list of partition ids. "*" (or empty) returns nullopt, meaning "all". A
// malformed spec — a bad number, a reversed range, or an id outside
// [0, kMaxPartitionId] — returns an empty list, which matches nothing.
std::optional<std::vector<int>> expand_partition_spec(std::string_view spec);

// printf-style formatting into std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Human-readable byte count ("1.5 MB").
std::string human_bytes(double bytes);

}  // namespace tamp::util
