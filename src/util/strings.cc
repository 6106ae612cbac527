#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <set>

namespace tamp::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::optional<int64_t> parse_int(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  // std::from_chars for double is available in libstdc++ 11+.
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::vector<int>> expand_partition_spec(std::string_view spec) {
  spec = trim(spec);
  if (spec.empty() || spec == "*") return std::nullopt;
  std::set<int> ids;
  for (const auto& piece : split(spec, ',')) {
    std::string_view p = trim(piece);
    if (p.empty()) continue;
    size_t dash = p.find('-');
    if (dash == std::string_view::npos) {
      auto v = parse_int(p);
      if (!v || *v < 0 || *v > kMaxPartitionId) return std::vector<int>{};
      ids.insert(static_cast<int>(*v));
    } else {
      auto lo = parse_int(p.substr(0, dash));
      auto hi = parse_int(p.substr(dash + 1));
      if (!lo || !hi || *lo < 0 || *hi < *lo || *hi > kMaxPartitionId) {
        return std::vector<int>{};
      }
      for (int64_t v = *lo; v <= *hi; ++v) ids.insert(static_cast<int>(v));
    }
  }
  return std::vector<int>(ids.begin(), ids.end());
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  return strformat("%.2f %s", bytes, units[unit]);
}

}  // namespace tamp::util
