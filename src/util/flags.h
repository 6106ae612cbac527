// Tiny command-line flag parser for the benchmark and example binaries.
//
//   util::FlagSet flags("chaos_soak");
//   auto& nodes = flags.add_int("nodes", 100, "cluster size");
//   auto& seed  = flags.add_int("seed", 1, "rng seed");
//   flags.parse(argc, argv);           // accepts --nodes=200 / --nodes 200
//
// Unknown flags are an error; --help prints usage and exits(0).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tamp::util {

class FlagSet {
 public:
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  int64_t& add_int(const std::string& name, int64_t default_value,
                   const std::string& help);
  double& add_double(const std::string& name, double default_value,
                     const std::string& help);
  bool& add_bool(const std::string& name, bool default_value,
                 const std::string& help);
  std::string& add_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help);

  // Parses argv; on --help prints usage and std::exit(0); on a malformed or
  // unknown flag prints usage to stderr and std::exit(2).
  void parse(int argc, char** argv);

  std::string usage() const;

 private:
  struct Flag {
    enum class Type { kInt, kDouble, kBool, kString } type;
    std::string help;
    std::string default_repr;
    // Exactly one is used, per `type`.
    std::unique_ptr<int64_t> int_value;
    std::unique_ptr<double> double_value;
    std::unique_ptr<bool> bool_value;
    std::unique_ptr<std::string> string_value;
  };

  bool apply(const std::string& name, const std::string& value);

  std::string program_;
  std::map<std::string, Flag> flags_;
};

}  // namespace tamp::util
