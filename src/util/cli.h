// Minimal command-line option parsing for examples and bench drivers.
//
// Supports "--name value", "--name=value", and boolean "--flag" forms plus
// positional arguments. Unknown options are reported, not silently ignored,
// and so is a non-numeric value for an option registered with a numeric
// default, or a non-integer one for an integer default (the default
// documents the option's type: register "0.0", not "0", for an option read
// with get_double), and a value outside the option's registered range.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace berkmin {

// The largest --threads / --pool any CLI accepts: each unit is an OS
// thread, so a typo must not ask for thousands of them.
inline constexpr std::int64_t kMaxThreads = 256;
// The largest value of an option read into an int: every such option
// registers it (or less) as its range's max, so no value is truncated.
inline constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();

// The inclusive bounds a numeric option's value must lie within.
struct OptionRange {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
};

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  // Registration doubles as documentation; parse() checks against it.
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help, OptionRange range = {});

  // Returns false (and fills error()) on unknown or malformed options,
  // including a value that is not a number for a numeric option, not an
  // integer for an integer one, or outside the option's range.
  bool parse();

  bool has_flag(const std::string& name) const;
  // True iff the option was given on the command line (vs its default).
  bool provided(const std::string& name) const;
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }
  std::string help(const std::string& program_description) const;

 private:
  struct Spec {
    bool is_flag = false;
    std::string default_value;
    std::string help;
    OptionRange range;
  };

  std::vector<std::string> raw_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace berkmin
