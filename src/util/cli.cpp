#include "util/cli.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace berkmin {
namespace {

// Whether `read` (strtoll or strtod) consumes all of a plain decimal
// `text`; "abc", "5x", "inf", " 7" and "" never pass.
template <typename Read>
bool reads_in_full(const std::string& text, Read read) {
  if (text.empty() ||
      text.find_first_not_of("0123456789+-.eE") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  read(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

bool is_integer(const std::string& text) {
  return reads_in_full(text, [](const char* s, char** end) {
    return std::strtoll(s, end, 10);
  });
}

bool is_number(const std::string& text) {
  return reads_in_full(text, [](const char* s, char** end) {
    return std::strtod(s, end);
  });
}

// A range bound as the user would type it: 0, 256, 0.5.
std::string bound_text(double bound) {
  std::ostringstream out;
  out.precision(15);
  out << bound;
  return out.str();
}

// "in [lo, hi]", ">= lo" or "<= hi"; empty for an unbounded range.
std::string range_text(const OptionRange& range) {
  const bool low = std::isfinite(range.min);
  const bool high = std::isfinite(range.max);
  if (low && high) {
    return "in [" + bound_text(range.min) + ", " + bound_text(range.max) + "]";
  }
  if (low) return ">= " + bound_text(range.min);
  if (high) return "<= " + bound_text(range.max);
  return "";
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) raw_.emplace_back(argv[i]);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{true, "", help, {}};
}

void ArgParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help, OptionRange range) {
  specs_[name] = Spec{false, default_value, help, range};
}

bool ArgParser::parse() {
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const std::string& token = raw_[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string name = token.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      error_ = "unknown option --" + name;
      return false;
    }
    if (it->second.is_flag) {
      if (has_inline) {
        error_ = "flag --" + name + " does not take a value";
        return false;
      }
      values_[name] = "1";
    } else if (has_inline) {
      values_[name] = inline_value;
    } else {
      if (i + 1 >= raw_.size()) {
        error_ = "option --" + name + " requires a value";
        return false;
      }
      values_[name] = raw_[++i];
    }
  }
  // An option registered with a numeric default is numeric, and an integer
  // default ("4", not "4.0") makes it an integer option: garbage, or a
  // fraction get_int() would truncate, is a usage error here rather than a
  // silent 0 or 1 from the getters.
  for (const auto& [name, value] : values_) {
    const Spec& spec = specs_.at(name);
    if (spec.is_flag) continue;
    if (is_integer(spec.default_value) && !is_integer(value)) {
      error_ = "option --" + name + " expects an integer, got '" + value + "'";
      return false;
    }
    if (is_number(spec.default_value) && !is_number(value)) {
      error_ = "option --" + name + " expects a number, got '" + value + "'";
      return false;
    }
    // Compared as a double, so a huge integer still lands on the right
    // side of the bound.
    if (is_number(value)) {
      const double number = std::strtod(value.c_str(), nullptr);
      if (number < spec.range.min || number > spec.range.max) {
        error_ = "option --" + name + " must be " + range_text(spec.range) +
                 ", got '" + value + "'";
        return false;
      }
    }
  }
  return true;
}

bool ArgParser::has_flag(const std::string& name) const {
  return values_.count(name) > 0;
}

bool ArgParser::provided(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string ArgParser::get_string(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  if (const auto it = specs_.find(name); it != specs_.end()) return it->second.default_value;
  return "";
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::strtoll(get_string(name).c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name) const {
  return std::strtod(get_string(name).c_str(), nullptr);
}

std::string ArgParser::help(const std::string& program_description) const {
  std::ostringstream out;
  out << program_description << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    out << "  --" << name;
    if (!spec.is_flag) {
      out << " <value> (default: " << spec.default_value;
      if (const std::string range = range_text(spec.range); !range.empty()) {
        out << ", " << range;
      }
      out << ")";
    }
    out << "\n      " << spec.help << '\n';
  }
  return out.str();
}

}  // namespace berkmin
