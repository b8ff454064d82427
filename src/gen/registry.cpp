#include "gen/registry.h"

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "gen/adder_bench.h"
#include "gen/blocksworld.h"
#include "gen/bmc.h"
#include "gen/hanoi.h"
#include "gen/miters.h"
#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "gen/pipe.h"
#include "gen/random_ksat.h"
#include "gen/safety.h"

namespace berkmin::gen {
namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char ch : text) {
    if (ch == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  parts.push_back(current);
  return parts;
}

// The fields after a family name. Every field is optional (a missing one
// reads as its default), but one that is given must be whole and fit what
// it is read into: a bad field throws std::invalid_argument naming it,
// and so does a field past the family's last when the fields are opened.
class Fields {
 public:
  // `names` are the family's fields in order, as registry_help shows them.
  Fields(const std::vector<std::string>& parts,
         std::initializer_list<const char*> names)
      : parts_(parts), names_(names) {
    if (parts_.size() > names_.size() + 1) {
      throw std::invalid_argument(
          "field " + std::to_string(names_.size() + 1) + " ('" +
          parts_[names_.size() + 1] + "') is past the family's last field");
    }
  }

  int integer(std::size_t i, int fallback,
              int min = std::numeric_limits<int>::min(),
              int max = std::numeric_limits<int>::max()) const {
    return read<int>(i, fallback, min, max);
  }
  std::uint64_t seed(std::size_t i) const {
    return read<std::uint64_t>(i, 0, 0,
                               std::numeric_limits<std::uint64_t>::max());
  }
  // A <sat|unsat> field.
  bool satisfiable(std::size_t i, bool fallback) const {
    if (i >= parts_.size()) return fallback;
    if (parts_[i] == "sat") return true;
    if (parts_[i] == "unsat") return false;
    throw std::invalid_argument(describe(i) + " is not sat or unsat");
  }

 private:
  std::string describe(std::size_t i) const {
    return "field " + std::to_string(i) + " <" + names_[i - 1] + "> ('" +
           parts_[i] + "')";
  }

  template <typename T>
  T read(std::size_t i, T fallback, T min, T max) const {
    if (i >= parts_.size()) return fallback;
    const std::string& text = parts_[i];
    const std::size_t sign = text.starts_with('-') ? 1 : 0;
    if (text.size() == sign ||
        text.find_first_not_of("0123456789", sign) != std::string::npos) {
      throw std::invalid_argument(describe(i) + " is not a whole number");
    }
    T value{};
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (result.ec != std::errc{} || value < min || value > max) {
      throw std::invalid_argument(describe(i) + " is out of range [" +
                                  std::to_string(min) + ", " +
                                  std::to_string(max) + "]");
    }
    return value;
  }

  const std::vector<std::string>& parts_;
  std::vector<const char*> names_;
};

}  // namespace

std::optional<GeneratedInstance> generate_from_spec(const std::string& spec,
                                                    std::string* error) {
  const std::vector<std::string> parts = split(spec, ':');
  const std::string& family = parts[0];
  const auto fail = [&](const std::string& message) -> std::optional<GeneratedInstance> {
    if (error != nullptr) *error = "spec '" + spec + "': " + message;
    return std::nullopt;
  };

  GeneratedInstance out;
  out.name = spec;
  try {
    if (family == "hole") {
      const Fields f(parts, {"holes"});
      out.cnf = pigeonhole(f.integer(1, 6));
      out.expected = Expectation::unsat;
    } else if (family == "rand3") {
      const Fields f(parts, {"vars", "clauses", "seed"});
      out.cnf = random_ksat(f.integer(1, 50), f.integer(2, 213), 3, f.seed(3));
      out.expected = Expectation::unknown;
    } else if (family == "par") {
      const Fields f(parts, {"vars", "eqs", "len", "sat|unsat", "seed"});
      ParityParams p;
      p.num_vars = f.integer(1, 16);
      p.num_equations = f.integer(2, 24);
      p.equation_size = f.integer(3, 4);
      p.satisfiable = f.satisfiable(4, true);
      p.seed = f.seed(5);
      out.cnf = parity_instance(p);
      out.expected = p.satisfiable ? Expectation::sat : Expectation::unsat;
    } else if (family == "hanoi") {
      const Fields f(parts, {"disks", "moves"});
      const int disks = f.integer(1, 4, 1, HanoiEncoding::kMaxDisks);
      const int moves = f.integer(2, HanoiEncoding::optimal_moves(disks));
      out.cnf = hanoi_instance(disks, moves);
      out.expected = moves >= HanoiEncoding::optimal_moves(disks)
                         ? Expectation::sat
                         : Expectation::unsat;
    } else if (family == "blocks") {
      const Fields f(parts, {"blocks", "horizon", "sat|unsat", "seed"});
      BlocksworldParams p;
      p.num_blocks = f.integer(1, 5);
      p.horizon = f.integer(2, 8);
      p.satisfiable = f.satisfiable(3, true);
      p.seed = f.seed(4);
      out.cnf = blocksworld_instance(p);
      out.expected = p.satisfiable ? Expectation::sat : Expectation::unsat;
    } else if (family == "miter") {
      const Fields f(parts,
                     {"inputs", "gates", "sat|unsat", "seed", "xor percent"});
      MiterParams p;
      p.num_inputs = f.integer(1, 10);
      p.num_gates = f.integer(2, 120);
      p.equivalent = !f.satisfiable(3, false);
      p.seed = f.seed(4);
      p.xor_fraction = static_cast<double>(f.integer(5, 25)) / 100.0;
      out.cnf = miter_instance(p);
      out.expected = p.equivalent ? Expectation::unsat : Expectation::sat;
    } else if (family == "cmiter") {
      const Fields f(parts, {"inputs", "gates", "sat|unsat", "seed"});
      CanonicalMiterParams p;
      p.num_inputs = f.integer(1, 10);
      p.num_gates = f.integer(2, 150);
      p.equivalent = !f.satisfiable(3, false);
      p.seed = f.seed(4);
      out.cnf = canonical_miter_instance(p);
      out.expected = p.equivalent ? Expectation::unsat : Expectation::sat;
    } else if (family == "adder") {
      const Fields f(parts, {"width", "pair", "swap"});
      const int width = f.integer(1, 6);
      const auto pair = static_cast<AdderPair>(f.integer(2, 0, 0) % 3);
      const bool swap = f.integer(3, 0) != 0;
      out.cnf = adder_equivalence(width, pair, swap);
      out.expected = Expectation::unsat;
    } else if (family == "mult") {
      const Fields f(parts, {"width", "variant"});
      out.cnf = multiplier_equivalence(f.integer(1, 4), f.integer(2, 0, 0) % 4);
      out.expected = Expectation::unsat;
    } else if (family == "mult_mut") {
      const Fields f(parts, {"width", "variant", "seed"});
      out.cnf = multiplier_mutation(f.integer(1, 4), f.integer(2, 0, 0) % 4,
                                    f.seed(3));
      out.expected = Expectation::sat;
    } else if (family == "adder_mut") {
      const Fields f(parts, {"width", "pair", "seed"});
      const int width = f.integer(1, 6);
      const auto pair = static_cast<AdderPair>(f.integer(2, 0, 0) % 3);
      out.cnf = adder_mutation(width, pair, f.seed(3));
      out.expected = Expectation::sat;
    } else if (family == "adder_sum") {
      const Fields f(parts, {"width", "seed"});
      out.cnf = adder_target_sum(f.integer(1, 8), f.seed(2));
      out.expected = Expectation::sat;
    } else if (family == "bmc") {
      const Fields f(parts, {"cycles", "gates", "latches", "inputs",
                             "sat|unsat", "seed"});
      BmcParams p;
      p.cycles = f.integer(1, 5);
      p.num_gates = f.integer(2, 60);
      p.num_latches = f.integer(3, 8);
      p.num_inputs = f.integer(4, 6);
      p.equivalent = !f.satisfiable(5, false);
      p.seed = f.seed(6);
      out.cnf = bmc_instance(p);
      out.expected = p.equivalent ? Expectation::unsat : Expectation::sat;
    } else if (family == "bmc-safe" || family == "bmc-unsafe") {
      const Fields f(parts, {"cycles", "gates", "latches", "inputs", "seed"});
      SafetyParams p;
      p.safe = family == "bmc-safe";
      p.cycles = f.integer(1, 8);
      p.num_gates = f.integer(2, 30);
      p.num_latches = f.integer(3, 6);
      p.num_inputs = f.integer(4, 4);
      p.seed = f.seed(5);
      out.cnf = safety_cnf(p);
      out.expected = p.safe ? Expectation::unsat : Expectation::sat;
    } else if (family == "bmc-latch") {
      const Fields f(parts,
                     {"cycles", "latches", "inputs", "sat|unsat", "seed"});
      SafetyParams p;
      p.latch_heavy = true;
      p.cycles = f.integer(1, 10);
      p.num_latches = f.integer(2, 10);
      p.num_inputs = f.integer(3, 3);
      p.safe = !f.satisfiable(4, true);
      p.seed = f.seed(5);
      out.cnf = safety_cnf(p);
      out.expected = p.safe ? Expectation::unsat : Expectation::sat;
    } else if (family == "pipe") {
      const Fields f(parts, {"width", "stages", "sat|unsat", "seed", "mult",
                             "swap", "xor"});
      PipeParams p;
      p.width = f.integer(1, 4);
      p.stages = f.integer(2, 3);
      p.correct = !f.satisfiable(3, false);
      p.seed = f.seed(4);
      p.with_multiplier = f.integer(5, 0) != 0;
      p.swap_spec_operands = f.integer(6, 0) != 0;
      p.with_xor_spread = f.integer(7, 0) != 0;
      out.cnf = pipe_instance(p);
      out.expected = p.correct ? Expectation::unsat : Expectation::sat;
    } else {
      return fail("unknown family '" + family + "'");
    }
  } catch (const std::exception& ex) {
    return fail(ex.what());
  }
  return out;
}

std::string registry_help() {
  std::ostringstream out;
  out << "instance specs (fields after the family name are optional; a "
         "given field must be a whole number in range):\n"
      << "  hole:<holes>                          pigeonhole, unsat\n"
      << "  rand3:<vars>:<clauses>:<seed>         uniform random 3-sat\n"
      << "  par:<vars>:<eqs>:<len>:<sat|unsat>:<seed>   xor system\n"
      << "  hanoi:<disks 1-30>:<moves>            towers of hanoi plan\n"
      << "  blocks:<blocks>:<horizon>:<sat|unsat>:<seed> blocks world\n"
      << "  miter:<inputs>:<gates>:<sat|unsat>:<seed>:<xor percent>\n"
      << "                                        equivalence miter\n"
      << "  cmiter:<inputs>:<gates>:<sat|unsat>:<seed>   vs canonical mux tree\n"
      << "  adder:<width>:<pair 0-2>:<swap 0|1>   adder equivalence, unsat\n"
      << "  mult:<width>:<variant 0-3>            multiplier miter, unsat (hard)\n"
      << "  mult_mut:<width>:<variant>:<seed>     faulty multiplier miter, sat\n"
      << "  adder_mut:<width>:<pair>:<seed>       faulty adder miter, sat\n"
      << "  adder_sum:<width>:<seed>              a+b == target, sat\n"
      << "  bmc:<cycles>:<gates>:<latches>:<inputs>:<sat|unsat>:<seed>\n"
      << "  bmc-safe:<cycles>:<gates>:<latches>:<inputs>:<seed>\n"
      << "                                        safety property, unsat\n"
      << "  bmc-unsafe:<cycles>:<gates>:<latches>:<inputs>:<seed>\n"
      << "                                        reachable bad state, sat\n"
      << "  bmc-latch:<cycles>:<latches>:<inputs>:<sat|unsat>:<seed>\n"
      << "                                        latch-heavy safety property\n"
      << "  pipe:<width>:<stages>:<sat|unsat>:<seed>:<mult 0|1>:<swap 0|1>:\n"
      << "       <xor 0|1>\n"
      << "                                        pipelined datapath check\n";
  return out.str();
}

}  // namespace berkmin::gen
