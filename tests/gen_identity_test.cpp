// Generated instances are byte-identical across changes to how formulas
// are stored and produced: every clause, in order, of the paper's twelve
// classes and of a dozen safety-system frame templates hashes to a fixed
// constant. A generator or producer that reorders, drops or rewrites a
// single literal changes the hash (and, downstream, every search count).
#include <gtest/gtest.h>

#include <cstdint>

#include "cnf/cnf_formula.h"
#include "gen/safety.h"
#include "harness/suites.h"

namespace berkmin {
namespace {

// FNV-1a over the variable count, then each clause as its size followed by
// its literal codes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(const Cnf& cnf) {
    mix(static_cast<std::uint64_t>(cnf.num_vars()));
    for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
      const auto clause = cnf.clause(i);
      mix(clause.size());
      for (const Lit l : clause) mix(static_cast<std::uint64_t>(l.code()));
    }
  }
};

TEST(GenByteIdentity, PaperClassesAtScaleOne) {
  Fnv fnv;
  std::size_t clauses = 0;
  for (const harness::Suite& suite : harness::paper_classes(1, 7)) {
    for (const harness::Instance& instance : suite.instances) {
      fnv.mix(instance.cnf);
      clauses += instance.cnf.num_clauses();
    }
  }
  EXPECT_EQ(clauses, 163230u);
  EXPECT_EQ(fnv.h, 13225722273749606192ull);
}

TEST(GenByteIdentity, SafetyFrameTemplates) {
  Fnv fnv;
  for (int i = 0; i < 12; ++i) {
    gen::SafetyParams params;
    params.seed = static_cast<std::uint64_t>(i);
    params.safe = i % 3 != 1;
    params.latch_heavy = i % 3 == 2;
    const engines::TransitionSystem ts = gen::safety_system(params);
    const engines::FrameTemplate& frame = ts.frame();
    fnv.mix(frame.cnf);
    for (const Lit l : frame.inputs) fnv.mix(static_cast<std::uint64_t>(l.code()));
    for (const Lit l : frame.state) fnv.mix(static_cast<std::uint64_t>(l.code()));
    for (const Lit l : frame.next) fnv.mix(static_cast<std::uint64_t>(l.code()));
    fnv.mix(static_cast<std::uint64_t>(frame.bad.code()));
  }
  EXPECT_EQ(fnv.h, 13669264646124853072ull);
}

}  // namespace
}  // namespace berkmin
