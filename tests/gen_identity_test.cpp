// Generated instances are byte-identical across changes to how formulas
// are stored and produced: every clause, in order, of the paper's twelve
// classes (at scale 1, and at scale 2 as the oneshot-paper benchmark
// workload generates them) and of a dozen safety-system frame templates
// hashes to a fixed constant. A generator or producer that reorders, drops
// or rewrites a single literal changes the hash (and, downstream, every
// search count). The explicit-state BFS answers over a seeded sweep of
// safety systems are pinned the same way.
#include <gtest/gtest.h>

#include <cstdint>

#include "circuit/circuit_gen.h"
#include "cnf/cnf_formula.h"
#include "gen/safety.h"
#include "harness/suites.h"
#include "util/rng.h"

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

TEST(GenByteIdentity, PaperClassesAtScaleTwo) {
  Fnv fnv;
  std::size_t instances = 0;
  for (const harness::Suite& suite : harness::paper_classes(2, 7)) {
    for (const harness::Instance& instance : suite.instances) {
      fnv.mix(instance.cnf);
      ++instances;
    }
  }
  EXPECT_EQ(instances, 41u);
  EXPECT_EQ(fnv.h, 13937322951871674802ull);
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

// reachable_bad_step over seed-searched safe, unsafe and latch-heavy
// systems and over unsearched random ones, 1-6 inputs and 2-14 latches,
// each at several cycle limits. An answer mixes in as step + 1, or 0 for
// "not reached".
TEST(GenByteIdentity, ReachableBadStepSweep) {
  Fnv fnv;
  const auto mix_answers = [&fnv](const engines::TransitionSystem& ts) {
    for (const int max_cycles : {-1, 0, 1, 3, 7}) {
      const std::optional<int> step = ts.reachable_bad_step(max_cycles);
      fnv.mix(step ? static_cast<std::uint64_t>(*step) + 1 : 0);
    }
  };
  for (int i = 0; i < 18; ++i) {
    gen::SafetyParams params;
    params.seed = static_cast<std::uint64_t>(100 + i);
    params.safe = i % 3 == 0;
    params.latch_heavy = i % 3 == 2;
    params.num_inputs = 1 + i % 6;
    params.num_latches = 2 + (5 * i) % 11;
    mix_answers(gen::safety_system(params));
  }
  Rng rng(2718);
  for (int i = 0; i < 40; ++i) {
    RandomCircuitParams params;
    params.num_inputs = 1 + i % 6;
    params.num_latches = 2 + (7 * i) % 13;
    params.num_gates = 12 + 2 * params.num_latches;
    params.num_outputs = 3 + i % 2;
    Circuit circuit = random_circuit(params, rng);
    int bad = circuit.outputs()[0];
    for (int o = 1; o < params.num_outputs; ++o) {
      bad = circuit.add_and(bad, circuit.outputs()[static_cast<std::size_t>(o)]);
    }
    circuit.mark_output(bad);
    mix_answers(engines::TransitionSystem(std::move(circuit), params.num_outputs));
  }
  EXPECT_EQ(fnv.h, 16880328914402126656ull);
}

}  // namespace
}  // namespace berkmin
