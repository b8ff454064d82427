// Instance suites mirroring the paper's benchmark classes.
//
// Twelve classes appear in Tables 1/2/4/5 (and the per-class comparisons
// of Tables 6/7): Hole, Blocksworld, Par16, Sss1.0, Sss1.0a, Sss_sat1.0,
// Fvp_unsat1.0, Vliw_sat1.0, Beijing, Hanoi, Miters, Fvp_unsat2.0. The
// original CNF files are not redistributable here, so each class is
// populated by the structurally matching generator (README.md, "Benchmark
// classes", tabulates which). `scale` grows the instances: 1 =
// seconds-per-class smoke scale, 2-3 = progressively closer to paper
// hardness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cnf/cnf_formula.h"
#include "gen/registry.h"

namespace berkmin::harness {

struct Instance {
  std::string name;
  Cnf cnf;
  gen::Expectation expected = gen::Expectation::unknown;
};

struct Suite {
  std::string name;
  std::vector<Instance> instances;
};

// All twelve classes in the paper's table order.
std::vector<Suite> paper_classes(int scale, std::uint64_t seed);

// One class by its paper name ("Hole", "Beijing", ...); throws on unknown.
Suite suite_by_name(const std::string& name, int scale, std::uint64_t seed);

// The five hard instances of Table 3 (skin effect), in the paper's
// numbering: 1 = miter, 2 = hanoi, 3 = beijing/adder, 4 = pipe (fvp-like),
// 5 = vliw-like.
std::vector<Instance> skin_effect_instances(int scale, std::uint64_t seed);

// The per-instance rows of Tables 8/9 (hanoi + pipe family members).
std::vector<Instance> detail_instances(int scale, std::uint64_t seed);

// A mixed "competition finals" suite for Table 10.
std::vector<Instance> competition_suite(int scale, std::uint64_t seed);

}  // namespace berkmin::harness
