// Shared verdict/result types of the model-checking engines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cnf/literal.h"

namespace berkmin::engines {

enum class Verdict : std::uint8_t {
  unknown,         // budget/backend failure (see EngineResult::error)
  unsafe,          // a validated counterexample trace was found
  safe_bounded,    // BMC: no counterexample within the bound
  safe_invariant,  // IC3: an inductive invariant proves full safety
};

const char* to_string(Verdict verdict);

// A counterexample is the input trace alone: the initial state is fixed
// (all-zero) and the circuit is deterministic, so the inputs determine
// every state. Bad fires at the last cycle; depth() is that cycle index.
struct Counterexample {
  std::vector<std::vector<bool>> inputs;  // one vector per cycle
  int depth() const { return static_cast<int>(inputs.size()) - 1; }
};

struct EngineStats {
  std::uint64_t solves = 0;
  std::uint64_t sat_answers = 0;
  std::uint64_t unsat_answers = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t clauses_added = 0;   // engine-level clauses (frames, lemmas)
  std::uint64_t frames = 0;          // BMC: unrolled frames; IC3: frontier
  std::uint64_t obligations = 0;     // IC3 proof obligations handled
  std::uint64_t generalization_drops = 0;  // IC3 literals dropped from cubes
};

struct EngineResult {
  Verdict verdict = Verdict::unknown;
  // unsafe: counterexample depth; safe_bounded: the explored bound;
  // safe_invariant: the frame at which the invariant closed.
  int bound = -1;
  std::optional<Counterexample> cex;
  // SAT verdicts: the trace replayed through circuit simulation and
  // reproduced bad. An unsafe verdict with cex_validated false is an
  // engine bug surfaced in `error`, never silently reported as unsafe.
  bool cex_validated = false;
  // Set by certify(): the safe verdict was re-proved on a fresh solver and
  // every UNSAT answer that proof rests on was DRAT-checked. False until
  // certify() runs, or on certification failure (see `error`).
  bool certified = false;
  std::string error;
  EngineStats stats;
  // IC3 safe verdicts: the inductive invariant as clauses over latch
  // indices (Lit(j, false) means "latch j is 1"). Together with the
  // all-zero initial state and the property, these certify safety.
  std::vector<std::vector<Lit>> invariant;
};

class TransitionSystem;

// Re-proves a safe verdict independently of the engine and its backend,
// on a fresh chaff_like Solver whose UNSAT answers a live DratChecker
// (proof::LiveCertifier) must confirm:
//   * safe_bounded: "bad fires within `bound` cycles" (the unrolled frames
//     plus one any-bad clause) is unsatisfiable;
//   * safe_invariant: the all-zero initial state satisfies every
//     `invariant` clause (by evaluation), and the invariant over one
//     transition frame excludes bad and implies each of its clauses in
//     the next state.
// Sets `certified` and returns it. On failure the verdict becomes
// `unknown` and `error` says why; unsafe and unknown results are left
// untouched (false).
bool certify(const TransitionSystem& ts, EngineResult& result);

}  // namespace berkmin::engines
