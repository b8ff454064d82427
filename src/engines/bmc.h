// Bounded model checking over a TransitionSystem.
//
// The engine unrolls the transition relation one time frame per bound
// directly into its backend — each frame inside its own clause group — and
// asks every bound as one assumption-based query: solve(assume bad_t).
// Frames accumulate, so bound t+1 reuses everything the solver learned
// refuting bounds 0..t; this is exactly the incremental re-solve pattern
// BENCH_PR5 measured, now driven by a real consumer.
//
// Verdicts are checkable:
//   * SAT: the model's primary inputs per cycle are extracted and replayed
//     through plain circuit simulation; the verdict is only `unsafe` when
//     the replay reproduces bad (cex_validated).
//   * UNSAT at every bound: safe_bounded, which certify() (engine.h)
//     re-proves as one monolithic query on a fresh, DRAT-checked solver.
#pragma once

#include "engines/backend.h"
#include "engines/engine.h"
#include "engines/transition_system.h"

namespace berkmin::engines {

struct BmcOptions {
  // Highest cycle index checked: bounds 0..bound inclusive.
  int bound = 10;
  // Wrap each frame in a backend clause group (push per frame). The final
  // state leaves depth()+1 nested groups, which pop_to() can retire.
  bool frame_groups = true;
  // Per-query budget (unlimited by default). A blown budget yields
  // Verdict::unknown at that bound.
  Budget query_budget = Budget::unlimited();
};

class BmcEngine {
 public:
  BmcEngine(const TransitionSystem& ts, EngineBackend& backend,
            BmcOptions options = {});

  // Runs bounds 0..options.bound. May be called once per engine.
  EngineResult run();

  // After run(): retires the outermost frames down to `depth` frames
  // (requires frame_groups). The backend keeps every lemma whose
  // derivation was frame-independent — callers re-extend cheaply.
  bool pop_to(int depth);

  // Retires one *middle* frame's clause group by its named handle while
  // later frames stay live (requires frame_groups): the transition at
  // step t becomes unconstrained, an over-approximation used during
  // abstraction refinement. Lemmas whose derivations touched the retired
  // frame die with it; later frames' lemmas survive. The frame's
  // bookkeeping stays (its variables remain valid in later frames'
  // equivalence binaries); retiring the same frame twice is a refusal.
  bool retire_frame(int t);
  bool frame_is_live(int t) const {
    return t >= 0 && t < static_cast<int>(frame_groups_.size()) &&
           frame_groups_[static_cast<std::size_t>(t)] != no_group;
  }

  int depth() const { return static_cast<int>(frames_.depth()); }

 private:
  const TransitionSystem& ts_;
  EngineBackend& backend_;
  BmcOptions opts_;
  FrameStack frames_;
  // Named group handle per frame, index = cycle (no_group for a frame
  // retired in place by retire_frame). Empty without frame_groups.
  std::vector<GroupId> frame_groups_;
  EngineStats stats_;
};

}  // namespace berkmin::engines
