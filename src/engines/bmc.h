// Bounded model checking over a TransitionSystem.
//
// The engine unrolls the transition relation one time frame per bound
// straight into its backend's formula and asks every bound as one
// assumption-based query: solve(assume bad_t). Frames accumulate, so bound
// t+1 reuses everything the solver learned refuting bounds 0..t; this is
// exactly the incremental re-solve pattern BENCH_PR5 measured, now driven
// by a real consumer. No frame is ever retracted, so no clause group and
// no selector assumption stands between a query and its search.
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

 private:
  const TransitionSystem& ts_;
  EngineBackend& backend_;
  BmcOptions opts_;
  FrameStack frames_;
  EngineStats stats_;
};

}  // namespace berkmin::engines
