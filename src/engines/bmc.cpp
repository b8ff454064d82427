#include "engines/bmc.h"

#include <utility>

namespace berkmin::engines {

BmcEngine::BmcEngine(const TransitionSystem& ts, EngineBackend& backend,
                     BmcOptions options)
    : ts_(ts), backend_(backend), opts_(options), frames_(ts, backend) {}

EngineResult BmcEngine::run() {
  EngineResult result;
  for (int t = 0; t <= opts_.bound; ++t) {
    const FrameVars* frame = frames_.extend();
    if (frame == nullptr) {
      result.bound = t;
      result.error = "bmc: instantiating frame " + std::to_string(t) + ": " +
                     backend_.last_error();
      result.stats = stats_;
      return result;
    }
    ++stats_.frames;

    const Lit assumptions[] = {frame->bad};
    const SolveStatus status = backend_.solve(assumptions, opts_.query_budget);
    ++stats_.solves;
    if (status == SolveStatus::satisfiable) {
      ++stats_.sat_answers;
      Counterexample cex{frames_.model_inputs()};
      result.bound = t;
      result.cex_validated = ts_.trace_reaches_bad(cex.inputs);
      if (result.cex_validated) {
        result.verdict = Verdict::unsafe;
      } else {
        // Never report unsafe on a trace simulation rejects.
        result.verdict = Verdict::unknown;
        result.error = "bmc: counterexample at bound " + std::to_string(t) +
                       " failed simulation replay";
      }
      result.cex = std::move(cex);
      result.stats = stats_;
      return result;
    }
    if (status == SolveStatus::unknown) {
      result.bound = t;
      result.error = "bmc: query at bound " + std::to_string(t) +
                     " unresolved: " + backend_.last_error();
      result.stats = stats_;
      return result;
    }
    ++stats_.unsat_answers;
  }

  result.verdict = Verdict::safe_bounded;
  result.bound = opts_.bound;
  result.stats = stats_;
  return result;
}

}  // namespace berkmin::engines
