#include "engines/bmc.h"

#include <utility>

namespace berkmin::engines {

BmcEngine::BmcEngine(const TransitionSystem& ts, EngineBackend& backend,
                     BmcOptions options)
    : ts_(ts), backend_(backend), opts_(options), frames_(ts, backend) {}

EngineResult BmcEngine::run() {
  EngineResult result;
  for (int t = 0; t <= opts_.bound; ++t) {
    if (opts_.frame_groups) {
      const GroupId group = backend_.push();
      if (group == no_group) {
        result.error = backend_.last_error();
        result.stats = stats_;
        return result;
      }
      frame_groups_.push_back(group);
      ++stats_.pushes;
    }
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

bool BmcEngine::pop_to(int depth) {
  if (!opts_.frame_groups) return false;
  while (this->depth() > depth) {
    // Retire the outermost frame by its named handle (it may not be the
    // backend's innermost group when the caller pushed scratch groups of
    // its own, or after a retire_frame left holes below it).
    const GroupId group = frame_groups_.back();
    if (group != no_group && !backend_.pop(group)) return false;
    if (group != no_group) ++stats_.pops;
    frame_groups_.pop_back();
    // FrameStack has no pop; rebuild bookkeeping by truncation.
    frames_.truncate(frames_.depth() - 1);
  }
  return true;
}

bool BmcEngine::retire_frame(int t) {
  if (!opts_.frame_groups || !frame_is_live(t)) return false;
  GroupId& group = frame_groups_[static_cast<std::size_t>(t)];
  if (!backend_.pop(group)) return false;
  ++stats_.pops;
  group = no_group;  // the frame's bookkeeping survives; its clauses don't
  return true;
}

}  // namespace berkmin::engines
