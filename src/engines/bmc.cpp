#include "engines/bmc.h"

#include <utility>

#include "core/solver.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"

namespace berkmin::engines {

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::unknown: return "unknown";
    case Verdict::unsafe: return "unsafe";
    case Verdict::safe_bounded: return "safe_bounded";
    case Verdict::safe_invariant: return "safe_invariant";
  }
  return "?";
}

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
    const FrameVars& frame = frames_.extend();
    ++stats_.frames;

    const Lit assumptions[] = {frame.bad};
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
  if (opts_.certify) {
    result.certified = certify_safe(opts_.bound, &result.error);
    if (!result.certified) result.verdict = Verdict::unknown;
  }
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

bool BmcEngine::certify_safe(int bound, std::string* error) const {
  // Monolithic, independent statement of the same query: frames 0..bound
  // plus one clause "bad fires at some cycle". UNSAT of this formula is
  // exactly "safe within bound", and its refutation is a root refutation
  // (no assumptions), so the DRAT trace ends with the empty clause.
  Cnf cnf;
  CnfBackend capture(cnf);
  FrameStack frames(ts_, capture);
  std::vector<Lit> any_bad;
  for (int t = 0; t <= bound; ++t) {
    any_bad.push_back(frames.extend().bad);
  }
  cnf.add_clause(any_bad);

  proof::MemoryProofWriter writer;
  Solver solver(SolverOptions::chaff_like());
  solver.set_proof(&writer);
  solver.load(cnf);
  const SolveStatus status = solver.solve();
  if (status != SolveStatus::unsatisfiable) {
    if (error != nullptr) {
      *error = "bmc certify: independent monolithic solve answered " +
               std::string(to_string(status));
    }
    return false;
  }
  proof::DratChecker checker(cnf);
  const proof::CheckResult check = checker.check(writer.proof());
  if (!check.valid) {
    if (error != nullptr) *error = "bmc certify: DRAT check failed: " + check.error;
    return false;
  }
  return true;
}

}  // namespace berkmin::engines
