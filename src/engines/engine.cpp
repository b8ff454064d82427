#include "engines/engine.h"

#include <utility>

#include "core/solver.h"
#include "engines/backend.h"
#include "engines/transition_system.h"
#include "proof/live_certifier.h"

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

namespace {

// Empty when `backend` answers the query UNSAT and its checker confirms
// the answer; otherwise why not.
std::string refute(SolverBackend& backend, const std::string& what,
                   std::span<const Lit> assumptions) {
  const SolveStatus status = backend.solve(assumptions, Budget::unlimited());
  if (status != SolveStatus::unsatisfiable) {
    return "certify: " + what + " answered " + to_string(status);
  }
  if (!backend.answer_certified()) {
    return "certify: " + what + " failed DRAT verification";
  }
  return {};
}

// "bad fires within `bound` cycles": frames 0..bound plus one clause "bad
// fires at some cycle", refuted at the root.
std::string recheck_bound(SolverBackend& backend, const TransitionSystem& ts,
                          int bound) {
  FrameStack frames(ts, backend);
  std::vector<Lit> any_bad;
  for (int t = 0; t <= bound; ++t) {
    const FrameVars* frame = frames.extend();
    if (frame == nullptr) return "certify: " + backend.last_error();
    any_bad.push_back(frame->bad);
  }
  backend.add_clause(any_bad);
  return refute(backend, "the bounded query", {});
}

// Initiation, the property and consecution of `invariant` (clauses over
// latch indices).
std::string recheck_invariant(SolverBackend& backend,
                              const TransitionSystem& ts,
                              const std::vector<std::vector<Lit>>& invariant) {
  for (const auto& clause : invariant) {
    bool init_satisfies = false;
    for (const Lit l : clause) {
      if (l.var() < 0 || l.var() >= ts.num_latches()) {
        return "certify: an invariant literal names no latch";
      }
      init_satisfies |= l.is_negative();
    }
    if (!init_satisfies) return "certify: an invariant clause excludes init";
  }

  const std::optional<FrameVars> frame = instantiate_frame(backend, ts.frame());
  if (!frame.has_value()) return "certify: " + backend.last_error();
  const FrameVars& fv = *frame;
  const auto lift = [](Lit latch_lit, const std::vector<Lit>& side) {
    const Lit base = side[static_cast<std::size_t>(latch_lit.var())];
    return latch_lit.is_negative() ? ~base : base;
  };
  std::vector<Lit> lits;
  for (const auto& clause : invariant) {
    lits.clear();
    for (const Lit l : clause) lits.push_back(lift(l, fv.state));
    backend.add_clause(lits);
  }
  const Lit bad[] = {fv.bad};
  std::string error = refute(backend, "the property query", bad);
  for (std::size_t i = 0; error.empty() && i < invariant.size(); ++i) {
    lits.clear();
    for (const Lit l : invariant[i]) lits.push_back(lift(~l, fv.next));
    error = refute(backend, "a consecution query", lits);
  }
  return error;
}

}  // namespace

bool certify(const TransitionSystem& ts, EngineResult& result) {
  if (result.verdict != Verdict::safe_bounded &&
      result.verdict != Verdict::safe_invariant) {
    return false;
  }
  Solver solver(SolverOptions::chaff_like());
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  SolverBackend backend(certifier);
  std::string error =
      result.verdict == Verdict::safe_bounded
          ? recheck_bound(backend, ts, result.bound)
          : recheck_invariant(backend, ts, result.invariant);
  result.certified = error.empty();
  if (!result.certified) {
    result.verdict = Verdict::unknown;
    result.error = std::move(error);
  }
  return result.certified;
}

}  // namespace berkmin::engines
