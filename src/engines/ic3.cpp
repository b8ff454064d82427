#include "engines/ic3.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <utility>

namespace berkmin::engines {

namespace {

// Bound on literal-drop re-queries per blocked cube, after the UNSAT-core
// shrink.
constexpr int kMaxGeneralizeQueries = 32;

}  // namespace

Ic3Engine::Ic3Engine(const TransitionSystem& ts, EngineBackend& backend,
                     Ic3Options options)
    : ts_(ts), backend_(backend), opts_(options) {
  // The transition relation is permanent: added at the root, before any
  // frame group is open. Frame 0 (the all-zero initial state) gets its
  // named group at the start of run(). Refusals are reported there.
  std::optional<FrameVars> fv = instantiate_frame(backend_, ts_.frame());
  if (fv.has_value()) {
    fv_ = std::move(*fv);
  } else {
    failure_ = "ic3: adding the transition relation refused: " +
               backend_.last_error();
  }
}

bool Ic3Engine::accepted(bool added, const char* what) {
  if (!backend_.refused(added)) return true;
  if (failure_.empty()) {
    failure_ = std::string("ic3: adding ") + what +
               " refused: " + backend_.last_error();
  }
  return false;
}

Lit Ic3Engine::state_lit(Lit cube_lit) const {
  const Lit base = fv_.state[static_cast<std::size_t>(cube_lit.var())];
  return cube_lit.is_negative() ? ~base : base;
}

Lit Ic3Engine::next_lit(Lit cube_lit) const {
  const Lit base = fv_.next[static_cast<std::size_t>(cube_lit.var())];
  return cube_lit.is_negative() ? ~base : base;
}

bool Ic3Engine::activate_from(int from) {
  for (std::size_t i = 0; i < frame_groups_.size(); ++i) {
    const bool want = i >= static_cast<std::size_t>(from);
    if ((frame_active_[i] != 0) == want) continue;
    if (!backend_.set_group_active(frame_groups_[i], want)) return false;
    frame_active_[i] = want ? 1 : 0;
  }
  return true;
}

Ic3Engine::Cube Ic3Engine::model_state() const {
  Cube cube;
  cube.reserve(fv_.state.size());
  for (std::size_t j = 0; j < fv_.state.size(); ++j) {
    const bool bit = backend_.model_value(fv_.state[j]);
    cube.push_back(Lit(static_cast<Var>(j), !bit));
  }
  return cube;
}

std::vector<bool> Ic3Engine::model_inputs() const {
  std::vector<bool> inputs;
  inputs.reserve(fv_.inputs.size());
  for (const Lit l : fv_.inputs) inputs.push_back(backend_.model_value(l));
  return inputs;
}

bool Ic3Engine::is_init(const Cube& cube) {
  for (const Lit l : cube) {
    if (!l.is_negative()) return false;
  }
  return true;
}

SolveStatus Ic3Engine::query(int from, std::span<const Lit> assumptions) {
  if (!activate_from(from)) return SolveStatus::unknown;
  const SolveStatus status = backend_.solve(assumptions, opts_.query_budget);
  ++stats_.solves;
  if (status == SolveStatus::satisfiable) ++stats_.sat_answers;
  if (status == SolveStatus::unsatisfiable) ++stats_.unsat_answers;
  return status;
}

SolveStatus Ic3Engine::predecessor_query(const Cube& cube, int level) {
  const GroupId scratch = backend_.push();
  if (scratch == no_group) return SolveStatus::unknown;
  scratch_.push_back(scratch);
  ++stats_.pushes;
  std::vector<Lit> blocker;
  blocker.reserve(cube.size());
  for (const Lit l : cube) blocker.push_back(~state_lit(l));
  // Lands in the scratch group (innermost).
  if (!accepted(backend_.add_clause(blocker), "a query's blocker")) {
    return SolveStatus::unknown;
  }
  ++stats_.clauses_added;

  std::vector<Lit> assumptions;
  assumptions.reserve(cube.size());
  for (const Lit l : cube) assumptions.push_back(next_lit(l));
  // Callers must read the model (SAT) or the failed assumptions (UNSAT)
  // and then pop_scratch() themselves.
  return query(level - 1, assumptions);
}

bool Ic3Engine::pop_scratch() {
  if (scratch_.empty() || !backend_.pop(scratch_.back())) return false;
  scratch_.pop_back();  // the selector returns to the backend's free-list
  ++stats_.pops;
  return true;
}

bool Ic3Engine::open_frame() {
  const GroupId group = backend_.push();
  if (group == no_group) return false;
  ++stats_.pushes;
  frame_groups_.push_back(group);
  frame_active_.push_back(1);  // groups start active
  frames_.emplace_back();
  ++stats_.frames;
  return true;
}

bool Ic3Engine::add_blocked(const Cube& cube, int level) {
  std::vector<Lit> clause;
  clause.reserve(cube.size());
  for (const Lit l : cube) clause.push_back(~state_lit(l));
  if (!accepted(backend_.add_clause_to(
                    frame_groups_[static_cast<std::size_t>(level)], clause),
                "a blocked cube")) {
    return false;
  }
  ++stats_.clauses_added;
  frames_[static_cast<std::size_t>(level)].push_back(cube);
  return true;
}

Ic3Engine::Cube Ic3Engine::generalize(Cube cube, int level) {
  // Pass 1: intersect with the UNSAT core of the blocking query. The
  // query assumed acts plus the next-state image of `cube`; only the
  // next-state part shrinks the cube.
  std::unordered_map<std::int32_t, Lit> next_to_cube;
  for (const Lit l : cube) next_to_cube.emplace(next_lit(l).code(), l);
  Cube core;
  for (const Lit failed : backend_.failed_assumptions()) {
    const auto it = next_to_cube.find(failed.code());
    if (it != next_to_cube.end()) core.push_back(it->second);
  }
  if (!core.empty() && core.size() < cube.size()) {
    if (is_init(core)) {
      // The core dropped every positive literal; restore one so the cube
      // stays disjoint from the all-zero initial state. Any superset of
      // the core is still relatively inductive.
      for (const Lit l : cube) {
        if (!l.is_negative()) {
          core.push_back(l);
          break;
        }
      }
    }
    stats_.generalization_drops += cube.size() - core.size();
    cube = std::move(core);
  }

  // Pass 2: bounded literal dropping with fresh relative-induction
  // queries, each against its own temporary ¬candidate clause.
  int queries_left = kMaxGeneralizeQueries;
  for (std::size_t i = 0; i < cube.size() && queries_left > 0;) {
    Cube candidate;
    candidate.reserve(cube.size() - 1);
    for (std::size_t j = 0; j < cube.size(); ++j) {
      if (j != i) candidate.push_back(cube[j]);
    }
    if (candidate.empty() || is_init(candidate)) {
      ++i;
      continue;
    }
    --queries_left;
    const SolveStatus status = predecessor_query(candidate, level);
    if (!failure_.empty()) break;
    const bool keep_drop = status == SolveStatus::unsatisfiable;
    if (!pop_scratch()) break;
    if (keep_drop) {
      cube = std::move(candidate);
      ++stats_.generalization_drops;
      // Same index now names the next literal; don't advance.
    } else {
      ++i;
    }
  }
  return cube;
}

int Ic3Engine::propagate() {
  const int frontier = static_cast<int>(frames_.size()) - 1;
  for (int i = 1; i < frontier; ++i) {
    auto& delta = frames_[static_cast<std::size_t>(i)];
    std::vector<Cube> kept;
    kept.reserve(delta.size());
    for (Cube& cube : delta) {
      // SAT? [ F_i ∧ T ∧ cube' ] — ¬cube is already active at level i,
      // so no temporary clause is needed.
      std::vector<Lit> assumptions;
      assumptions.reserve(cube.size());
      for (const Lit l : cube) assumptions.push_back(next_lit(l));
      if (query(i, assumptions) == SolveStatus::unsatisfiable) {
        if (!add_blocked(cube, i + 1)) return -1;
      } else {
        // SAT keeps the cube here; unknown (budget) conservatively too.
        kept.push_back(std::move(cube));
      }
    }
    delta = std::move(kept);
    if (delta.empty()) return i;
  }
  return -1;
}

EngineResult Ic3Engine::make_counterexample(int obligation_index) {
  EngineResult result;
  Counterexample cex;
  for (int at = obligation_index; at != -1;
       at = obligations_[static_cast<std::size_t>(at)].parent) {
    cex.inputs.push_back(obligations_[static_cast<std::size_t>(at)].inputs);
  }
  result.bound = cex.depth();
  result.cex_validated = ts_.trace_reaches_bad(cex.inputs);
  if (result.cex_validated) {
    result.verdict = Verdict::unsafe;
  } else {
    result.verdict = Verdict::unknown;
    result.error = "ic3: counterexample of depth " +
                   std::to_string(cex.depth()) + " failed simulation replay";
  }
  result.cex = std::move(cex);
  result.stats = stats_;
  return result;
}

EngineResult Ic3Engine::run() {
  EngineResult result;
  const auto fail = [&](std::string what) {
    result.verdict = Verdict::unknown;
    result.error = std::move(what);
    result.stats = stats_;
    return result;
  };

  if (!failure_.empty()) return fail(failure_);
  // Frame 0: the all-zero initial state, unit clauses in its own named
  // group (opened here, not in the constructor, so a refusal is a
  // structured failure).
  if (!open_frame()) {
    return fail("ic3: opening frame 0's group: " + backend_.last_error());
  }
  for (const Lit s : fv_.state) {
    const Lit unit[] = {~s};
    if (!accepted(backend_.add_clause_to(frame_groups_[0], unit),
                  "the initial state")) {
      return fail(failure_);
    }
  }

  // Base case: can bad fire straight from the initial state?
  {
    const Lit assumptions[] = {fv_.bad};
    const SolveStatus status = query(0, assumptions);
    if (status == SolveStatus::unknown) {
      return fail("ic3: base-case query unresolved: " + backend_.last_error());
    }
    if (status == SolveStatus::satisfiable) {
      Obligation root;
      root.state = model_state();
      root.inputs = model_inputs();
      root.level = 0;
      obligations_.push_back(std::move(root));
      return make_counterexample(0);
    }
  }
  if (ts_.num_latches() == 0) {
    // No state: bad never firing from init means it never fires at all.
    result.verdict = Verdict::safe_invariant;
    result.bound = 0;
    result.stats = stats_;
    return result;
  }

  if (!open_frame()) {  // frontier F_1
    return fail("ic3: opening a frame group: " + backend_.last_error());
  }
  while (static_cast<int>(frames_.size()) - 1 <= opts_.max_frames) {
    const int frontier = static_cast<int>(frames_.size()) - 1;

    // Pull bad states out of the frontier until none remain.
    for (;;) {
      const Lit assumptions[] = {fv_.bad};
      const SolveStatus status = query(frontier, assumptions);
      if (status == SolveStatus::unknown) {
        return fail("ic3: frontier query unresolved: " + backend_.last_error());
      }
      if (status == SolveStatus::unsatisfiable) break;

      Obligation root;
      root.state = model_state();
      root.inputs = model_inputs();
      root.level = frontier;
      obligations_.push_back(std::move(root));
      const int root_index = static_cast<int>(obligations_.size()) - 1;

      // Min-level-first obligation queue (FIFO within a level).
      using Entry = std::pair<int, int>;  // (level, obligation index)
      std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
      queue.emplace(frontier, root_index);
      while (!queue.empty()) {
        const auto [level, index] = queue.top();
        queue.pop();
        ++stats_.obligations;
        const Cube state = obligations_[static_cast<std::size_t>(index)].state;
        if (level == 0) return make_counterexample(index);

        const SolveStatus pred = predecessor_query(state, level);
        if (!failure_.empty()) return fail(failure_);
        if (pred == SolveStatus::unknown) {
          return fail("ic3: blocking query at frame " + std::to_string(level) +
                      " unresolved: " + backend_.last_error());
        }
        if (pred == SolveStatus::satisfiable) {
          Obligation prev;
          prev.state = model_state();
          prev.inputs = model_inputs();
          prev.level = level - 1;
          prev.parent = index;
          if (!pop_scratch()) {
            return fail("ic3: " + backend_.last_error());
          }
          obligations_.push_back(std::move(prev));
          const int prev_index = static_cast<int>(obligations_.size()) - 1;
          if (level - 1 == 0 ||
              is_init(obligations_[static_cast<std::size_t>(prev_index)]
                          .state)) {
            return make_counterexample(prev_index);
          }
          queue.emplace(level - 1, prev_index);
          queue.emplace(level, index);  // retry once the predecessor is gone
          continue;
        }

        // UNSAT: `state` is blocked relative to F_{level-1}. Generalize
        // (reads the core before this pop) and commit the clause.
        Cube blocked = generalize(state, level);
        if (!failure_.empty()) return fail(failure_);
        if (!pop_scratch()) {
          return fail("ic3: " + backend_.last_error());
        }
        if (!add_blocked(blocked, level)) return fail(failure_);
        if (level < frontier) queue.emplace(level + 1, index);
      }
    }

    if (!open_frame()) {
      return fail("ic3: opening a frame group: " + backend_.last_error());
    }
    const int closed = propagate();
    if (!failure_.empty()) return fail(failure_);
    if (closed >= 0) {
      result.verdict = Verdict::safe_invariant;
      result.bound = closed;
      for (std::size_t j = static_cast<std::size_t>(closed) + 1;
           j < frames_.size(); ++j) {
        for (const Cube& cube : frames_[j]) {
          std::vector<Lit> clause;
          clause.reserve(cube.size());
          for (const Lit l : cube) clause.push_back(~l);
          result.invariant.push_back(std::move(clause));
        }
      }
      result.stats = stats_;
      return result;
    }
  }
  return fail("ic3: frontier passed max_frames = " +
              std::to_string(opts_.max_frames));
}

}  // namespace berkmin::engines
