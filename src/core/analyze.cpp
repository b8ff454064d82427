// First-UIP conflict analysis (the "reverse BCP" of Section 2), including
// the activity bookkeeping that distinguishes BerkMin from Chaff:
//
//  * ActivityPolicy::responsible_clauses bumps var_activity once per
//    occurrence of a variable's literal in EVERY clause the resolution
//    chain touches (Section 4);
//  * ActivityPolicy::conflict_clause_only bumps only the variables of the
//    final learned clause (the "less_sensitivity" ablation / Chaff's rule);
//  * clause_activity of every learned clause responsible for the conflict
//    is incremented regardless of policy (Section 8 uses it for deletion);
//  * lit_activity counts, per literal, the conflict clauses ever deduced
//    containing it (Section 7's database-symmetrization counters).
#include <algorithm>
#include <cassert>

#include "core/solver.h"
#include "telemetry/trace.h"

namespace berkmin {

namespace {

// Chaff-like literal counters (DecisionPolicy::chaff_literal) are halved
// at every decay, the value the Chaff paper documents.
constexpr std::uint32_t kLitDecayFactor = 2;

}  // namespace

void Solver::bump_var(Var v, std::uint64_t amount) {
  var_activity_[v] += amount;
  var_heap_.increased(v);
}

void Solver::bump_chaff(Lit l) {
  ++chaff_counter_[l.code()];
  lit_heap_.increased(l.code());
}

void Solver::decay_var_activities() {
  // Integer division by a common constant is monotone, so the heap order
  // is preserved and no rebuild is necessary.
  for (auto& a : var_activity_) a /= kVarDecayFactor;
}

void Solver::decay_chaff_counters() {
  for (auto& a : chaff_counter_) a /= kLitDecayFactor;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learned,
                     int& backtrack_level) {
  learned.clear();
  learned.push_back(undef_lit);  // slot 0: the asserting (1-UIP) literal

  const int current_level = decision_level();
  int open_paths = 0;           // literals of the current level still to resolve
  Lit p = undef_lit;            // literal currently being resolved on
  std::size_t index = trail_.size();
  ClauseRef reason_ref = conflict;

  // Marks one antecedent literal: current-level literals open a resolution
  // path, lower-level ones join the learned clause. Shared by the arena
  // walk and the materialized binary-reason branch so the two can never
  // diverge.
  const auto mark_literal = [&](Lit q) {
    const Var qv = q.var();
    if (seen_[qv] || level_[qv] == 0) return;
    seen_[qv] = 1;
    to_clear_.push_back(qv);
    if (level_[qv] >= current_level) {
      ++open_paths;
    } else {
      learned.push_back(q);
    }
  };

  for (;;) {
    const Lit bin_other =
        (p == undef_lit) ? undef_lit : bin_reason_other_[p.var()];
    if (bin_other != undef_lit) {
      // Binary reason {p, bin_other}, materialized from the propagation-time
      // watch entry: no arena access. Clause activity of binary lemmas is
      // not bumped — Section 8's deletion rules keep every two-literal
      // clause by length alone, so the counter is never consulted.
      if (opts_.activity_policy == ActivityPolicy::responsible_clauses) {
        bump_var(p.var());
        bump_var(bin_other.var());
      }
      mark_literal(bin_other);
    } else {
      assert(reason_ref != no_clause);
      Clause c = arena_.deref(reason_ref);

      // Every clause the chain touches is "responsible for the conflict".
      if (c.learned()) c.bump_activity();
      if (opts_.activity_policy == ActivityPolicy::responsible_clauses) {
        for (std::uint32_t k = 0; k < c.size(); ++k) bump_var(c[k].var());
      }

      // Slot 0 of a reason clause is the literal it propagated (== p),
      // already handled; the conflicting clause is scanned in full.
      for (std::uint32_t k = (p == undef_lit ? 0 : 1); k < c.size(); ++k) {
        mark_literal(c[k]);
      }
    }

    // Walk the trail backwards to the next marked literal of this level.
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    seen_[p.var()] = 0;
    --open_paths;
    if (open_paths == 0) break;
    reason_ref = reason_[p.var()];
  }
  learned[0] = ~p;

  if (opts_.minimize_learned && learned.size() > 1) {
    minimize_learned_clause(learned);
  }

  // Under the Chaff-like rule only the final conflict clause's variables
  // gain activity.
  if (opts_.activity_policy == ActivityPolicy::conflict_clause_only) {
    for (const Lit l : learned) bump_var(l.var());
  }

  // Place a literal of the second-highest level in slot 1: it is both the
  // backtrack target and the second watch of the recorded clause.
  if (learned.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t best = 1;
    for (std::size_t k = 2; k < learned.size(); ++k) {
      if (level_[learned[k].var()] > level_[learned[best].var()]) best = k;
    }
    std::swap(learned[1], learned[best]);
    backtrack_level = level_[learned[1].var()];
  }

  for (const Var v : to_clear_) seen_[v] = 0;
  to_clear_.clear();
}

// Deletes literals of the learned clause that are implied by the rest of
// it — a literal q is redundant when its reason clause's other literals
// are all already in the learned clause (or at level 0). This is the
// non-recursive ("basic") form of conflict-clause minimization; an
// extension over the paper, disabled in every paper preset.
void Solver::minimize_learned_clause(std::vector<Lit>& learned) {
  // seen_ still marks exactly the literals of `learned` (minus slot 0's
  // variable, which was cleared during the main loop); re-mark it so the
  // redundancy check can rely on membership tests.
  seen_[learned[0].var()] = 1;
  to_clear_.push_back(learned[0].var());

  std::size_t kept = 1;
  for (std::size_t k = 1; k < learned.size(); ++k) {
    if (literal_is_redundant(learned[k])) {
      ++stats_.minimized_literals;
    } else {
      learned[kept++] = learned[k];
    }
  }
  learned.resize(kept);
}

bool Solver::literal_is_redundant(Lit l) const {
  const ClauseRef reason = reason_[l.var()];
  if (reason == no_clause) return false;  // decision literal
  const Lit bin_other = bin_reason_other_[l.var()];
  if (bin_other != undef_lit) {
    // Binary reason: its only tail literal is the stored one.
    const Var v = bin_other.var();
    return seen_[v] || level_[v] == 0;
  }
  const Clause c = arena_.deref(reason);
  for (std::uint32_t k = 1; k < c.size(); ++k) {
    const Var v = c[k].var();
    if (!seen_[v] && level_[v] != 0) return false;
  }
  return true;
}

void Solver::resolve_conflict(ClauseRef conflict) {
  ++stats_.conflicts;
  ++conflicts_since_restart_;
  if (telemetry_ != nullptr && telemetry_->conflict_sample_interval != 0 &&
      stats_.conflicts % telemetry_->conflict_sample_interval == 0) {
    telemetry_->emit(telemetry::EventKind::conflict_sample, telemetry_->now_ns(),
                     0, stats_.conflicts, stats_.learned_clauses);
  }
  if (decision_level() == 0) {
    // Root conflict: unit propagation over the (logged) database already
    // derives falsum, so the empty clause closes the proof.
    ok_ = false;
    proof_emit_empty();
    return;
  }
  telemetry::PhaseScope analyze_scope(telemetry_, telemetry::Phase::analyze);
  int backtrack_level = 0;
  analyze(conflict, learned_scratch_, backtrack_level);
  // Glue (literal block distance) must be read off before backtracking
  // invalidates the level_ entries: the number of distinct decision levels
  // among the learned literals, the quality measure the tiered reduction
  // policy and the exchange filter key on.
  glue_scratch_.clear();
  for (const Lit l : learned_scratch_) glue_scratch_.push_back(level_[l.var()]);
  std::sort(glue_scratch_.begin(), glue_scratch_.end());
  glue_scratch_.erase(std::unique(glue_scratch_.begin(), glue_scratch_.end()),
                      glue_scratch_.end());
  last_learned_glue_ = static_cast<std::uint32_t>(glue_scratch_.size());
  backtrack_to(backtrack_level);
  record_learned(learned_scratch_, backtrack_level);
}

void Solver::record_learned(const std::vector<Lit>& learned, int backtrack_level) {
  // Resource governor / fault injection: when storing the lemma is denied
  // (critical memory pressure, or an injected allocation fault), fall back
  // to a sound no-learn restart — backtrack to the root storing nothing
  // and asserting nothing. Asserting the 1-UIP literal without its reason
  // clause would be unsound (the literal alone is not root-implied), and
  // the activity bumps analyze() already performed steer the next descent
  // elsewhere. Learned units are exempt: they allocate nothing.
  if (learned.size() > 1 && deny_learned_alloc()) {
    ++stats_.no_learn_restarts;
    backtrack_to(0);
    return;
  }

  ++stats_.learned_clauses;
  stats_.learned_literals += learned.size();
  stats_.record_glue(last_learned_glue_);

  // Section 7 counters: a conflict clause containing l was deduced.
  for (const Lit l : learned) ++lit_activity_[l.code()];

  // Chaff-like literal counters track learned-clause literals as well.
  if (opts_.decision_policy == DecisionPolicy::chaff_literal) {
    for (const Lit l : learned) bump_chaff(l);
  }

  // Proof before learn callback: the callback may publish the clause to a
  // sharing pool, and a spliced portfolio trace needs the producer's add
  // sequenced before any importer can log its copy.
  proof_emit_add(learned);
  if (learn_callback_) learn_callback_(learned);

  if (learned.size() == 1) {
    ++stats_.learned_units;
    assert(backtrack_level == 0);
    (void)backtrack_level;
    enqueue(learned[0], no_clause);
    return;
  }

  const ClauseRef ref =
      add_clause_internal(learned, /*learned=*/true, last_learned_glue_);
  // A learned binary asserts through the binary fast path like any other
  // two-literal clause, so materialize its reason the same way.
  enqueue(learned[0], ref,
          learned.size() == 2 ? learned[1] : undef_lit);
}

}  // namespace berkmin
