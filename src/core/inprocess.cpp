// Inprocessing passes (see inprocess.h for the soundness contract).
//
// RUP notes, pass by pass, against a checker that holds the original
// formula plus every add the trace logged so far:
//
//  * probing: assuming l and unit-propagating the live database reaches a
//    conflict, and every live clause is either logged or subsumes a logged
//    stripped form, so the checker's propagation reaches the same conflict
//    — {~l} is RUP;
//  * self-subsumption: the strengthened clause is the resolvent of two
//    live clauses, falsifying it unit-propagates the weakened parent and
//    then the strengthener — RUP;
//  * vivification: assuming the negation of a prefix of C propagates a
//    conflict (or one of C's own literals), so the prefix is RUP by the
//    same propagation;
//  * variable elimination: each resolvent of two live clauses is RUP;
//    removed clauses are deleted only after every resolvent is logged
//    (add-before-delete).
#include "core/inprocess.h"

#include <algorithm>
#include <cassert>

#include "cnf/simplify.h"
#include "core/solver.h"
#include "telemetry/trace.h"

namespace berkmin {

namespace {

// Step cap for the subsumption occurrence scans, so one pass stays a
// bounded slice of the restart even on dense formulas.
constexpr std::uint64_t kSubsumptionStepBudget = std::uint64_t{1} << 17;
// Failed-literal probing: at most this many root probes per pass.
constexpr std::uint32_t kProbeBudget = 256;
// Vivification: at most this many learned clauses re-propagated per pass.
constexpr std::uint32_t kVivifyBudget = 128;
// A variable qualifies for elimination when its total occurrences and its
// resolvent count stay under these caps (and the elimination does not
// grow the clause database).
constexpr std::uint32_t kVarElimMaxOccurrences = 10;
constexpr std::uint32_t kVarElimMaxResolvents = 16;

bool lit_code_less(Lit a, Lit b) { return a.code() < b.code(); }

}  // namespace

Inprocessor::Inprocessor(Solver& solver) : s_(solver) {}

std::uint64_t Inprocessor::signature_of(const std::vector<Lit>& lits) {
  std::uint64_t sig = 0;
  for (const Lit l : lits) {
    sig |= std::uint64_t{1} << (static_cast<std::uint32_t>(l.var()) % 64);
  }
  return sig;
}

bool Inprocessor::assert_unit(Lit l) {
  const Value v = s_.value(l);
  if (v == Value::true_value) return true;
  if (v == Value::false_value) {
    s_.ok_ = false;
    s_.proof_emit_empty();
    return false;
  }
  s_.enqueue(l, no_clause);
  if (s_.propagate_internal() != no_clause) {
    s_.ok_ = false;
    s_.proof_emit_empty();
    return false;
  }
  return true;
}

bool Inprocessor::install_derived(const std::vector<Lit>& lits, bool learned,
                                  std::uint32_t glue) {
  derived_scratch_ = lits;
  if (!normalize_clause(derived_scratch_)) return true;  // tautology
  // Root reduction; the reduced form is what gets logged and stored (RUP
  // given the units the checker can propagate itself).
  std::size_t kept = 0;
  for (const Lit l : derived_scratch_) {
    const Value v = s_.value(l);
    if (v == Value::true_value) return true;  // already satisfied
    if (v == Value::unassigned) derived_scratch_[kept++] = l;
  }
  derived_scratch_.resize(kept);

  for (const Lit l : derived_scratch_) derived_var_[l.var()] = 1;

  if (derived_scratch_.empty()) {
    s_.ok_ = false;
    s_.proof_emit_empty();
    return false;
  }
  s_.proof_emit_add(derived_scratch_);
  if (derived_scratch_.size() == 1) {
    if (learned) {
      s_.last_learned_glue_ = 1;
      if (s_.learn_callback_) s_.learn_callback_(derived_scratch_);
    }
    return assert_unit(derived_scratch_[0]);
  }
  const std::uint32_t capped_glue =
      glue == 0 ? 0
                : std::min<std::uint32_t>(
                      glue, static_cast<std::uint32_t>(derived_scratch_.size()));
  if (learned) {
    s_.last_learned_glue_ =
        capped_glue != 0
            ? capped_glue
            : static_cast<std::uint32_t>(derived_scratch_.size());
    if (s_.learn_callback_) s_.learn_callback_(derived_scratch_);
  }
  s_.add_clause_internal(derived_scratch_, learned, capped_glue);
  return true;
}

bool Inprocessor::probe_failed_literals() {
  const std::uint32_t nvars =
      static_cast<std::uint32_t>(s_.num_internal_vars());
  if (nvars == 0) return true;
  std::uint32_t probes = 0;
  const std::uint32_t budget = kProbeBudget;
  for (std::uint32_t scanned = 0; scanned < nvars && probes < budget;
       ++scanned) {
    const Var v = static_cast<Var>(probe_cursor_++ % nvars);
    if (s_.value(v) != Value::unassigned) continue;
    if (s_.is_selector_var(v) || s_.var_eliminated(v)) continue;
    for (const Lit l : {Lit::positive(v), Lit::negative(v)}) {
      if (probes >= budget) break;
      if (s_.value(v) != Value::unassigned) break;  // assigned by a probe
      ++probes;
      s_.assume(l);
      const ClauseRef conflict = s_.propagate_internal();
      s_.backtrack_to(0);
      if (conflict == no_clause) continue;
      // l fails: ~l is a unit consequence of the database. Log it, share
      // it (a unit is the best possible lemma), then assert it.
      ++s_.stats_.probed_units;
      unit_scratch_.assign(1, ~l);
      s_.proof_emit_add(unit_scratch_);
      s_.last_learned_glue_ = 1;
      if (s_.learn_callback_) s_.learn_callback_(unit_scratch_);
      if (!assert_unit(~l)) return false;
    }
  }
  return true;
}

void Inprocessor::build_index() {
  items_.clear();
  occ_.assign(2 * static_cast<std::size_t>(s_.num_internal_vars()), {});
  const auto index_clause = [&](ClauseRef ref, bool learned,
                                std::uint32_t stack_index) {
    if (s_.clause_is_satisfied(ref)) return;  // dropped by the next GC anyway
    Item item;
    item.ref = ref;
    item.learned = learned;
    item.stack_index = stack_index;
    const Clause c = s_.arena_.deref(ref);
    item.glue = c.glue();
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      // Store the root-stripped form: false literals are logically dead
      // (the stripped clause is RUP given root units), and stripping here
      // makes subsumption checks exact against what GC will keep.
      if (s_.value(c[i]) == Value::unassigned) item.lits.push_back(c[i]);
    }
    assert(item.lits.size() >= 2);  // fixpoint: units propagated, sat skipped
    std::sort(item.lits.begin(), item.lits.end(), lit_code_less);
    item.signature = signature_of(item.lits);
    const std::uint32_t idx = static_cast<std::uint32_t>(items_.size());
    for (const Lit l : item.lits) occ_[l.code()].push_back(idx);
    items_.push_back(std::move(item));
  };
  for (std::size_t i = 0; i < s_.originals_.size(); ++i) {
    index_clause(s_.originals_[i], /*learned=*/false,
                 static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < s_.learned_stack_.size(); ++i) {
    index_clause(s_.learned_stack_[i], /*learned=*/true,
                 static_cast<std::uint32_t>(i));
  }
}

namespace {

// a \subseteq b, both sorted by literal code.
bool lits_subset(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end(), lit_code_less);
}

// (a \ {flip}) u {~flip} \subseteq b, both sorted by literal code.
bool lits_subset_with_flip(const std::vector<Lit>& a, Lit flip,
                           const std::vector<Lit>& b) {
  std::size_t j = 0;
  for (const Lit raw : a) {
    const Lit want = raw == flip ? ~raw : raw;
    while (j < b.size() && b[j].code() < want.code()) ++j;
    if (j == b.size() || b[j] != want) return false;
    ++j;
  }
  return true;
}

}  // namespace

bool Inprocessor::subsume_and_strengthen() {
  // Small-to-large: short clauses are the strongest subsumers, and the
  // step budget then goes to them first.
  std::vector<std::uint32_t> order(items_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return items_[a].lits.size() < items_[b].lits.size();
  });

  std::uint64_t steps = 0;
  constexpr std::size_t kMaxSubsumerSize = 20;
  for (const std::uint32_t i : order) {
    Item& sub = items_[i];
    if (sub.removed) continue;
    if (sub.lits.size() > kMaxSubsumerSize) break;  // sorted: all larger now
    if (steps >= kSubsumptionStepBudget) break;

    // Forward subsumption: scan the occurrence list of sub's rarest
    // literal — every superset of sub must appear there.
    const Lit* rare = &sub.lits[0];
    for (const Lit& l : sub.lits) {
      if (occ_[l.code()].size() < occ_[rare->code()].size()) rare = &l;
    }
    for (const std::uint32_t j : occ_[rare->code()]) {
      if (++steps >= kSubsumptionStepBudget) break;
      if (j == i) continue;
      Item& other = items_[j];
      if (other.removed) continue;
      if (other.lits.size() < sub.lits.size()) continue;
      if ((sub.signature & ~other.signature) != 0) continue;
      if (!lits_subset(sub.lits, other.lits)) continue;
      if (sub.learned && !other.learned) {
        // A learned clause may vanish in a future reduction, so it cannot
        // be the surviving evidence for an original. When the two are
        // identical the duplicate learned copy is the one to drop.
        if (sub.lits.size() == other.lits.size()) {
          sub.removed = true;
          ++s_.stats_.subsumed_clauses;
          break;
        }
        continue;
      }
      other.removed = true;
      ++s_.stats_.subsumed_clauses;
    }
    if (sub.removed) continue;

    // Self-subsumption: if (sub \ {l}) u {~l} subsumes j, resolving on l
    // strengthens j to j \ {~l}.
    for (const Lit l : sub.lits) {
      if (steps >= kSubsumptionStepBudget) break;
      for (const std::uint32_t j : occ_[(~l).code()]) {
        if (++steps >= kSubsumptionStepBudget) break;
        if (j == i) continue;
        Item& other = items_[j];
        if (other.removed) continue;
        if (other.lits.size() < sub.lits.size()) continue;
        if ((sub.signature & ~other.signature) != 0) continue;
        if (!lits_subset_with_flip(sub.lits, l, other.lits)) continue;
        derived_scratch_.clear();
        for (const Lit ol : other.lits) {
          if (ol != ~l) derived_scratch_.push_back(ol);
        }
        // The resolvent subsumes `other`, so it inherits other's role
        // (original stays original) and a no-worse glue.
        const std::vector<Lit> strengthened = derived_scratch_;
        ++s_.stats_.strengthened_clauses;
        other.removed = true;
        if (!install_derived(strengthened, other.learned, other.glue)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool Inprocessor::vivify_clauses() {
  if (items_.empty()) return true;
  const std::uint32_t budget = kVivifyBudget;
  std::uint32_t attempts = 0;
  const std::size_t n = items_.size();
  for (std::size_t scanned = 0; scanned < n && attempts < budget; ++scanned) {
    Item& item = items_[vivify_cursor_++ % n];
    if (item.removed || !item.learned || item.lits.size() < 3) continue;
    // Skip clauses touched by root assignments made since build_index;
    // their stored literal copies are stale.
    bool stale = false;
    for (const Lit l : item.lits) {
      if (s_.value(l) != Value::unassigned) {
        stale = true;
        break;
      }
    }
    if (stale) continue;
    ++attempts;

    assert(s_.decision_level() == 0);
    unit_scratch_.clear();  // the shortened candidate
    bool done = false;
    for (const Lit l : item.lits) {
      const Value v = s_.value(l);
      if (v == Value::true_value) {
        // ~(prefix) propagated l: the prefix plus l is already a clause
        // of the database's consequences.
        unit_scratch_.push_back(l);
        done = true;
        break;
      }
      if (v == Value::false_value) continue;  // ~(prefix) |= ~l: drop l
      s_.assume(~l);
      unit_scratch_.push_back(l);
      if (s_.propagate_internal() != no_clause) {
        // ~(prefix) is contradictory: the prefix itself is a clause.
        done = true;
        break;
      }
    }
    (void)done;
    s_.backtrack_to(0);
    if (unit_scratch_.size() >= item.lits.size()) continue;  // no gain
    ++s_.stats_.vivified_clauses;
    item.removed = true;
    const std::vector<Lit> shortened = unit_scratch_;
    if (!install_derived(shortened, /*learned=*/true, item.glue)) return false;
  }
  return true;
}

bool Inprocessor::eliminate_variables() {
  const std::uint32_t max_occ = kVarElimMaxOccurrences;
  const std::uint32_t max_res = kVarElimMaxResolvents;
  std::vector<std::uint32_t> pos_items;
  std::vector<std::uint32_t> neg_items;
  std::vector<std::uint32_t> learned_items;
  std::vector<std::vector<Lit>> resolvents;

  for (Var v = 0; v < s_.num_internal_vars(); ++v) {
    if (s_.value(v) != Value::unassigned) continue;
    if (s_.is_selector_var(v) || s_.var_eliminated(v)) continue;
    // Clauses installed during this pass are invisible to items_; if one
    // mentions v the elimination could not remove it, so v is off-limits.
    if (derived_var_[v] != 0) continue;

    pos_items.clear();
    neg_items.clear();
    learned_items.clear();
    bool over_budget = false;
    for (const bool positive : {true, false}) {
      const Lit l = positive ? Lit::positive(v) : Lit::negative(v);
      for (const std::uint32_t idx : occ_[l.code()]) {
        const Item& item = items_[idx];
        if (item.removed) continue;
        if (item.learned) {
          learned_items.push_back(idx);
          continue;
        }
        auto& side = positive ? pos_items : neg_items;
        side.push_back(idx);
        if (pos_items.size() + neg_items.size() > max_occ) {
          over_budget = true;
          break;
        }
      }
      if (over_budget) break;
    }
    if (over_budget) continue;
    if (pos_items.empty() && neg_items.empty()) continue;

    // All non-tautological resolvents on v; reject the variable when they
    // would outnumber the clauses removed (database growth) or the cap.
    const std::size_t removed_count = pos_items.size() + neg_items.size();
    resolvents.clear();
    bool rejected = false;
    for (const std::uint32_t pi : pos_items) {
      for (const std::uint32_t ni : neg_items) {
        derived_scratch_.clear();
        bool taut = false;
        const auto push_checked = [&](Lit l) {
          for (const Lit existing : derived_scratch_) {
            if (existing == ~l) {
              taut = true;
              return;
            }
            if (existing == l) return;
          }
          derived_scratch_.push_back(l);
        };
        for (const Lit l : items_[pi].lits) {
          if (l.var() != v) push_checked(l);
          if (taut) break;
        }
        for (const Lit l : items_[ni].lits) {
          if (taut) break;
          if (l.var() != v) push_checked(l);
        }
        if (taut) continue;
        resolvents.push_back(derived_scratch_);
        if (resolvents.size() > max_res || resolvents.size() > removed_count) {
          rejected = true;
          break;
        }
      }
      if (rejected) break;
    }
    if (rejected) continue;

    // Commit: log and install every resolvent first (add-before-delete;
    // the removals are emitted by apply_removals), then stack the witness.
    for (const auto& resolvent : resolvents) {
      if (!install_derived(resolvent, /*learned=*/false, 0)) return false;
    }
    Elimination elim;
    elim.var = v;
    for (const std::uint32_t idx : pos_items) {
      elim.clauses.push_back(items_[idx].lits);
      items_[idx].removed = true;
    }
    for (const std::uint32_t idx : neg_items) {
      elim.clauses.push_back(items_[idx].lits);
      items_[idx].removed = true;
    }
    for (const std::uint32_t idx : learned_items) {
      if (!items_[idx].removed) items_[idx].removed = true;
    }
    eliminations_.push_back(std::move(elim));
    s_.eliminated_[static_cast<std::size_t>(v)] = 1;
    ++s_.stats_.eliminated_vars;
    // Mark v derived so a later candidate sharing a resolvent cannot
    // resurrect it within this pass.
    derived_var_[v] = 1;
  }
  return true;
}

void Inprocessor::apply_removals() {
  bool any_removed = false;
  for (const Item& item : items_) any_removed |= item.removed;
  if (!any_removed) return;

  // Root assignments are permanent; clear their reason references before
  // the collection invalidates every ClauseRef (same dance as reduce_db).
  for (const Lit l : s_.trail_) {
    s_.reason_[l.var()] = no_clause;
    s_.bin_reason_other_[l.var()] = undef_lit;
  }

  // Keep masks sized to the *current* stacks: clauses installed during the
  // pass sit past the indices items_ recorded and default to kept.
  std::vector<char> keep_originals(s_.originals_.size(), 1);
  std::vector<char> keep_learned(s_.learned_stack_.size(), 1);
  for (const Item& item : items_) {
    if (!item.removed) continue;
    if (item.learned) {
      keep_learned[item.stack_index] = 0;
    } else {
      keep_originals[item.stack_index] = 0;
    }
  }
  // Learned clauses satisfied by retained root facts must not be migrated
  // (GC's invariant), exactly as keep_learned decides in reduce_db.
  for (std::size_t i = 0; i < s_.learned_stack_.size(); ++i) {
    if (keep_learned[i] && s_.clause_is_satisfied(s_.learned_stack_[i])) {
      keep_learned[i] = 0;
    }
  }
  s_.garbage_collect(keep_learned, &keep_originals);
}

void Inprocessor::run() {
  if (!s_.ok_ || s_.has_selectors_) return;
  assert(s_.decision_level() == 0);
  // The restart callback may have queued imported units; every pass below
  // assumes the root fixpoint.
  if (s_.propagate_internal() != no_clause) {
    s_.ok_ = false;
    s_.proof_emit_empty();
    return;
  }

  ++s_.stats_.inprocessings;
  telemetry::PhaseScope scope(s_.telemetry_, telemetry::Phase::inprocess);
  const std::int64_t start_ns =
      s_.telemetry_ != nullptr ? s_.telemetry_->now_ns() : 0;
  const std::uint64_t derived_before = s_.stats_.probed_units +
                                       s_.stats_.strengthened_clauses +
                                       s_.stats_.vivified_clauses;
  const std::size_t eliminations_before = eliminations_.size();

  derived_var_.assign(static_cast<std::size_t>(s_.num_internal_vars()), 0);
  items_.clear();

  bool alive = probe_failed_literals();
  if (alive) {
    build_index();
    alive = subsume_and_strengthen();
  }
  if (alive) alive = vivify_clauses();
  if (alive && s_.opts_.inprocess.var_elim && s_.assumptions_.empty()) {
    alive = eliminate_variables();
  }

  std::uint64_t removed = 0;
  if (alive) {
    for (const Item& item : items_) removed += item.removed ? 1 : 0;
    apply_removals();
    // Give freshly eliminated, still-unassigned variables a placeholder
    // root value AFTER the collection detached their clauses: nothing can
    // propagate through them any more, the decision heuristics skip them,
    // and extend_model overrides the value wherever a witness needs to.
    for (std::size_t e = eliminations_before; e < eliminations_.size(); ++e) {
      const Var v = eliminations_[e].var;
      if (s_.value(v) == Value::unassigned) {
        s_.enqueue(Lit::positive(v), no_clause);
      }
    }
    s_.propagate_head_ = s_.trail_.size();  // placeholders touch no clause
  }

  if (s_.telemetry_ != nullptr) {
    const std::uint64_t derived_after = s_.stats_.probed_units +
                                        s_.stats_.strengthened_clauses +
                                        s_.stats_.vivified_clauses;
    s_.telemetry_->emit(telemetry::EventKind::inprocess, start_ns,
                        s_.telemetry_->now_ns() - start_ns,
                        derived_after - derived_before, removed);
  }
}

void Inprocessor::extend_model(std::vector<Value>& model) const {
  // Newest elimination first: an older witness may mention variables
  // eliminated later (they were still live when it was copied), so those
  // must be finalized before the older witness is evaluated. The converse
  // cannot happen — a newer witness was copied from a database that no
  // longer contained any older eliminated variable.
  for (auto it = eliminations_.rbegin(); it != eliminations_.rend(); ++it) {
    const Var v = it->var;
    if (static_cast<std::size_t>(v) >= model.size()) continue;
    bool need_pos = false;
    bool need_neg = false;
    for (const auto& clause : it->clauses) {
      Lit own = undef_lit;
      bool satisfied_by_rest = false;
      for (const Lit l : clause) {
        if (l.var() == v) {
          own = l;
          continue;
        }
        if (static_cast<std::size_t>(l.var()) < model.size() &&
            value_of_literal(model[l.var()], l) == Value::true_value) {
          satisfied_by_rest = true;
          break;
        }
      }
      if (satisfied_by_rest || own == undef_lit) continue;
      (own.is_positive() ? need_pos : need_neg) = true;
    }
    // At most one polarity can be forced: two opposing forced clauses
    // would falsify their resolvent, which the model satisfies.
    assert(!(need_pos && need_neg));
    if (need_pos) {
      model[v] = Value::true_value;
    } else if (need_neg) {
      model[v] = Value::false_value;
    }
  }
}

Cnf Inprocessor::formula() const {
  assert(s_.decision_level() == 0 && !s_.has_selectors_);
  assert(eliminations_.empty());
  Cnf out(s_.num_vars());
  if (!s_.ok_) {
    out.add_clause({});
    return out;
  }
  for (const Lit l : s_.trail_) out.add_unit(l);
  for (const ClauseRef ref : s_.originals_) {
    if (s_.clause_is_satisfied(ref)) continue;
    const Clause c = s_.arena_.deref(ref);
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      if (s_.value(c[i]) == Value::unassigned) out.add_literal(c[i]);
    }
    out.end_clause();
  }
  return out;
}

PreprocessResult preprocess(const Cnf& cnf, proof::ProofWriter* proof) {
  Solver solver;
  solver.set_proof(proof);
  Inprocessor pass(solver);
  if (solver.load(cnf)) pass.run();
  PreprocessResult result;
  result.cnf = pass.formula();
  result.unsat = !solver.ok();
  result.subsumed_clauses = solver.stats().subsumed_clauses;
  result.strengthened_clauses = solver.stats().strengthened_clauses;
  for (const auto clause : result.cnf.clauses()) {
    if (clause.size() == 1) ++result.root_units;
  }
  return result;
}

}  // namespace berkmin
