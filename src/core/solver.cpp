#include "core/solver.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cnf/simplify.h"
#include "core/inprocess.h"
#include "proof/proof_writer.h"
#include "telemetry/trace.h"
#include "util/fault.h"
#include "util/memory_budget.h"

namespace berkmin {

// Out of line: ~Solver must see the complete Inprocessor type.
Solver::~Solver() {
  if (budget_ != nullptr && budget_charged_bytes_ != 0) {
    budget_->release(budget_charged_bytes_);
  }
}

void Solver::set_memory_budget(util::MemoryBudget* budget) {
  if (budget_ != nullptr && budget_charged_bytes_ != 0) {
    budget_->release(budget_charged_bytes_);
  }
  budget_ = budget;
  budget_charged_bytes_ = 0;
  if (budget_ != nullptr) gc_arena_ = ClauseArena();  // see garbage_collect
  sync_budget_charge();
}

void Solver::sync_budget_charge() {
  if (budget_ == nullptr) return;
  const std::uint64_t now =
      static_cast<std::uint64_t>(arena_.capacity_words()) * sizeof(std::uint32_t);
  if (now > budget_charged_bytes_) {
    budget_->charge(now - budget_charged_bytes_);
  } else if (now < budget_charged_bytes_) {
    budget_->release(budget_charged_bytes_ - now);
  }
  budget_charged_bytes_ = now;
}

bool Solver::deny_learned_alloc() {
  if (BERKMIN_FAULT_POINT(util::FaultSite::alloc_clause)) return true;
  if (budget_ != nullptr && !budget_infeasible_ &&
      budget_->pressure() == util::Pressure::critical) {
    // Critical pressure is usually transient (the emergency reductions
    // relieve it), but a budget can be pinned there (a limit below the
    // base formula, or charge held by other tenants). Denying every lemma
    // would then turn the search into non-terminating no-learn restarts,
    // so an escalating escape valve admits one lemma per deny streak and
    // halves the streak length each time it fires, until the pressure
    // ladder declares the budget infeasible (budget_infeasible_) and
    // denial stops altogether.
    if (++pressure_deny_streak_ <= pressure_deny_limit_) {
      budget_->note_degrade();
      pressure_reduce_pending_ = true;  // free memory at the next restart
      return true;
    }
    pressure_deny_streak_ = 0;
    pressure_deny_limit_ = std::max<std::uint32_t>(1, pressure_deny_limit_ / 2);
    return false;
  }
  pressure_deny_streak_ = 0;
  pressure_deny_limit_ = kPressureDenyLimit;  // pressure receded: re-arm
  return false;
}

bool Solver::project_for_proof(std::span<const Lit> lits) {
  proof_scratch_.clear();
  for (const Lit l : lits) {
    if (is_selector_[l.var()]) continue;
    proof_scratch_.push_back(Lit(int2ext_[l.var()], l.is_negative()));
  }
  // A clause whose every literal is a selector has no external meaning:
  // emitting its projection would claim the empty clause. It only states
  // that some combination of groups is contradictory, which the next
  // solve reports as an assumption failure instead.
  return !proof_scratch_.empty() || lits.empty();
}

void Solver::proof_emit_add(std::span<const Lit> lits) {
  if (proof_ == nullptr) return;
  if (!has_selectors_) {
    proof_->add_clause(lits);
    return;
  }
  if (project_for_proof(lits)) proof_->add_clause(proof_scratch_);
}

void Solver::proof_emit_delete(std::span<const Lit> lits) {
  if (proof_ == nullptr) return;
  if (!has_selectors_) {
    proof_->delete_clause(lits);
    return;
  }
  if (project_for_proof(lits)) proof_->delete_clause(proof_scratch_);
}

void Solver::proof_emit_empty() {
  if (proof_ == nullptr || proof_emitted_empty_) return;
  proof_emitted_empty_ = true;
  proof_->add_clause({});
}

Solver::Solver(SolverOptions options)
    : opts_(options),
      var_heap_(VarOrder{&var_activity_}),
      lit_heap_(LitOrder{&chaff_counter_}),
      rng_(options.seed),
      old_threshold_(options.old_activity_threshold) {}

Solver::Solver(SolverOptions options, Solver&& spent) : Solver(options) {
  arena_.reuse(spent.arena_);
  watches_.reuse(spent.watches_);
  bin_watches_.reuse(spent.bin_watches_);
  occ_.reuse(spent.occ_);
  var_heap_.reuse(spent.var_heap_);
  lit_heap_.reuse(spent.lit_heap_);
  reuse_buffer(originals_, spent.originals_);
  reuse_buffer(learned_stack_, spent.learned_stack_);
  reuse_buffer(satisfied_cache_, spent.satisfied_cache_);
  reuse_buffer(ext2int_, spent.ext2int_);
  reuse_buffer(int2ext_, spent.int2ext_);
  reuse_buffer(is_selector_, spent.is_selector_);
  reuse_buffer(assign_, spent.assign_);
  reuse_buffer(assign_lit_, spent.assign_lit_);
  reuse_buffer(reason_, spent.reason_);
  reuse_buffer(bin_reason_other_, spent.bin_reason_other_);
  reuse_buffer(level_, spent.level_);
  reuse_buffer(trail_, spent.trail_);
  reuse_buffer(var_activity_, spent.var_activity_);
  reuse_buffer(lit_activity_, spent.lit_activity_);
  reuse_buffer(chaff_counter_, spent.chaff_counter_);
  reuse_buffer(eliminated_, spent.eliminated_);
  reuse_buffer(seen_, spent.seen_);
  reuse_buffer(model_, spent.model_);
  reuse_buffer(add_scratch_, spent.add_scratch_);
}

Var Solver::new_internal_var(bool selector) {
  const Var v = static_cast<Var>(assign_.size());
  assign_.push_back(Value::unassigned);
  assign_lit_.push_back(Value::unassigned);
  assign_lit_.push_back(Value::unassigned);
  reason_.push_back(no_clause);
  bin_reason_other_.push_back(undef_lit);
  level_.push_back(0);
  var_activity_.push_back(0);
  seen_.push_back(0);
  is_selector_.push_back(selector ? 1 : 0);
  eliminated_.push_back(0);
  int2ext_.push_back(no_var);
  watches_.resize_literals(2 * static_cast<std::size_t>(v) + 2);
  bin_watches_.resize_literals(2 * static_cast<std::size_t>(v) + 2);
  occ_.resize_literals(2 * static_cast<std::size_t>(v) + 2);
  lit_activity_.push_back(0);
  lit_activity_.push_back(0);
  chaff_counter_.push_back(0);
  chaff_counter_.push_back(0);
  // Only the Chaff-like policy decides from the literal heap.
  const bool literal_order =
      opts_.decision_policy == DecisionPolicy::chaff_literal;
  var_heap_.grow(v + 1);
  if (literal_order) lit_heap_.grow(2 * v + 2);
  // Selectors are frozen: never in a decision heap, so the heuristics can
  // never branch on one (they are always assigned by the assumption prefix
  // while their group is active, and root-true once it is popped).
  if (!selector) {
    var_heap_.insert(v);
    if (literal_order) {
      lit_heap_.insert(Lit::positive(v).code());
      lit_heap_.insert(Lit::negative(v).code());
    }
  }
  return v;
}

Var Solver::new_var() {
  const Var internal = new_internal_var(/*selector=*/false);
  const Var external = static_cast<Var>(ext2int_.size());
  ext2int_.push_back(internal);
  int2ext_[internal] = external;
  return external;
}

Lit Solver::external_to_internal(Lit l) {
  while (l.var() >= num_vars()) new_var();
  return Lit(ext2int_[l.var()], l.is_negative());
}

int Solver::group_index(GroupId id) const {
  for (std::size_t i = 0; i < group_ids_.size(); ++i) {
    if (group_ids_[i] == id) return static_cast<int>(i);
  }
  return -1;
}

GroupId Solver::push_group() {
  assert(decision_level() == 0);
  Var s;
  if (!free_selectors_.empty()) {
    // Reuse a popped group's selector. The pop left the variable with no
    // occurrence in any stored clause, unassigned, and absent from the
    // decision heaps, so it is indistinguishable from a fresh selector.
    s = free_selectors_.back();
    free_selectors_.pop_back();
    ++stats_.selectors_recycled;
  } else {
    s = new_internal_var(/*selector=*/true);
  }
  has_selectors_ = true;
  const GroupId id = next_group_id_++;
  group_ids_.push_back(id);
  group_selectors_.push_back(Lit::positive(s));
  group_active_.push_back(1);
  ++stats_.groups_pushed;
  return id;
}

bool Solver::pop_group(GroupId id) {
  assert(decision_level() == 0);
  const int idx = group_index(id);
  assert(idx >= 0);
  if (idx < 0) return false;
  const Lit s = group_selectors_[static_cast<std::size_t>(idx)];
  group_ids_.erase(group_ids_.begin() + idx);
  group_selectors_.erase(group_selectors_.begin() + idx);
  group_active_.erase(group_active_.begin() + idx);
  ++stats_.groups_popped;
  if (!ok_) return true;  // the refutation was group-independent

  // Retract by asserting the selector at the root: every clause of the
  // group — and every learned clause whose derivation depended on it,
  // which carries s by construction (conflict analysis never resolves on
  // selector variables, so the literal is inherited) — becomes satisfied.
  // No clause contains ~s, so this can never conflict by itself; a
  // conflict here comes from user units still pending propagation. Groups
  // pushed later than `id` are untouched: their selectors are distinct
  // variables, so neither their clauses nor their lemmas can be satisfied
  // by s, and out-of-order pops retract exactly one group.
  assert(value(s) != Value::false_value);
  if (value(s) == Value::unassigned) enqueue(s, no_clause);
  if (propagate_internal() != no_clause) {
    ok_ = false;
    proof_emit_empty();
    return true;
  }

  // Collect the dead clauses immediately, exactly like a reduction: drop
  // root reasons (conflict analysis never expands level-0 literals), then
  // garbage-collect everything a retained root assignment satisfies.
  // Learned clauses free of the popped selector survive — they are
  // consequences of the remaining formula — and keep their activities.
  for (const Lit l : trail_) {
    reason_[l.var()] = no_clause;
    bin_reason_other_[l.var()] = undef_lit;
  }
  gc_keep_.assign(learned_stack_.size(), 1);
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < learned_stack_.size(); ++i) {
    if (clause_is_satisfied(learned_stack_[i])) {
      gc_keep_[i] = 0;
      ++dropped;
    }
  }
  stats_.pop_dropped_learned += dropped;
  stats_.pop_retained_learned += learned_stack_.size() - dropped;
  garbage_collect(gc_keep_);

  // After the collection no stored clause mentions s (every clause that
  // did was satisfied by it and dropped; ~s never occurs anywhere), so
  // the variable can leave the trail and rejoin the pool.
  recycle_selector(s.var());
  return true;
}

void Solver::recycle_selector(Var v) {
  assert(decision_level() == 0);
  assert(is_selector_[static_cast<std::size_t>(v)]);
  assert(assign_[static_cast<std::size_t>(v)] == Value::true_value);
  // Splice the (root-true) selector out of the trail. Nothing on the
  // trail depends on it: a clause containing s is satisfied while s is
  // true (so it never propagates), and no clause contains ~s.
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    if (trail_[i].var() != v) continue;
    trail_.erase(trail_.begin() + static_cast<std::ptrdiff_t>(i));
    break;
  }
  propagate_head_ = trail_.size();
  assign_[static_cast<std::size_t>(v)] = Value::unassigned;
  assign_lit_[Lit::positive(v).code()] = Value::unassigned;
  assign_lit_[Lit::negative(v).code()] = Value::unassigned;
  reason_[static_cast<std::size_t>(v)] = no_clause;
  bin_reason_other_[static_cast<std::size_t>(v)] = undef_lit;
  level_[static_cast<std::size_t>(v)] = 0;
  var_activity_[static_cast<std::size_t>(v)] = 0;
  lit_activity_[Lit::positive(v).code()] = 0;
  lit_activity_[Lit::negative(v).code()] = 0;
  chaff_counter_[Lit::positive(v).code()] = 0;
  chaff_counter_[Lit::negative(v).code()] = 0;
  free_selectors_.push_back(v);
}

bool Solver::set_group_active(GroupId id, bool active) {
  const int idx = group_index(id);
  if (idx < 0) return false;
  group_active_[static_cast<std::size_t>(idx)] = active ? 1 : 0;
  return true;
}

bool Solver::add_clause_to_group(GroupId id, std::span<const Lit> lits) {
  const int idx = group_index(id);
  if (idx < 0) return false;  // stale handle: a refusal, nothing added
  forced_selector_ = group_selectors_[static_cast<std::size_t>(idx)];
  const bool result = add_root_clause(lits, /*learned=*/false);
  forced_selector_ = undef_lit;
  return result;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  return add_root_clause(lits, /*learned=*/false);
}

bool Solver::add_root_clause(std::span<const Lit> lits, bool learned,
                             std::uint32_t glue) {
  assert(decision_level() == 0);
  if (!ok_) return false;

  // Problem clauses arrive in external numbering and, inside a live
  // group, gain a group selector literal: the innermost group's, unless
  // add_clause_to_group targeted a specific one. Learned/imported clauses
  // are already internal (they come from this solver's or an identically-
  // laid-out sibling's conflict analysis) and carry whatever selectors
  // their derivations depended on.
  add_scratch_.clear();
  if (learned) {
    for (const Lit l : lits) {
      while (l.var() >= num_internal_vars()) new_var();
      add_scratch_.push_back(l);
    }
  } else {
    // The variables the clause names first, in numbering order, then the
    // translation, which no longer needs to create any.
    Var top = no_var;
    for (const Lit l : lits) top = std::max(top, l.var());
    while (top >= num_vars()) new_var();
    for (const Lit l : lits) {
      add_scratch_.push_back(Lit(ext2int_[l.var()], l.is_negative()));
    }
    if (forced_selector_ != undef_lit) {
      add_scratch_.push_back(forced_selector_);
    } else if (!group_selectors_.empty()) {
      add_scratch_.push_back(group_selectors_.back());
    }
  }

  if (!normalize_clause(add_scratch_)) return true;  // tautology

  // Root-level reduction against already-forced assignments, in place.
  std::size_t kept = 0;
  for (const Lit l : add_scratch_) {
    const Value v = value(l);
    if (v == Value::true_value) return true;  // already satisfied
    if (v == Value::unassigned) add_scratch_[kept++] = l;
  }
  add_scratch_.resize(kept);
  const std::span<const Lit> reduced = add_scratch_;

  if (reduced.empty()) {
    // Every literal is false under the retained root assignment: the
    // formula is refuted, and the empty clause is a unit-propagation
    // consequence the proof trace can end with.
    ok_ = false;
    proof_emit_empty();
    return false;
  }
  // Imported clauses frequently duplicate lemmas this solver (or an earlier
  // import) already holds; an identical binary would be attached twice and
  // propagate twice per trigger. The binary watch lists make the membership
  // test one contiguous scan. Nothing enters the database, so nothing is
  // logged to the proof either.
  if (learned && reduced.size() == 2 &&
      binary_clause_present(reduced[0], reduced[1])) {
    ++stats_.duplicate_binaries_skipped;
    return true;
  }
  // Learned/imported clauses are additions the original formula does not
  // contain, so the proof must record them (in the root-simplified form
  // the database actually holds, which is RUP given the logged units).
  if (learned) proof_emit_add(reduced);
  if (reduced.size() == 1) {
    enqueue(reduced[0], no_clause);
    // Propagation of the unit happens lazily in solve(); a conflict there
    // flips ok_.
    return true;
  }
  add_clause_internal(reduced, learned, glue);
  return true;
}

bool Solver::add_clause(std::initializer_list<Lit> lits) {
  return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
}

bool Solver::import_clause(std::span<const Lit> lits, std::uint32_t glue) {
  // Shared clauses are resolution consequences of the (identical) formula
  // a sibling solver holds, so adding them preserves both satisfiability
  // and unsatisfiability answers. They enter the learned stack — not the
  // originals — so the Section 8 database management ages them out like
  // any other lemma instead of pinning them forever.
  for (const Lit l : lits) {
    if (var_eliminated(l.var())) return true;  // see import_clause contract
  }
  ++stats_.imported_clauses;
  return add_root_clause(lits, /*learned=*/true, glue);
}

bool Solver::load(const Cnf& cnf) {
  while (num_vars() < cnf.num_vars()) new_var();
  // Store every clause first and attach them together: filled clause by
  // clause, every watch or occurrence list that outgrows its span leaves
  // the old span behind as garbage, while counting first lets each pool
  // lay its spans out once. Attaching in clause order keeps every list's
  // order, so the search is the same either way. The arena and the watch
  // lists keep the headroom growth would have left them (a power of two),
  // so the first learned clauses of the search reallocate and relocate no
  // more than after clause-by-clause adds.
  const std::size_t per_clause =
      ClauseArena::header_words + (group_selectors_.empty() ? 0 : 1);
  arena_.reserve_words(std::bit_ceil(arena_.size_words() + cnf.num_literals() +
                                     per_clause * cnf.num_clauses()));
  const std::size_t first = originals_.size();
  loading_ = true;
  for (const auto clause : cnf.clauses()) {
    if (!add_clause(clause)) break;
  }
  loading_ = false;
  if (originals_.size() == first) return ok_;

  std::vector<std::uint32_t> occ_counts(occ_.num_literals(), 0);
  std::vector<std::uint32_t> watch_counts(watches_.num_literals(), 0);
  std::vector<std::uint32_t> bin_counts(bin_watches_.num_literals(), 0);
  for (std::size_t i = first; i < originals_.size(); ++i) {
    const Clause c = arena_.deref(originals_[i]);
    for (std::uint32_t j = 0; j < c.size(); ++j) ++occ_counts[c[j].code()];
    count_watches(c, watch_counts, bin_counts);
  }
  const auto with_headroom = [](const auto& pool,
                                 std::vector<std::uint32_t>& counts) {
    for (std::size_t code = 0; code < counts.size(); ++code) {
      if (counts[code] == 0) continue;
      const std::uint32_t len = pool.size(code);
      counts[code] = pool.grown_capacity(len + counts[code]) - len;
    }
  };
  with_headroom(watches_, watch_counts);
  with_headroom(bin_watches_, bin_counts);
  occ_.reserve(occ_counts);
  watches_.reserve(watch_counts);
  bin_watches_.reserve(bin_counts);
  for (std::size_t i = first; i < originals_.size(); ++i) {
    attach_original(originals_[i]);
  }
  return ok_;
}

ClauseRef Solver::add_clause_internal(std::span<const Lit> lits, bool learned,
                                      std::uint32_t glue) {
  assert(lits.size() >= 2);
  const ClauseRef ref = arena_.alloc(lits, learned, glue);
  if (learned) {
    learned_stack_.push_back(ref);
    satisfied_cache_.push_back(undef_lit);
    attach_clause(ref);
  } else {
    originals_.push_back(ref);
    if (!loading_) attach_original(ref);  // load() attaches its own
  }
  update_live_peak();
  sync_budget_charge();
  return ref;
}

void Solver::attach_original(ClauseRef ref) {
  const Clause c = arena_.deref(ref);
  for (std::uint32_t i = 0; i < c.size(); ++i) occ_.push(c[i].code(), ref);
  attach_clause(ref);
}

void Solver::count_watches(const Clause& c,
                           std::vector<std::uint32_t>& watch_counts,
                           std::vector<std::uint32_t>& bin_counts) {
  auto& counts = c.size() == 2 ? bin_counts : watch_counts;
  ++counts[(~c[0]).code()];
  ++counts[(~c[1]).code()];
}

void Solver::attach_clause(ClauseRef ref) {
  const Clause c = arena_.deref(ref);
  assert(c.size() >= 2);
  if (c.size() == 2) {
    bin_watches_.push((~c[0]).code(), BinWatch{c[1], ref});
    bin_watches_.push((~c[1]).code(), BinWatch{c[0], ref});
    return;
  }
  watches_.push((~c[0]).code(), Watcher{ref, c[1]});
  watches_.push((~c[1]).code(), Watcher{ref, c[0]});
}

bool Solver::binary_clause_present(Lit a, Lit b) const {
  const int code = (~a).code();
  const BinWatch* w = bin_watches_.data(code);
  for (std::uint32_t i = 0, n = bin_watches_.size(code); i < n; ++i) {
    if (w[i].other == b) return true;
  }
  return false;
}

void Solver::update_live_peak() {
  const std::uint64_t live = originals_.size() + learned_stack_.size();
  if (live > stats_.max_live_clauses) stats_.max_live_clauses = live;
}

void Solver::enqueue(Lit l, ClauseRef reason, Lit bin_other) {
  assert(value(l) == Value::unassigned);
  const Var v = l.var();
  assign_[v] = to_value(l.is_positive());
  assign_lit_[l.code()] = Value::true_value;
  assign_lit_[(~l).code()] = Value::false_value;
  reason_[v] = reason;
  bin_reason_other_[v] = bin_other;
  level_[v] = decision_level();
  trail_.push_back(l);
}

void Solver::assume(Lit l) {
  new_decision_level();
  enqueue(l, no_clause);
}

ClauseRef Solver::propagate() {
  telemetry::PhaseScope bcp_scope(telemetry_, telemetry::Phase::bcp);
  return propagate_internal();
}

ClauseRef Solver::propagate_internal() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];  // p is now true
    const int pcode = p.code();
    const Lit false_lit = ~p;

    // Binary clauses first: one contiguous scan, zero arena derefs. The
    // implied literal sits inline in the watch entry, so every step is a
    // single assign_lit_ load plus (rarely) an enqueue. Nothing is pushed
    // during the scan, so a raw pointer into the pool is safe.
    {
      const BinWatch* bw = bin_watches_.data(pcode);
      for (std::uint32_t n = bin_watches_.size(pcode); n != 0; --n, ++bw) {
        const Value v = assign_lit_[bw->other.code()];
        if (v == Value::true_value) continue;
        if (v == Value::false_value) {
          propagate_head_ = trail_.size();
          return bw->cref;
        }
        ++stats_.propagations;
        enqueue(bw->other, bw->cref, false_lit);
      }
    }

    // Longer clauses through the flat pool. The span is walked by absolute
    // pool index: pushing a moved watch for another literal may grow the
    // pool (relocating that literal's span and possibly the whole vector),
    // but this literal's offset never changes mid-scan, and no clause ever
    // re-watches ~p while p is true.
    const std::uint32_t base = watches_.offset(pcode);
    const std::uint32_t end = watches_.size(pcode);
    std::uint32_t i = 0;
    std::uint32_t j = 0;
    while (i != end) {
      const Watcher w = watches_.at(base + i);
      // Satisfied via the blocker: keep the watcher, skip the clause.
      if (assign_lit_[w.blocker.code()] == Value::true_value) {
        watches_.at(base + j++) = w;
        ++i;
        continue;
      }

      Clause c = arena_.deref(w.cref);
      // Normalize so the false watch sits in slot 1.
      if (c[0] == false_lit) {
        c.set_lit(0, c[1]);
        c.set_lit(1, false_lit);
      }
      ++i;

      const Lit first = c[0];
      const Watcher replacement{w.cref, first};
      if (first != w.blocker && assign_lit_[first.code()] == Value::true_value) {
        watches_.at(base + j++) = replacement;
        continue;
      }

      // Look for a non-false literal to take over the watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < c.size(); ++k) {
        if (assign_lit_[c[k].code()] != Value::false_value) {
          c.set_lit(1, c[k]);
          c.set_lit(k, false_lit);
          watches_.push((~c[1]).code(), replacement);
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Clause is unit or conflicting under the current assignment.
      watches_.at(base + j++) = replacement;
      if (assign_lit_[first.code()] == Value::false_value) {
        // Conflict: flush the remaining watchers and stop propagating.
        while (i != end) watches_.at(base + j++) = watches_.at(base + i++);
        watches_.truncate(pcode, j);
        propagate_head_ = trail_.size();
        return w.cref;
      }
      ++stats_.propagations;
      enqueue(first, w.cref);
    }
    watches_.truncate(pcode, j);
  }
  return no_clause;
}

void Solver::backtrack_to(int target_level) {
  if (decision_level() <= target_level) return;
  const int boundary = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > static_cast<std::size_t>(boundary);) {
    const Lit l = trail_[i];
    const Var v = l.var();
    assign_[v] = Value::unassigned;
    assign_lit_[l.code()] = Value::unassigned;
    assign_lit_[(~l).code()] = Value::unassigned;
    reason_[v] = no_clause;
    bin_reason_other_[v] = undef_lit;
    if (is_selector_[v]) continue;  // selectors never enter a decision heap
    var_heap_.insert(v);
    if (opts_.decision_policy == DecisionPolicy::chaff_literal) {
      lit_heap_.insert(Lit::positive(v).code());
      lit_heap_.insert(Lit::negative(v).code());
    }
  }
  trail_.resize(boundary);
  trail_lim_.resize(target_level);
  propagate_head_ = trail_.size();
}

namespace {

// The Luby sequence 1,1,2,1,1,2,4,1,... (0-based index).
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return std::uint64_t{1} << seq;
}

}  // namespace

std::uint64_t Solver::next_restart_limit() const {
  switch (opts_.restart_policy) {
    case RestartPolicy::fixed_interval:
      return opts_.restart_interval;
    case RestartPolicy::luby:
      return luby(luby_index_) * kLubyUnit;
    case RestartPolicy::none:
      return 0;  // interpreted as "never"
  }
  return 0;
}

// Budgets bound the work of one solve() call, so they are checked against
// the distance from the entry snapshot, not the cumulative counters — a
// preempted job re-entering solve() gets a full fresh slice.
bool Solver::budget_exhausted(const Budget& budget) {
  if (stop_requested()) {
    last_stop_cause_ = StopCause::external_stop;
    return true;
  }
  if (budget.max_conflicts &&
      stats_.conflicts - slice_base_.conflicts >= budget.max_conflicts) {
    last_stop_cause_ = StopCause::conflict_budget;
    return true;
  }
  if (budget.max_decisions &&
      stats_.decisions - slice_base_.decisions >= budget.max_decisions) {
    last_stop_cause_ = StopCause::decision_budget;
    return true;
  }
  if (budget.max_propagations &&
      stats_.propagations - slice_base_.propagations >= budget.max_propagations) {
    last_stop_cause_ = StopCause::propagation_budget;
    return true;
  }
  return false;
}

SolveStatus Solver::solve(const Budget& budget) {
  return solve_with_assumptions({}, budget);
}

SolveStatus Solver::solve_with_assumptions(std::span<const Lit> assumptions,
                                           const Budget& budget) {
  solve_timer_.restart();
  const std::int64_t trace_start_ns =
      telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  // A budget-stopped slice left the search state intact; the next call
  // resumes it (restart pacing and decay countdowns included) instead of
  // behaving like a fresh search.
  const bool resume_search = is_resumable(last_stop_cause_);
  if (stats_.initial_clauses == 0) {
    stats_.initial_clauses = std::max<std::uint64_t>(1, originals_.size());
  }
  failed_assumptions_.clear();
  failed_by_assumptions_ = false;
  last_stop_cause_ = StopCause::none;
  slice_base_ = SliceBase{stats_.conflicts, stats_.decisions,
                          stats_.propagations, stats_.restarts,
                          stats_.learned_clauses};
  last_slice_ = SliceStats{};
  // Probe a previously-infeasible budget afresh: external charge may have
  // been released between solves.
  budget_infeasible_ = false;
  critical_reduce_streak_ = 0;
  pressure_deny_streak_ = 0;
  pressure_deny_limit_ = kPressureDenyLimit;
  if (!ok_) return SolveStatus::unsatisfiable;

  // The assumption prefix: the live groups' selectors first (negated for
  // an active group — "on" — and positive for a deactivated one, which
  // satisfies the group's clauses and lemmas for this solve), then the
  // caller's assumptions translated to internal numbering. Assuming
  // rather than asserting the selectors is what makes learned clauses
  // record their group dependencies: a selector falsified at an
  // assumption level enters conflict clauses like any other literal,
  // while a root-level literal never would.
  assumptions_.clear();
  assumptions_.reserve(group_selectors_.size() + assumptions.size());
  for (std::size_t i = 0; i < group_selectors_.size(); ++i) {
    assumptions_.push_back(group_active_[i] ? ~group_selectors_[i]
                                            : group_selectors_[i]);
  }
  for (const Lit a : assumptions) assumptions_.push_back(external_to_internal(a));

  // Root propagation of any units queued by add_clause. Every solve ends
  // at decision level 0 (a throwing one included, below), so pending units
  // always meet the root here and a conflict is a genuine refutation.
  assert(decision_level() == 0);
  ClauseRef root_conflict;
  {
    telemetry::PhaseScope bcp_scope(telemetry_, telemetry::Phase::bcp);
    root_conflict = propagate_internal();
  }
  if (root_conflict != no_clause) {
    ok_ = false;
    proof_emit_empty();
    assumptions_.clear();
    record_slice();
    telemetry_finish_solve(trace_start_ns, SolveStatus::unsatisfiable);
    return SolveStatus::unsatisfiable;
  }

  SolveStatus status = SolveStatus::unknown;
  try {
    status = search(budget, resume_search);
  } catch (...) {
    // A throw mid-search (bad_alloc) leaves the engine for its owner to
    // discard, but still at the root: clause and group calls on it keep
    // their decision-level-0 precondition.
    backtrack_to(0);
    assumptions_.clear();
    throw;
  }
  if (status == SolveStatus::unsatisfiable && !failed_by_assumptions_) {
    ok_ = false;
  }
  backtrack_to(0);
  assumptions_.clear();
  if (has_selectors_ && !failed_assumptions_.empty()) {
    // The caller sees its own assumptions only: selector literals are
    // internal bookkeeping ("this group is active"), and exposing one
    // would dangle as soon as its group is popped.
    std::size_t kept = 0;
    for (const Lit l : failed_assumptions_) {
      if (is_selector_[l.var()]) continue;
      failed_assumptions_[kept++] = Lit(int2ext_[l.var()], l.is_negative());
    }
    failed_assumptions_.resize(kept);
  }
  record_slice();
  telemetry_finish_solve(trace_start_ns, status);
  return status;
}

void Solver::telemetry_finish_solve(std::int64_t start_ns, SolveStatus status) {
  if (telemetry_ == nullptr) return;
  telemetry_->publish(stats_, &telemetry_seen_);
  telemetry_->emit(telemetry::EventKind::solve, start_ns,
                   telemetry_->now_ns() - start_ns, last_slice_.conflicts,
                   static_cast<std::uint64_t>(status));
}

void Solver::record_slice() {
  last_slice_.conflicts = stats_.conflicts - slice_base_.conflicts;
  last_slice_.decisions = stats_.decisions - slice_base_.decisions;
  last_slice_.propagations = stats_.propagations - slice_base_.propagations;
  last_slice_.restarts = stats_.restarts - slice_base_.restarts;
  last_slice_.learned_clauses =
      stats_.learned_clauses - slice_base_.learned_clauses;
  last_slice_.seconds = solve_timer_.seconds();
}

Lit Solver::next_assumption(bool* failed) {
  *failed = false;
  while (decision_level() < static_cast<int>(assumptions_.size())) {
    const Lit a = assumptions_[decision_level()];
    const Value v = value(a);
    if (v == Value::true_value) {
      new_decision_level();  // dummy level: already satisfied
      continue;
    }
    if (v == Value::false_value) {
      analyze_final(a);
      *failed = true;
      return undef_lit;
    }
    return a;
  }
  return undef_lit;
}

void Solver::analyze_final(Lit failing) {
  failed_assumptions_.clear();
  failed_assumptions_.push_back(failing);
  failed_by_assumptions_ = true;
  if (decision_level() == 0) return;

  seen_[failing.var()] = 1;
  for (std::size_t i = trail_.size();
       i-- > static_cast<std::size_t>(trail_lim_[0]);) {
    const Var v = trail_[i].var();
    if (!seen_[v]) continue;
    seen_[v] = 0;
    if (reason_[v] == no_clause) {
      // Every decision below the assumption prefix is an assumption.
      failed_assumptions_.push_back(trail_[i]);
    } else if (bin_reason_other_[v] != undef_lit) {
      // Binary reason {trail_[i], other}: the tail is the one stored literal.
      const Var other = bin_reason_other_[v].var();
      if (level_[other] > 0) seen_[other] = 1;
    } else {
      const Clause c = arena_.deref(reason_[v]);
      for (std::uint32_t k = 1; k < c.size(); ++k) {
        if (level_[c[k].var()] > 0) seen_[c[k].var()] = 1;
      }
    }
  }
  seen_[failing.var()] = 0;
}

SolveStatus Solver::search(const Budget& budget, bool resume) {
  // A resumed slice keeps its restart pacing and decay countdowns: without
  // this, a job run as N short slices restarted at every slice boundary
  // and its aggregated stats diverged from an unpreempted run of the same
  // budget (see the service preemption regression tests).
  if (!resume) {
    conflicts_since_restart_ = 0;
    conflicts_until_var_decay_ = opts_.var_decay_interval;
    conflicts_until_lit_decay_ = opts_.lit_decay_interval;
  }
  std::uint64_t steps_until_clock_check = 1024;

  for (;;) {
    if (stop_requested()) {
      last_stop_cause_ = StopCause::external_stop;
      return SolveStatus::unknown;
    }
    if (--steps_until_clock_check == 0) {
      steps_until_clock_check = 1024;
      if (budget.max_seconds > 0.0 && solve_timer_.seconds() >= budget.max_seconds) {
        last_stop_cause_ = StopCause::wall_clock;
        return SolveStatus::unknown;
      }
    }

    ClauseRef conflict;
    {
      telemetry::PhaseScope bcp_scope(telemetry_, telemetry::Phase::bcp);
      conflict = propagate_internal();
    }
    if (conflict != no_clause) {
      resolve_conflict(conflict);
      if (!ok_) return SolveStatus::unsatisfiable;

      if (opts_.var_decay_interval && --conflicts_until_var_decay_ == 0) {
        decay_var_activities();
        conflicts_until_var_decay_ = opts_.var_decay_interval;
      }
      if (opts_.decision_policy == DecisionPolicy::chaff_literal &&
          opts_.lit_decay_interval && --conflicts_until_lit_decay_ == 0) {
        decay_chaff_counters();
        conflicts_until_lit_decay_ = opts_.lit_decay_interval;
      }
      if (budget_exhausted(budget)) return SolveStatus::unknown;
    } else {
      const std::uint64_t restart_limit = next_restart_limit();
      if (restart_limit != 0 && conflicts_since_restart_ >= restart_limit) {
        handle_restart();
        if (!ok_) return SolveStatus::unsatisfiable;
        continue;
      }

      bool assumption_failed = false;
      Lit next = next_assumption(&assumption_failed);
      if (assumption_failed) return SolveStatus::unsatisfiable;
      if (next == undef_lit) {
        {
          telemetry::PhaseScope decide_scope(telemetry_, telemetry::Phase::decide);
          next = pick_branch();
        }
        if (next == undef_lit) {
          save_model();
          return SolveStatus::satisfiable;
        }
      }
      ++stats_.decisions;
      if (budget.max_decisions &&
          stats_.decisions - slice_base_.decisions > budget.max_decisions) {
        last_stop_cause_ = StopCause::decision_budget;
        return SolveStatus::unknown;
      }
      new_decision_level();
      enqueue(next, no_clause);
    }
  }
}

void Solver::save_model() {
  // External numbering; selector variables have no external image, so the
  // reported model covers exactly the caller's variables.
  model_.resize(ext2int_.size());
  for (std::size_t u = 0; u < ext2int_.size(); ++u) {
    model_[u] = assign_[static_cast<std::size_t>(ext2int_[u])];
  }
  // Variables removed by bounded variable elimination carry an arbitrary
  // placeholder assignment; the witness stack recorded at elimination time
  // overrides them so every eliminated original clause is satisfied.
  if (inprocessor_ != nullptr) inprocessor_->extend_model(model_);
}

std::vector<Lit> Solver::clause_literals(ClauseRef ref) const {
  std::vector<Lit> out;
  arena_.deref(ref).copy_to(out);
  return out;
}

std::uint32_t Solver::clause_activity(ClauseRef ref) const {
  return arena_.deref(ref).activity();
}

namespace {

// Bounds how many occurrence-list entries one nb_two list scan examines.
constexpr std::uint32_t kNbTwoScanCap = 4096;

}  // namespace

std::uint64_t Solver::nb_two(Lit l) const {
  // Section 7: count binary clauses containing l; for each such clause
  // {l, v}, also count binary clauses containing ~v. "Binary" means the
  // clause has exactly two unassigned literals and no satisfied literal in
  // the current formula. Computation stops at kNbTwoThreshold.
  const auto currently_binary = [&](ClauseRef ref, Lit* other, Lit in) -> bool {
    const Clause c = arena_.deref(ref);
    Lit free_a = undef_lit;
    Lit free_b = undef_lit;
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      const Value v = value(c[i]);
      if (v == Value::true_value) return false;
      if (v == Value::unassigned) {
        if (free_a == undef_lit) {
          free_a = c[i];
        } else if (free_b == undef_lit) {
          free_b = c[i];
        } else {
          return false;  // three or more free literals
        }
      }
    }
    if (free_b == undef_lit) return false;  // unit or empty
    if (other != nullptr) *other = (free_a == in) ? free_b : free_a;
    return true;
  };

  std::uint64_t total = 0;
  std::uint32_t scanned = 0;
  for (const ClauseRef ref : occ_.list(l.code())) {
    if (total > kNbTwoThreshold || ++scanned > kNbTwoScanCap) break;
    Lit other = undef_lit;
    if (!currently_binary(ref, &other, l)) continue;
    ++total;
    std::uint32_t inner_scanned = 0;
    for (const ClauseRef ref2 : occ_.list((~other).code())) {
      if (total > kNbTwoThreshold || ++inner_scanned > kNbTwoScanCap) break;
      if (currently_binary(ref2, nullptr, ~other)) ++total;
    }
  }
  return total;
}

}  // namespace berkmin
