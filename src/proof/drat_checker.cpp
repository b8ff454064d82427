#include "proof/drat_checker.h"

#include <algorithm>
#include <cassert>

#include "cnf/simplify.h"
#include "telemetry/trace.h"

namespace berkmin::proof {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Order-independent, because watch moves reorder a stored clause.
std::uint64_t lits_hash(std::span<const Lit> lits) {
  std::uint64_t h = lits.size();
  for (const Lit l : lits) h += mix(static_cast<std::uint64_t>(l.code()));
  return h;
}

bool contains(const std::vector<GroupId>& sorted, GroupId group) {
  return std::binary_search(sorted.begin(), sorted.end(), group);
}

void append(std::vector<GroupId>& out, const std::vector<GroupId>& more) {
  out.insert(out.end(), more.begin(), more.end());
}

void sort_unique(std::vector<GroupId>& groups) {
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
}

}  // namespace

DratChecker::DratChecker(const Cnf& cnf) : record_antecedents_(true) {
  ensure_var(cnf.num_vars() - 1);
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    auto normalized = normalize_clause(cnf.clause(i));
    if (!normalized) continue;  // tautology: can never matter
    settle(store(std::move(*normalized), {}, /*from_proof=*/false, i));
  }
  num_original_clauses_ = clauses_.size();
  propagate();
}

void DratChecker::ensure_var(Var v) {
  if (v < 0) return;
  const std::size_t needed = static_cast<std::size_t>(v) + 1;
  if (assign_.size() >= needed) return;
  assign_.resize(needed, Value::unassigned);
  reason_.resize(needed, invalid_clause);
  root_groups_.resize(needed);
  seen_.resize(needed, 0);
  assumed_.resize(needed, 0);
  watches_.resize(2 * needed);
  lit_mark_.resize(2 * needed, 0);
}

std::uint32_t DratChecker::store(std::vector<Lit> normalized,
                                 std::vector<GroupId> groups, bool from_proof,
                                 std::size_t source) {
  for (const Lit l : normalized) ensure_var(l.var());
  const auto id = static_cast<std::uint32_t>(clauses_.size());
  DbClause c;
  c.lits = std::move(normalized);
  c.groups = std::move(groups);
  c.from_proof = from_proof;
  c.source = source;
  for (const GroupId g : c.groups) {
    GroupState& state = groups_[g];
    state.dependents.push_back(id);
    if (!state.active) ++c.parked;
  }
  if (live_index_built_) live_index_[lits_hash(c.lits)].push_back(id);
  if (c.propagating() && ++live_ > stats_.peak_live_clauses) {
    stats_.peak_live_clauses = live_;
  }
  clauses_.push_back(std::move(c));
  return id;
}

void DratChecker::settle(std::uint32_t id) {
  DbClause& c = clauses_[id];
  std::size_t found = 0;
  for (std::size_t k = 0; k < c.lits.size() && found < 2; ++k) {
    if (value(c.lits[k]) != Value::false_value) {
      std::swap(c.lits[found], c.lits[k]);
      ++found;
    }
  }
  // Re-attaching bumps the epoch, which retires every older watcher.
  ++c.epoch;
  if (!c.lits.empty()) watches_[(~c.lits[0]).code()].push_back({id, c.epoch});
  if (c.lits.size() > 1) watches_[(~c.lits[1]).code()].push_back({id, c.epoch});
  if (found == 0) {
    note_root_conflict(id);
  } else if (found == 1 && value(c.lits[0]) == Value::unassigned) {
    enqueue(c.lits[0], id);
  }
}

void DratChecker::enqueue(Lit l, std::uint32_t reason) {
  assert(value(l) == Value::unassigned);
  const auto v = static_cast<std::size_t>(l.var());
  assign_[v] = to_value(l.is_positive());
  reason_[v] = reason;
  trail_.push_back(l);
  if (rup_start_ != at_root || reason == invalid_clause || groups_.empty()) {
    return;
  }
  // A root literal rests on its reason's groups and on those of the
  // reason's other (false) literals.
  std::vector<GroupId>& rests_on = root_groups_[v];
  rests_on = clauses_[reason].groups;
  for (const Lit other : clauses_[reason].lits) {
    if (other != l) append(rests_on, root_groups_[other.var()]);
  }
  sort_unique(rests_on);
  for (const GroupId g : rests_on) {
    groups_[g].root_vars.push_back(l.var());
  }
}

std::uint32_t DratChecker::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    std::vector<Watch>& list = watches_[p.code()];
    const Lit false_lit = ~p;

    std::size_t i = 0;
    std::size_t j = 0;
    while (i < list.size()) {
      const Watch w = list[i++];
      DbClause& c = clauses_[w.id];
      // Stale (re-attached since) or out of propagation: drop the watcher.
      if (w.epoch != c.epoch || !c.propagating()) continue;
      if (c.lits.size() > 1) {
        if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
        assert(c.lits[1] == false_lit);
        if (value(c.lits[0]) == Value::true_value) {
          list[j++] = w;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < c.lits.size(); ++k) {
          if (value(c.lits[k]) != Value::false_value) {
            std::swap(c.lits[1], c.lits[k]);
            watches_[(~c.lits[1]).code()].push_back(w);
            moved = true;
            break;
          }
        }
        if (moved) continue;
      }

      list[j++] = w;
      if (c.lits.size() > 1 && value(c.lits[0]) == Value::unassigned) {
        enqueue(c.lits[0], w.id);
        continue;
      }
      // Every literal is false. Inside a RUP check that is the verdict; at
      // the root it is a root conflict, and propagation goes on so the
      // root stays a fixpoint should the conflict later be undone.
      if (rup_start_ == at_root) note_root_conflict(w.id);
      if (rup_start_ != at_root || refuted_for_good_) {
        while (i < list.size()) list[j++] = list[i++];
        list.resize(j);
        propagate_head_ = trail_.size();
        return w.id;
      }
    }
    list.resize(j);
  }
  return invalid_clause;
}

void DratChecker::undo_rup() {
  while (trail_.size() > rup_start_) {
    const auto v = static_cast<std::size_t>(trail_.back().var());
    assign_[v] = Value::unassigned;
    reason_[v] = invalid_clause;
    trail_.pop_back();
  }
  propagate_head_ = trail_.size();
  rup_start_ = at_root;
}

void DratChecker::note_root_conflict(std::uint32_t id) {
  if (refuted_for_good_) return;
  Derivation d = derive(id);
  if (conflicts_.empty()) empty_antecedents_ = std::move(d.antecedents);
  refuted_for_good_ = d.groups.empty();
  conflicts_.push_back(RootConflict{id, std::move(d.groups)});
}

DratChecker::Derivation DratChecker::derive(std::uint32_t conflict,
                                            Var start) {
  Derivation d;
  std::vector<Var> marked;
  group_scratch_.clear();
  const auto mark_clause = [&](std::uint32_t id) {
    if (record_antecedents_) d.antecedents.push_back(id);
    const DbClause& c = clauses_[id];
    append(group_scratch_, c.groups);
    for (const Lit l : c.lits) {
      const auto v = static_cast<std::size_t>(l.var());
      if (!seen_[v]) {
        seen_[v] = 1;
        marked.push_back(l.var());
      }
    }
  };

  if (conflict != invalid_clause) {
    mark_clause(conflict);
  } else {
    assert(start != no_var);
    seen_[static_cast<std::size_t>(start)] = 1;
    marked.push_back(start);
  }

  // Resolve through the reasons of the RUP part of the trail. The one-shot
  // checker follows root reasons too (its core needs them); the resumable
  // one reads what each root literal rests on from root_groups_ instead,
  // so a check costs its own propagation, not the root trail.
  const std::size_t stop = record_antecedents_        ? 0
                           : rup_start_ == at_root ? trail_.size()
                                                   : rup_start_;
  // Root literals the checked clause itself assumes (its own literals,
  // already false at the root) need no derivation: the negated clause
  // supplies them.
  for (std::size_t i = trail_.size(); i-- > stop;) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    if (!seen_[v] || assumed_[v]) continue;
    const std::uint32_t reason = reason_[v];
    if (reason != invalid_clause) mark_clause(reason);
  }

  for (const Var v : marked) {
    const auto index = static_cast<std::size_t>(v);
    seen_[index] = 0;
    if (!assumed_[index]) append(group_scratch_, root_groups_[index]);
  }
  sort_unique(group_scratch_);
  d.groups = group_scratch_;
  std::sort(d.antecedents.begin(), d.antecedents.end());
  d.antecedents.erase(std::unique(d.antecedents.begin(), d.antecedents.end()),
                      d.antecedents.end());
  return d;
}

bool DratChecker::check_rup(std::span<const Lit> clause,
                            Derivation* derivation) {
  if (!conflicts_.empty()) {
    // The live database is refuted at the root: every clause follows,
    // resting on what the conflict rests on.
    derivation->groups = conflicts_.front().groups;
    if (record_antecedents_) derivation->antecedents = empty_antecedents_;
    return true;
  }
  rup_start_ = trail_.size();
  bool holds = false;
  // Assert the negation. A literal already true at the root contradicts
  // its own negation immediately — the derivation is what forced it.
  for (const Lit l : clause) {
    const Value v = value(l);
    if (v == Value::true_value) {
      *derivation = derive(invalid_clause, l.var());
      holds = true;
      break;
    }
    if (v == Value::unassigned) {
      enqueue(~l, invalid_clause);
    } else {
      assumed_[static_cast<std::size_t>(l.var())] = 1;
    }
  }
  if (!holds) {
    const std::uint32_t conflict = propagate();
    if (conflict != invalid_clause) {
      *derivation = derive(conflict);
      holds = true;
    }
  }
  for (const Lit l : clause) assumed_[static_cast<std::size_t>(l.var())] = 0;
  undo_rup();
  return holds;
}

void DratChecker::add_original(std::span<const Lit> lits, GroupId group) {
  auto normalized =
      normalize_clause(std::vector<Lit>(lits.begin(), lits.end()));
  if (!normalized) return;  // tautology: can never matter
  std::vector<GroupId> groups;
  if (group != no_group) groups.push_back(group);
  const std::uint32_t id = store(std::move(*normalized), std::move(groups),
                                 /*from_proof=*/false, clauses_.size());
  if (!clauses_[id].propagating()) return;  // parked: settled on revival
  settle(id);
  propagate();
}

void DratChecker::retire_group(GroupId group) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  for (const std::uint32_t id : it->second.dependents) {
    DbClause& c = clauses_[id];
    if (c.retired) continue;
    if (c.propagating()) --live_;
    invalidated_lemmas_ = invalidated_lemmas_ || c.from_proof;
    if (!c.deleted) {
      if (live_index_built_) index_remove(id);
      ++retired_copies_[lits_hash(c.lits)];
    }
    if (!c.from_proof) ++retired_originals_[lits_hash(c.lits)];
    c.retired = true;
    std::vector<Lit>().swap(c.lits);
    std::vector<GroupId>().swap(c.groups);
  }
  std::vector<std::uint32_t>().swap(it->second.dependents);
  if (it->second.active) unwind_group(group);
  groups_.erase(group);
}

void DratChecker::set_group_active(GroupId group, bool active) {
  GroupState& state = groups_[group];
  if (state.active == active) return;
  state.active = active;
  std::vector<std::uint32_t> revived;
  // Walk the dependents, compacting away those gone for good. A deleted
  // original stays listed: retire_group() still counts it for replays.
  std::size_t kept = 0;
  for (const std::uint32_t id : state.dependents) {
    DbClause& c = clauses_[id];
    if (c.retired || (c.deleted && c.from_proof)) continue;
    state.dependents[kept++] = id;
    if (c.deleted) continue;
    if (!active) {
      if (c.parked++ == 0) --live_;
      invalidated_lemmas_ = invalidated_lemmas_ || c.from_proof;
    } else if (--c.parked == 0) {
      if (++live_ > stats_.peak_live_clauses) stats_.peak_live_clauses = live_;
      revived.push_back(id);
    }
  }
  state.dependents.resize(kept);
  if (!active) {
    unwind_group(group);
    return;
  }
  for (const std::uint32_t id : revived) settle(id);
  propagate();
}

void DratChecker::unwind_group(GroupId group) {
  GroupState& state = groups_[group];
  // Root conflicts resting on the group are undone; their clauses are
  // settled again below (they may still be falsified on other grounds).
  std::vector<std::uint32_t> resettle;
  std::erase_if(conflicts_, [&](const RootConflict& rc) {
    if (!contains(rc.groups, group)) return false;
    resettle.push_back(rc.clause);
    return true;
  });

  std::size_t undone = 0;
  for (const Var v : state.root_vars) {
    const auto index = static_cast<std::size_t>(v);
    if (assign_[index] != Value::unassigned && !seen_[index] &&
        contains(root_groups_[index], group)) {
      seen_[index] = 1;
      ++undone;
    }
  }
  std::vector<Var>().swap(state.root_vars);
  if (undone == 0 && resettle.empty()) return;

  // Drop the marked literals from the root trail, keeping the order of the
  // rest. Every remaining literal rests on clauses that stay valid.
  std::vector<Lit> dropped;
  dropped.reserve(undone);
  std::size_t j = 0;
  for (const Lit l : trail_) {
    const auto v = static_cast<std::size_t>(l.var());
    if (!seen_[v]) {
      trail_[j++] = l;
      continue;
    }
    seen_[v] = 0;
    assign_[v] = Value::unassigned;
    reason_[v] = invalid_clause;
    root_groups_[v].clear();
    dropped.push_back(l);
  }
  trail_.resize(j);
  propagate_head_ = j;

  // A clause watching a dropped literal whose other watch is false may now
  // be unit (or falsified): settle it again.
  for (const Lit l : dropped) {
    for (const Watch w : watches_[(~l).code()]) {
      const DbClause& c = clauses_[w.id];
      if (w.epoch != c.epoch || !c.propagating()) continue;
      const Lit other = c.lits.size() == 1 ? l
                        : c.lits[0] == l   ? c.lits[1]
                                           : c.lits[0];
      if (other == l || value(other) == Value::false_value) {
        resettle.push_back(w.id);
      }
    }
  }
  std::sort(resettle.begin(), resettle.end());
  resettle.erase(std::unique(resettle.begin(), resettle.end()),
                 resettle.end());
  for (const std::uint32_t id : resettle) {
    if (clauses_[id].propagating()) settle(id);
  }
  propagate();
}

void DratChecker::ensure_live_index() {
  if (live_index_built_) return;
  live_index_built_ = true;
  // Ascending id order keeps each bucket youngest-last, which is the
  // order the deletion scan walks from the back.
  for (std::uint32_t id = 0; id < clauses_.size(); ++id) {
    const DbClause& c = clauses_[id];
    if (!c.deleted && !c.retired) live_index_[lits_hash(c.lits)].push_back(id);
  }
}

void DratChecker::index_remove(std::uint32_t id) {
  const auto it = live_index_.find(lits_hash(clauses_[id].lits));
  if (it == live_index_.end()) return;
  std::erase(it->second, id);
  if (it->second.empty()) live_index_.erase(it);
}

void DratChecker::delete_copy(const std::vector<Lit>& normalized) {
  const std::uint64_t hash = lits_hash(normalized);
  // The solver deleting its copy of a clause whose copy here was already
  // retired with its group: that copy absorbs the deletion, which must not
  // take a live copy (a root original, another group's) out of
  // propagation. Skipping it only strengthens the database.
  if (const auto retired = retired_copies_.find(hash);
      retired != retired_copies_.end()) {
    if (--retired->second == 0) retired_copies_.erase(retired);
    return;
  }
  ensure_live_index();
  // A clause that is the recorded reason of a root-trail literal must
  // survive: dropping it would leave a literal assigned that unit
  // propagation could no longer re-derive. Skipping such deletions
  // (drat-trim does the same for unit deletions) only strengthens the
  // database, so later checks stay sound. Deletions run at the root
  // fixpoint, so the reason table holds root reasons only.
  const auto is_root_reason = [&](std::uint32_t id) {
    for (const Lit l : clauses_[id].lits) {
      const auto v = static_cast<std::size_t>(l.var());
      if (assign_[v] != Value::unassigned && reason_[v] == id) return true;
    }
    return false;
  };
  for (const Lit l : normalized) lit_mark_[static_cast<std::size_t>(l.code())] = 1;
  const auto same_lits = [&](const DbClause& c) {
    if (c.lits.size() != normalized.size()) return false;
    for (const Lit l : c.lits) {
      if (!lit_mark_[static_cast<std::size_t>(l.code())]) return false;
    }
    return true;
  };

  // Of several copies, delete the one resting on the most groups (the
  // first to become invalid anyway), youngest first among equals.
  std::uint32_t victim = invalid_clause;
  const auto bucket = live_index_.find(hash);
  if (bucket != live_index_.end()) {
    for (std::size_t k = bucket->second.size(); k-- > 0;) {
      const std::uint32_t id = bucket->second[k];
      const DbClause& c = clauses_[id];
      if (!same_lits(c) || is_root_reason(id)) continue;
      if (victim == invalid_clause ||
          c.groups.size() > clauses_[victim].groups.size()) {
        victim = id;
      }
    }
  }
  for (const Lit l : normalized) lit_mark_[static_cast<std::size_t>(l.code())] = 0;

  if (victim == invalid_clause) {
    ++stats_.skipped_deletions;
    return;
  }
  std::erase(bucket->second, victim);
  if (bucket->second.empty()) live_index_.erase(bucket);
  DbClause& c = clauses_[victim];
  if (c.propagating()) --live_;
  c.deleted = true;  // watchers are pruned lazily
  // A replay re-adds every original, so only lemmas release their storage.
  if (c.from_proof) std::vector<Lit>().swap(c.lits);
}

void DratChecker::consume_step(const ProofStep& step, std::size_t index) {
  ++stats_.steps_consumed;
  // Refuted by clauses in no group: everything follows, for good.
  if (refuted_for_good_) return;
  auto normalized = normalize_clause(step.lits);
  if (normalized) {
    for (const Lit l : *normalized) ensure_var(l.var());
  }

  if (step.is_delete()) {
    ++stats_.deletions;
    if (!normalized) {
      ++stats_.skipped_deletions;
      return;
    }
    delete_copy(*normalized);
    return;
  }

  // Addition: must be RUP against the live database.
  if (!normalized) return;  // tautology: vacuously sound, never needed
  ++stats_.add_checks;
  Derivation derivation;
  if (!check_rup(*normalized, &derivation)) {
    if (stats_.dropped_adds++ == 0) stats_.first_dropped_step = index;
    return;
  }
  ++stats_.checked_adds;
  // An empty addition is RUP only when the database is already refuted.
  if (normalized->empty()) return;

  const bool was_refuted = refuted();
  const std::uint32_t id = store(std::move(*normalized),
                                 std::move(derivation.groups),
                                 /*from_proof=*/true, index);
  clauses_[id].antecedents = std::move(derivation.antecedents);
  settle(id);
  propagate();
  if (!was_refuted && refuted()) empty_producer_ = step.producer;
}

void DratChecker::consume(const Proof& trace) {
  if (watermark_ >= trace.size()) return;
  telemetry::PhaseScope verify_scope(telemetry_, telemetry::Phase::verify);
  const std::int64_t start_ns =
      telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  const std::size_t checked_before = stats_.checked_adds;
  const std::size_t dropped_before = stats_.dropped_adds;
  for (; watermark_ < trace.size(); ++watermark_) {
    consume_step(trace.steps[watermark_], watermark_);
  }
  if (telemetry_ != nullptr) {
    telemetry_->emit(telemetry::EventKind::check_verify, start_ns,
                     telemetry_->now_ns() - start_ns,
                     stats_.checked_adds - checked_before,
                     stats_.dropped_adds == dropped_before ? 1 : 0);
  }
}

bool DratChecker::answer_holds(const Proof& trace,
                               std::span<const Lit> failed_core) {
  consume(trace);
  std::vector<Lit> negated;
  negated.reserve(failed_core.size());
  for (const Lit a : failed_core) negated.push_back(~a);
  const auto clause = normalize_clause(std::move(negated));
  if (!clause) return true;  // the core holds a and ~a: refuted alone
  const auto holds = [&] {
    telemetry::PhaseScope verify_scope(telemetry_, telemetry::Phase::verify);
    for (const Lit l : *clause) ensure_var(l.var());
    Derivation derivation;
    return check_rup(*clause, &derivation);
  };
  if (holds()) return true;
  if (!invalidated_lemmas_) return false;
  // A lemma's recorded derivation may rest on a group its solver-side
  // derivation did not need (the two propagations took different paths),
  // so parking or retiring that group dropped a lemma the solver still
  // holds. Rebuild from the live originals and re-verify the trace against
  // them, then ask again.
  replay(trace);
  return holds();
}

void DratChecker::replay(const Proof& trace) {
  DratChecker fresh;
  fresh.telemetry_ = telemetry_;
  fresh.stats_ = stats_;
  ++fresh.stats_.replays;
  // The fresh database never holds a retired group's originals, so every
  // trace deletion of one, before or after the retirement, is absorbed.
  fresh.retired_originals_ = retired_originals_;
  fresh.retired_copies_ = retired_originals_;
  for (const auto& [group, state] : groups_) {
    fresh.groups_[group].active = state.active;
  }
  for (const DbClause& c : clauses_) {
    if (c.from_proof || c.retired) continue;
    fresh.add_original(c.lits, c.groups.empty() ? no_group : c.groups.front());
  }
  fresh.consume(trace);
  *this = std::move(fresh);
}

bool DratChecker::lemma_live(std::size_t step) const {
  for (const DbClause& c : clauses_) {
    if (c.from_proof && c.source == step) return c.propagating();
  }
  return false;
}

CheckResult DratChecker::check(const Proof& proof) {
  CheckResult result;
  if (checked_) {
    result.error = "DratChecker instances are single-use; construct a new one";
    return result;
  }
  checked_ = true;
  consume(proof);

  result.checked_adds = stats_.checked_adds;
  result.deletions = stats_.deletions;
  result.skipped_deletions = stats_.skipped_deletions;
  result.peak_live_clauses = stats_.peak_live_clauses;
  result.derived_empty = refuted();
  if (stats_.dropped_adds > 0) {
    result.error = "step " + std::to_string(stats_.first_dropped_step) +
                   ": clause is not RUP";
  } else if (!result.derived_empty) {
    result.error = "trace ended without deriving the empty clause";
  }
  result.valid = result.error.empty();
  if (result.valid) build_trim_and_core(proof);
  return result;
}

void DratChecker::build_trim_and_core(const Proof& proof) {
  telemetry::PhaseScope trim_scope(telemetry_, telemetry::Phase::trim);
  const std::int64_t trim_start_ns =
      telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  std::vector<char> needed(clauses_.size(), 0);
  for (const std::uint32_t id : empty_antecedents_) needed[id] = 1;

  // Clause ids grow monotonically with step order, so a reverse id sweep
  // visits every addition after all the steps that could depend on it.
  for (std::size_t id = clauses_.size(); id-- > num_original_clauses_;) {
    if (!needed[id]) continue;
    for (const std::uint32_t a : clauses_[id].antecedents) needed[a] = 1;
  }

  core_.clear();
  for (std::size_t id = 0; id < num_original_clauses_; ++id) {
    if (needed[id]) core_.push_back(clauses_[id].source);
  }

  trimmed_.steps.clear();
  for (std::size_t id = num_original_clauses_; id < clauses_.size(); ++id) {
    if (!needed[id] || !clauses_[id].from_proof) continue;
    trimmed_.steps.push_back(proof.steps[clauses_[id].source]);
  }
  trimmed_.steps.push_back(ProofStep{StepKind::add, empty_producer_, {}});
  if (telemetry_ != nullptr) {
    telemetry_->emit(telemetry::EventKind::check_trim, trim_start_ns,
                     telemetry_->now_ns() - trim_start_ns,
                     trimmed_.steps.size(), core_.size());
  }
}

Cnf DratChecker::core_formula(const Cnf& original,
                              const std::vector<std::size_t>& core) {
  Cnf out(original.num_vars());
  for (const std::size_t index : core) out.add_clause(original.clause(index));
  return out;
}

}  // namespace berkmin::proof
