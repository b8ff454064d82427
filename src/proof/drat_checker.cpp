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

bool contains(std::span<const GroupId> sorted, GroupId group) {
  return std::binary_search(sorted.begin(), sorted.end(), group);
}

void append(std::vector<GroupId>& out, std::span<const GroupId> more) {
  out.insert(out.end(), more.begin(), more.end());
}

void sort_unique(std::vector<GroupId>& groups) {
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
}

}  // namespace

DratChecker::DratChecker(const Cnf& cnf) : record_antecedents_(true) {
  ensure_var(cnf.num_vars() - 1);
  clauses_.reserve(cnf.num_clauses());
  lit_pool_.reserve(cnf.num_literals());
  for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
    // A tautology can never matter.
    const auto offset = static_cast<std::uint32_t>(lit_pool_.size());
    if (append_normalized(cnf.clause(i))) settle(store(offset, {}, false, i));
  }
  num_original_clauses_ = clauses_.size();
  propagate();
}

void DratChecker::ensure_scratch_vars() {
  // Normalized literals are sorted by code, so the last has the largest
  // variable.
  if (!clause_scratch_.empty()) ensure_var(clause_scratch_.back().var());
}

void DratChecker::ensure_var(Var v) {
  // The tables grow geometrically, as a vector's capacity does, so a
  // stream of ever-new variables resizes them a logarithmic number of
  // times rather than once per variable.
  if (v < 0 || static_cast<std::size_t>(v) < assign_.size()) return;
  const std::size_t needed =
      std::max(static_cast<std::size_t>(v) + 1, 2 * assign_.size());
  assign_.resize(needed, Value::unassigned);
  reason_.resize(needed, invalid_clause);
  root_groups_.resize(needed);
  seen_.resize(needed, 0);
  assumed_.resize(needed, 0);
  watches_.resize_literals(2 * needed);
  lit_mark_.resize(2 * needed, 0);
}

bool DratChecker::append_normalized(std::span<const Lit> lits) {
  const std::size_t offset = lit_pool_.size();
  for (const Lit l : lits) lit_pool_.push_back(l);
  const std::size_t kept =
      normalize_clause(std::span<Lit>(lit_pool_).subspan(offset));
  lit_pool_.resize(offset + (kept == tautology ? 0 : kept));
  return kept != tautology;
}

std::uint32_t DratChecker::store(std::uint32_t offset,
                                 std::span<const GroupId> groups,
                                 bool from_proof, std::size_t source) {
  // Normalized literals are sorted by code, so the last has the largest
  // variable.
  if (offset < lit_pool_.size()) ensure_var(lit_pool_.back().var());
  const auto id = static_cast<std::uint32_t>(clauses_.size());
  StoredClause& c = clauses_.emplace_back();
  c.offset = offset;
  c.size = static_cast<std::uint32_t>(lit_pool_.size() - offset);
  c.num_groups = static_cast<std::uint32_t>(groups.size());
  if (groups.size() == 1) {
    c.group = groups.front();
  } else if (groups.size() > 1) {
    c.group = static_cast<GroupId>(group_pool_.size());
    group_pool_.insert(group_pool_.end(), groups.begin(), groups.end());
  }
  c.from_proof = from_proof;
  c.source = source;
  for (const GroupId g : groups) {
    GroupState& state = group_state(g);
    state.dependents.push_back(id);
    if (!state.active) ++c.parked;
  }
  if (record_antecedents_) {
    if (from_proof) {
      antecedents_.insert(antecedents_.end(), antecedent_scratch_.begin(),
                          antecedent_scratch_.end());
    }
    antecedent_start_.push_back(static_cast<std::uint32_t>(antecedents_.size()));
  }
  if (!index_heads_.empty()) index_insert(id);
  if (c.propagating() && ++live_ > stats_.peak_live_clauses) {
    stats_.peak_live_clauses = live_;
  }
  return id;
}

void DratChecker::release(StoredClause& c) {
  lit_garbage_ += c.size;
  c.size = 0;
  if (c.num_groups > 1) group_garbage_ += c.num_groups;
  c.num_groups = 0;
  c.group = no_group;
}

void DratChecker::reclaim() {
  // Each pool is compacted once its garbage exceeds both its live size and
  // the size of the table a compaction walks (the clause records, or the
  // watch lists), so the walk is paid for by the garbage it frees.
  const std::size_t live_lits = lit_pool_.size() - lit_garbage_;
  if (lit_garbage_ > live_lits && lit_garbage_ > clauses_.size()) {
    std::vector<Lit> pool;
    pool.reserve(live_lits);
    for (StoredClause& c : clauses_) {
      const auto lits = lits_of(c);
      c.offset = static_cast<std::uint32_t>(pool.size());
      pool.insert(pool.end(), lits.begin(), lits.end());
    }
    lit_pool_ = std::move(pool);
    lit_garbage_ = 0;
  }
  const std::size_t live_groups = group_pool_.size() - group_garbage_;
  if (group_garbage_ > live_groups &&
      group_garbage_ > clauses_.size() + root_groups_.size()) {
    std::vector<GroupId> pool;
    pool.reserve(live_groups);
    for (StoredClause& c : clauses_) {
      if (c.num_groups <= 1) continue;
      const auto groups = groups_of(c);
      const auto offset = static_cast<GroupId>(pool.size());
      pool.insert(pool.end(), groups.begin(), groups.end());
      c.group = offset;
    }
    for (std::size_t v = 0; v < root_groups_.size(); ++v) {
      const auto groups = root_groups_of(v);
      root_groups_[v].offset = static_cast<std::uint32_t>(pool.size());
      pool.insert(pool.end(), groups.begin(), groups.end());
    }
    group_pool_ = std::move(pool);
    group_garbage_ = 0;
  }
  // A propagating clause holds at most two current watches; everything
  // else in the pool (stale watches, slots vacated by growth) is garbage.
  const std::size_t live_watches = 2 * live_;
  const std::size_t watch_garbage =
      watches_.wasted() +
      (watch_entries_ > live_watches ? watch_entries_ - live_watches : 0);
  if (watch_garbage > live_watches &&
      watch_garbage > watches_.num_literals()) {
    watches_.compact([&](const Watch& w) {
      const StoredClause& c = clauses_[w.id];
      return w.epoch == c.epoch && c.propagating();
    });
    watch_entries_ = watches_.pool_slots();
  }
}

void DratChecker::settle(std::uint32_t id) {
  StoredClause& c = clauses_[id];
  const std::span<Lit> lits = lits_of(c);
  std::size_t found = 0;
  for (std::size_t k = 0; k < lits.size() && found < 2; ++k) {
    if (value(lits[k]) != Value::false_value) {
      std::swap(lits[found], lits[k]);
      ++found;
    }
  }
  // Re-attaching bumps the epoch, which retires every older watcher.
  ++c.epoch;
  for (std::size_t k = 0; k < lits.size() && k < 2; ++k) {
    watches_.push(static_cast<std::size_t>((~lits[k]).code()), {id, c.epoch});
    ++watch_entries_;
  }
  if (found == 0) {
    note_root_conflict(id);
  } else if (found == 1 && value(lits[0]) == Value::unassigned) {
    enqueue(lits[0], id);
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
  const StoredClause& c = clauses_[reason];
  root_scratch_.clear();
  append(root_scratch_, groups_of(c));
  for (const Lit other : lits_of(c)) {
    if (other != l) append(root_scratch_, root_groups_of(other.var()));
  }
  sort_unique(root_scratch_);
  GroupList& rests_on = root_groups_[v];
  group_garbage_ += rests_on.size;
  rests_on = {static_cast<std::uint32_t>(group_pool_.size()),
              static_cast<std::uint32_t>(root_scratch_.size())};
  group_pool_.insert(group_pool_.end(), root_scratch_.begin(),
                     root_scratch_.end());
  for (const GroupId g : root_scratch_) {
    group_state(g).root_vars.push_back(l.var());
  }
}

std::uint32_t DratChecker::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    const auto code = static_cast<std::size_t>(p.code());
    const Lit false_lit = ~p;
    // The list is walked by absolute pool index: moving a watch pushes to
    // another literal's list, which may reallocate the pool (never this
    // span: the new watch is not false, so it is never ~p).
    const std::uint32_t base = watches_.offset(code);
    const std::uint32_t end = watches_.size(code);

    std::uint32_t i = 0;
    std::uint32_t j = 0;
    while (i < end) {
      const Watch w = watches_.at(base + i++);
      StoredClause& c = clauses_[w.id];
      // Stale (re-attached since) or out of propagation: drop the watcher.
      if (w.epoch != c.epoch || !c.propagating()) {
        --watch_entries_;
        continue;
      }
      const std::span<Lit> lits = lits_of(c);
      if (lits.size() > 1) {
        if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
        assert(lits[1] == false_lit);
        if (value(lits[0]) == Value::true_value) {
          watches_.at(base + j++) = w;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < lits.size(); ++k) {
          if (value(lits[k]) != Value::false_value) {
            std::swap(lits[1], lits[k]);
            watches_.push(static_cast<std::size_t>((~lits[1]).code()), w);
            moved = true;
            break;
          }
        }
        if (moved) continue;
      }

      watches_.at(base + j++) = w;
      if (lits.size() > 1 && value(lits[0]) == Value::unassigned) {
        enqueue(lits[0], w.id);
        continue;
      }
      // Every literal is false. Inside a RUP check that is the verdict; at
      // the root it is a root conflict, and propagation goes on so the
      // root stays a fixpoint should the conflict later be undone.
      if (rup_start_ == at_root) note_root_conflict(w.id);
      if (rup_start_ != at_root || refuted_for_good_) {
        while (i < end) watches_.at(base + j++) = watches_.at(base + i++);
        watches_.truncate(code, j);
        propagate_head_ = trail_.size();
        return w.id;
      }
    }
    watches_.truncate(code, j);
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
  derive(id);
  if (conflicts_.empty()) empty_antecedents_ = antecedent_scratch_;
  refuted_for_good_ = group_scratch_.empty();
  conflicts_.push_back(RootConflict{id, group_scratch_});
}

void DratChecker::derive(std::uint32_t conflict, Var start) {
  antecedent_scratch_.clear();
  group_scratch_.clear();
  marked_.clear();
  const auto mark_clause = [&](std::uint32_t id) {
    if (record_antecedents_) antecedent_scratch_.push_back(id);
    const StoredClause& c = clauses_[id];
    append(group_scratch_, groups_of(c));
    for (const Lit l : lits_of(c)) {
      const auto v = static_cast<std::size_t>(l.var());
      if (!seen_[v]) {
        seen_[v] = 1;
        marked_.push_back(l.var());
      }
    }
  };

  if (conflict != invalid_clause) {
    mark_clause(conflict);
  } else {
    assert(start != no_var);
    seen_[static_cast<std::size_t>(start)] = 1;
    marked_.push_back(start);
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

  for (const Var v : marked_) {
    const auto index = static_cast<std::size_t>(v);
    seen_[index] = 0;
    if (!assumed_[index]) append(group_scratch_, root_groups_of(index));
  }
  sort_unique(group_scratch_);
  std::sort(antecedent_scratch_.begin(), antecedent_scratch_.end());
  antecedent_scratch_.erase(
      std::unique(antecedent_scratch_.begin(), antecedent_scratch_.end()),
      antecedent_scratch_.end());
}

bool DratChecker::check_rup(std::span<const Lit> clause) {
  if (!conflicts_.empty()) {
    // The live database is refuted at the root: every clause follows,
    // resting on what the conflict rests on.
    group_scratch_ = conflicts_.front().groups;
    antecedent_scratch_.clear();
    if (record_antecedents_) antecedent_scratch_ = empty_antecedents_;
    return true;
  }
  rup_start_ = trail_.size();
  bool holds = false;
  // Assert the negation. A literal already true at the root contradicts
  // its own negation immediately — the derivation is what forced it.
  for (const Lit l : clause) {
    const Value v = value(l);
    if (v == Value::true_value) {
      derive(invalid_clause, l.var());
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
      derive(conflict);
      holds = true;
    }
  }
  for (const Lit l : clause) assumed_[static_cast<std::size_t>(l.var())] = 0;
  undo_rup();
  return holds;
}

void DratChecker::add_original(std::span<const Lit> lits, GroupId group) {
  // Normalized where it is stored, at the end of the pool.
  const auto offset = static_cast<std::uint32_t>(lit_pool_.size());
  if (!append_normalized(lits)) return;  // tautology: never matters
  const std::span<const GroupId> groups(&group, group == no_group ? 0 : 1);
  const std::uint32_t id =
      store(offset, groups, /*from_proof=*/false, clauses_.size());
  if (!clauses_[id].propagating()) return;  // parked: settled on revival
  const std::size_t assigned = trail_.size();
  settle(id);
  if (trail_.size() > assigned) propagate();
}

void DratChecker::retire_group(GroupId group) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  for (const std::uint32_t id : it->second.dependents) {
    StoredClause& c = clauses_[id];
    if (c.retired) continue;
    if (c.propagating()) --live_;
    invalidated_lemmas_ = invalidated_lemmas_ || c.from_proof;
    const std::uint64_t hash = lits_hash(lits_of(c));
    if (!c.deleted) {
      if (!index_heads_.empty()) index_remove(id);
      ++retired_copies_[hash];
    }
    if (!c.from_proof) ++retired_originals_[hash];
    c.retired = true;
    release(c);
  }
  std::vector<std::uint32_t>().swap(it->second.dependents);
  if (it->second.active) unwind_group(group);
  found_group_ = nullptr;
  groups_.erase(group);
  reclaim();
}

void DratChecker::set_group_active(GroupId group, bool active) {
  GroupState& state = group_state(group);
  if (state.active == active) return;
  state.active = active;
  std::vector<std::uint32_t> revived;
  // Walk the dependents, compacting away those gone for good. A deleted
  // original stays listed: retire_group() still counts it for replays.
  std::size_t kept = 0;
  for (const std::uint32_t id : state.dependents) {
    StoredClause& c = clauses_[id];
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
    reclaim();
    return;
  }
  for (const std::uint32_t id : revived) settle(id);
  propagate();
}

void DratChecker::unwind_group(GroupId group) {
  GroupState& state = group_state(group);
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
        contains(root_groups_of(index), group)) {
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
    group_garbage_ += root_groups_[v].size;
    root_groups_[v].size = 0;
    dropped.push_back(l);
  }
  trail_.resize(j);
  propagate_head_ = j;

  // A clause watching a dropped literal whose other watch is false may now
  // be unit (or falsified): settle it again.
  for (const Lit l : dropped) {
    for (const Watch w : watches_.list(static_cast<std::size_t>((~l).code()))) {
      const StoredClause& c = clauses_[w.id];
      if (w.epoch != c.epoch || !c.propagating()) continue;
      const auto lits = lits_of(c);
      const Lit other = lits.size() == 1 ? l
                        : lits[0] == l   ? lits[1]
                                         : lits[0];
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

DratChecker::GroupState& DratChecker::group_state(GroupId group) {
  if (found_group_ == nullptr || found_group_->first != group) {
    found_group_ = &*groups_.try_emplace(group).first;
  }
  return found_group_->second;
}

void DratChecker::index_insert(std::uint32_t id) {
  if (++indexed_ > index_heads_.size()) {
    index_rebuild(2 * index_heads_.size());
    return;
  }
  if (index_next_.size() <= id) index_next_.resize(clauses_.size());
  std::uint32_t& head = index_bucket(lits_hash(lits_of(clauses_[id])));
  index_next_[id] = head;
  head = id;
}

void DratChecker::index_remove(std::uint32_t id) {
  std::uint32_t* link = &index_bucket(lits_hash(lits_of(clauses_[id])));
  while (*link != invalid_clause && *link != id) link = &index_next_[*link];
  if (*link == invalid_clause) return;
  *link = index_next_[id];
  --indexed_;
}

void DratChecker::index_rebuild(std::size_t buckets) {
  index_heads_.assign(buckets, invalid_clause);
  index_next_.resize(clauses_.size());
  indexed_ = 0;
  // Ascending id order keeps each bucket youngest-first, which is the
  // order the deletion scan walks.
  for (std::uint32_t id = 0; id < clauses_.size(); ++id) {
    const StoredClause& c = clauses_[id];
    if (c.deleted || c.retired) continue;
    std::uint32_t& head = index_bucket(lits_hash(lits_of(c)));
    index_next_[id] = head;
    head = id;
    ++indexed_;
  }
}

void DratChecker::delete_copy() {
  const std::span<const Lit> normalized = clause_scratch_;
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
  if (index_heads_.empty()) {
    std::size_t buckets = 16;
    while (buckets < clauses_.size()) buckets *= 2;
    index_rebuild(buckets);
  }
  // A clause that is the recorded reason of a root-trail literal must
  // survive: dropping it would leave a literal assigned that unit
  // propagation could no longer re-derive. Skipping such deletions
  // (drat-trim does the same for unit deletions) only strengthens the
  // database, so later checks stay sound. Deletions run at the root
  // fixpoint, so the reason table holds root reasons only.
  const auto is_root_reason = [&](std::uint32_t id) {
    for (const Lit l : lits_of(clauses_[id])) {
      const auto v = static_cast<std::size_t>(l.var());
      if (assign_[v] != Value::unassigned && reason_[v] == id) return true;
    }
    return false;
  };
  for (const Lit l : normalized) lit_mark_[static_cast<std::size_t>(l.code())] = 1;
  const auto same_lits = [&](const StoredClause& c) {
    if (c.size != normalized.size()) return false;
    for (const Lit l : lits_of(c)) {
      if (!lit_mark_[static_cast<std::size_t>(l.code())]) return false;
    }
    return true;
  };

  // Of several copies, delete the one resting on the most groups (the
  // first to become invalid anyway), youngest first among equals.
  std::uint32_t victim = invalid_clause;
  for (std::uint32_t id = index_bucket(hash); id != invalid_clause;
       id = index_next_[id]) {
    const StoredClause& c = clauses_[id];
    if (!same_lits(c) || is_root_reason(id)) continue;
    if (victim == invalid_clause ||
        c.num_groups > clauses_[victim].num_groups) {
      victim = id;
    }
  }
  for (const Lit l : normalized) lit_mark_[static_cast<std::size_t>(l.code())] = 0;

  if (victim == invalid_clause) {
    ++stats_.skipped_deletions;
    return;
  }
  index_remove(victim);
  StoredClause& c = clauses_[victim];
  if (c.propagating()) --live_;
  c.deleted = true;  // watchers are pruned lazily
  // A replay re-adds every original, so only lemmas release their storage.
  if (c.from_proof) {
    release(c);
    reclaim();
  }
}

void DratChecker::consume_step(const ProofStep& step, std::size_t index) {
  ++stats_.steps_consumed;
  // Refuted by clauses in no group: everything follows, for good.
  if (refuted_for_good_) return;
  clause_scratch_ = step.lits;
  const bool normalized = normalize_clause(clause_scratch_);
  if (normalized) ensure_scratch_vars();

  if (step.is_delete()) {
    ++stats_.deletions;
    if (!normalized) {
      ++stats_.skipped_deletions;
      return;
    }
    delete_copy();
    return;
  }

  // Addition: must be RUP against the live database.
  if (!normalized) return;  // tautology: vacuously sound, never needed
  ++stats_.add_checks;
  if (!check_rup(clause_scratch_)) {
    if (stats_.dropped_adds++ == 0) stats_.first_dropped_step = index;
    return;
  }
  ++stats_.checked_adds;
  // An empty addition is RUP only when the database is already refuted.
  if (clause_scratch_.empty()) return;

  const auto offset = static_cast<std::uint32_t>(lit_pool_.size());
  lit_pool_.insert(lit_pool_.end(), clause_scratch_.begin(),
                   clause_scratch_.end());
  const std::uint32_t id =
      store(offset, group_scratch_, /*from_proof=*/true, index);
  settle(id);
  propagate();
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
  const auto holds = [&] {
    clause_scratch_.clear();
    for (const Lit a : failed_core) clause_scratch_.push_back(~a);
    // A core holding a and ~a is refuted alone.
    if (!normalize_clause(clause_scratch_)) return true;
    telemetry::PhaseScope verify_scope(telemetry_, telemetry::Phase::verify);
    ensure_scratch_vars();
    return check_rup(clause_scratch_);
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
  for (const StoredClause& c : clauses_) {
    if (c.from_proof || c.retired) continue;
    fresh.add_original(lits_of(c), c.group);
  }
  fresh.consume(trace);
  *this = std::move(fresh);
  found_group_ = nullptr;
}

void DratChecker::reset() {
  DratChecker fresh;
  reuse_buffer(fresh.clauses_, clauses_);
  reuse_buffer(fresh.lit_pool_, lit_pool_);
  reuse_buffer(fresh.group_pool_, group_pool_);
  reuse_buffer(fresh.index_heads_, index_heads_);
  reuse_buffer(fresh.index_next_, index_next_);
  reuse_buffer(fresh.lit_mark_, lit_mark_);
  fresh.watches_.reuse(watches_);
  reuse_buffer(fresh.assign_, assign_);
  reuse_buffer(fresh.trail_, trail_);
  reuse_buffer(fresh.reason_, reason_);
  reuse_buffer(fresh.root_groups_, root_groups_);
  reuse_buffer(fresh.seen_, seen_);
  reuse_buffer(fresh.marked_, marked_);
  reuse_buffer(fresh.assumed_, assumed_);
  reuse_buffer(fresh.clause_scratch_, clause_scratch_);
  *this = std::move(fresh);
}

bool DratChecker::lemma_live(std::size_t step) const {
  for (const StoredClause& c : clauses_) {
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
    for (std::uint32_t k = antecedent_start_[id]; k < antecedent_start_[id + 1];
         ++k) {
      needed[antecedents_[k]] = 1;
    }
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
  trimmed_.steps.push_back(ProofStep{StepKind::add, {}});
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
