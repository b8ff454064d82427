// In-tree DRAT proof checking, trimming and UNSAT-core extraction.
//
// DratChecker verifies clausal proofs without trusting the solver that
// produced them: it is its own two-watched-literal propagation engine over
// the original clauses plus the proof's verified additions. Every addition
// must be a reverse-unit-propagation (RUP) consequence of the live
// database: asserting the negation of its literals and propagating to
// fixpoint must yield a conflict. Deletions take one live copy out of
// propagation (deletions of clauses that force a root literal are skipped,
// the standard DRUP convention, which only grows the database and so never
// weakens a later check). The engine checks strict RUP only — exactly what
// our CDCL solver emits; RAT steps are rejected, which makes a successful
// check a stronger statement, not a weaker one.
//
// One engine serves two uses:
//
//  * one-shot — DratChecker(cnf).check(proof) consumes the whole trace,
//    requires the root conflict, then runs a backward pass: starting from
//    the antecedents of the empty clause it marks every addition some
//    marked step depends on. trimmed() is the proof without the unmarked
//    additions, and the marked originals form an unsatisfiable core.
//  * resumable — one live checker follows an incremental session. Original
//    clauses arrive tagged with their clause group (add_original), groups
//    are retired (popped) or parked and revived, consume(trace) verifies
//    only the steps past its watermark, and answer_holds(core) certifies
//    one UNSAT answer: the clause ¬core must be RUP over the live database
//    (for an empty core, the database must already be in root conflict).
//    Each trace step is verified once per session, so an answer costs the
//    trace delta since the previous one, not the whole formula and trace.
//
// Soundness across groups. Every stored clause records the groups it rests
// on: an original its own group, a verified addition the union over the
// clauses and root literals of its RUP derivation. An addition therefore
// stays valid exactly while every antecedent it recorded is valid; a DRAT
// deletion takes a clause out of propagation, never out of validity.
// Retiring or parking a group walks that group's dependents list — cost in
// proportion to the group plus its dependents, not to the database — and
// takes them out of propagation; root literals and root conflicts resting
// on them are undone (one pass over the root trail, at most one entry per
// variable) and the affected watches re-propagated. Retired clauses
// release their literals, and each absorbs one later trace deletion of
// its literals (the solver dropping its own group copy after the pop), so
// that deletion never takes a live copy of the same clause out of
// propagation; parked ones re-enter propagation when no group
// they rest on is parked any more. An addition that is not RUP is dropped:
// it never fails an answer and never supports a later step. None of this
// relies on the solver deleting its own group-dependent lemmas. A
// derivation's groups are as precise as its propagation path: literals the
// checked clause itself assumes add nothing, but a path through a group's
// root literal ties the lemma to that group even when the solver derived
// it without the group — answer_holds() covers that case with a replay.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/solver_types.h"
#include "core/watch_pool.h"
#include "proof/proof.h"
#include "telemetry/solver_telemetry.h"

namespace berkmin::proof {

struct CheckResult {
  // True iff every addition verified as RUP and the empty clause was
  // derived — the proof certifies unsatisfiability of the formula.
  bool valid = false;
  bool derived_empty = false;
  std::size_t checked_adds = 0;
  std::size_t deletions = 0;
  // Deletions ignored: the clause forces a root literal, or no live copy
  // matched (a spliced trace may carry two workers' deletions of one
  // shared original; the second finds nothing live and is skipped).
  std::size_t skipped_deletions = 0;
  // High-water mark of live clauses (originals plus undeleted additions)
  // during the forward pass — the checker's working-set size. Deletions
  // in the trace are what keep this bounded on long multi-worker races.
  std::size_t peak_live_clauses = 0;
  // First failure, as "step <index>: <what>"; empty when valid.
  std::string error;
};

// Cumulative counters of one checker across every consume() call.
struct CheckerStats {
  std::size_t steps_consumed = 0;  // trace steps read past the watermark
  std::size_t add_checks = 0;      // RUP checks run on trace additions
  std::size_t checked_adds = 0;    // additions that verified
  std::size_t dropped_adds = 0;    // additions that did not: never stored
  std::size_t deletions = 0;
  std::size_t skipped_deletions = 0;
  std::size_t peak_live_clauses = 0;
  // Trace index of the first dropped addition (meaningful when
  // dropped_adds > 0).
  std::size_t first_dropped_step = 0;
  // Full rebuilds answer_holds() fell back to (see there).
  std::size_t replays = 0;
};

class DratChecker {
 public:
  // Resumable use: an empty database fed through add_original().
  DratChecker() = default;
  // One-shot use: the database starts as the formula's clauses (in no
  // group), and derivations are recorded for trimmed() and core().
  explicit DratChecker(const Cnf& cnf);
  // Movable, not copyable: group_state() keeps a pointer into groups_,
  // which a move carries over with the map's nodes and a copy would not.
  DratChecker(DratChecker&&) = default;
  DratChecker& operator=(DratChecker&&) = default;
  DratChecker(const DratChecker&) = delete;
  DratChecker& operator=(const DratChecker&) = delete;

  // Returns to the state of DratChecker(), keeping the clause store, watch
  // and per-variable buffers it grew, so a caller that checks one session
  // after another reuses them instead of faulting fresh pages in.
  void reset();

  // ---- resumable interface ------------------------------------------------
  // Adds an original clause; `group` is the clause group it belongs to
  // (no_group: the root formula, never retracted). A clause added to a
  // parked group stays out of propagation until the group is revived.
  void add_original(std::span<const Lit> lits, GroupId group = no_group);
  // Retracts a group for good: its originals and every clause resting on
  // them become invalid and release their storage.
  void retire_group(GroupId group);
  // Parks (false) or revives (true) a group. Parking takes the group's
  // dependents out of propagation; reviving restores exactly those whose
  // groups are all active again.
  void set_group_active(GroupId group, bool active);
  // Verifies the trace steps past the watermark, then moves the watermark
  // to the end of `trace`. The trace must be the same growing sequence on
  // every call. Feed it before each retire/park/revive and each original
  // added, so every step is checked against the database it was derived
  // in. On the engine side, proof::LiveCertifier (proof/live_certifier.h)
  // is the one client that follows this rule: sessions, scripted
  // dimacs_solver runs and the incremental tests all go through it.
  void consume(const Proof& trace);
  std::size_t watermark() const { return watermark_; }
  // Certifies one UNSAT answer: consumes `trace`, then requires the clause
  // ¬failed_core to be RUP over the live database (for an empty core, the
  // database to be in root conflict). Should that fail after a park or
  // retire invalidated lemmas, the checker replays once — rebuilds from its
  // live originals and re-verifies the whole trace — and asks again: a
  // lemma's recorded derivation can rest on a group the solver's own
  // derivation did not need. Replays are counted in stats().replays.
  bool answer_holds(const Proof& trace, std::span<const Lit> failed_core);
  // Whether the live database is in root conflict.
  bool refuted() const { return !conflicts_.empty(); }
  // Whether the addition at trace index `step` is in the live database:
  // verified, not deleted by the trace, and resting only on groups that
  // are live and active (introspection for tests; linear in the database).
  bool lemma_live(std::size_t step) const;
  const CheckerStats& stats() const { return stats_; }

  // ---- one-shot interface -------------------------------------------------
  // Consumes the whole trace, requires the root conflict, then trims and
  // extracts the core. May be called once per checker instance.
  CheckResult check(const Proof& proof);

  // Observability: times the forward pass (Phase::verify) and the
  // backward trim/core pass (Phase::trim) and emits check_verify /
  // check_trim span events. The sink must outlive the calls it observes.
  void set_telemetry(const telemetry::SolverTelemetry* sink) {
    telemetry_ = sink;
  }

  // Valid after a successful check(): the needed additions in original
  // order, ending with the empty clause.
  const Proof& trimmed() const { return trimmed_; }

  // Valid after a successful check(): indices into cnf.clauses() of the
  // original clauses the trimmed proof rests on, ascending. The induced
  // subformula is itself unsatisfiable.
  const std::vector<std::size_t>& core() const { return core_; }

  // Materializes a core as a formula over the same variable numbering.
  static Cnf core_formula(const Cnf& original,
                          const std::vector<std::size_t>& core);

 private:
  static constexpr std::uint32_t invalid_clause = 0xFFFFFFFFu;

  // One stored clause: a fixed-size record over the shared pools, so that
  // storing a clause allocates nothing once the pools have grown. Ids are
  // indices into clauses_ and never change; compaction remaps offsets.
  struct StoredClause {
    // lit_pool_[offset, offset + size): normalized, watched literals in
    // slots 0/1. size is 0 once the storage is released (a retired clause,
    // a deleted lemma).
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    // Bumped on every (re)attach; watchers carrying an older epoch are
    // stale and dropped when visited.
    std::uint32_t epoch = 0;
    std::uint32_t parked = 0;  // groups the clause rests on that are parked
    // The sorted ids of every group the clause rests on (see groups_of):
    // with at most one, the common case of an original, `group` is the id
    // itself; with more, it is their offset in group_pool_.
    std::uint32_t num_groups = 0;
    GroupId group = no_group;
    bool from_proof = false;
    bool deleted = false;  // by a trace deletion: out of propagation
    bool retired = false;  // rests on a retired group: invalid for good
    // Originals: index into cnf.clauses(); additions: proof step index.
    std::size_t source = 0;

    bool propagating() const { return !retired && parked == 0 && !deleted; }
  };
  struct Watch {
    std::uint32_t id;
    std::uint32_t epoch;
  };
  // group_pool_[offset, offset + size).
  struct GroupList {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  struct GroupState {
    bool active = true;
    // Clauses resting on the group; deleted lemmas and invalid entries
    // are compacted away whenever the list is walked.
    std::vector<std::uint32_t> dependents;
    // Root variables whose assignment may rest on the group.
    std::vector<Var> root_vars;
  };
  // A clause falsified by the root assignment, with the groups that
  // falsification rests on.
  struct RootConflict {
    std::uint32_t clause;
    std::vector<GroupId> groups;
  };

  std::span<Lit> lits_of(const StoredClause& c) {
    return {lit_pool_.data() + c.offset, c.size};
  }
  std::span<const Lit> lits_of(const StoredClause& c) const {
    return {lit_pool_.data() + c.offset, c.size};
  }
  std::span<const GroupId> groups_of(const StoredClause& c) const {
    if (c.num_groups <= 1) return {&c.group, c.num_groups};
    return {group_pool_.data() + c.group, c.num_groups};
  }
  std::span<const GroupId> root_groups_of(std::size_t v) const {
    const GroupList& list = root_groups_[v];
    return {group_pool_.data() + list.offset, list.size};
  }

  void ensure_var(Var v);
  // groups_[group], remembering the last one found: a stream of clauses
  // into one group looks it up once.
  GroupState& group_state(GroupId group);
  // ensure_var for the normalized clause in clause_scratch_.
  void ensure_scratch_vars();
  // Appends `lits` to the pool and normalizes them there; false, with the
  // pool as it was, for a tautology.
  bool append_normalized(std::span<const Lit> lits);
  // Stores the normalized clause lit_pool_[offset, end), resting on
  // `groups` (sorted), and registers it with its groups.
  std::uint32_t store(std::uint32_t offset, std::span<const GroupId> groups,
                      bool from_proof, std::size_t source);
  // Releases a clause's literals and groups to the pools' garbage.
  void release(StoredClause& c);
  // Compacts each pool whose garbage outgrows both its live size and the
  // table its compaction walks.
  void reclaim();
  // Chooses watches under the root assignment, attaches them, and enqueues
  // or records a conflict when the clause is unit or falsified.
  void settle(std::uint32_t id);
  Value value(Lit l) const {
    return value_of_literal(assign_[static_cast<std::size_t>(l.var())], l);
  }
  void enqueue(Lit l, std::uint32_t reason);
  // Propagates from the current head. Inside a RUP check, returns the
  // first conflicting clause id (or invalid_clause); at the root, records
  // every falsified clause as a root conflict and keeps going.
  std::uint32_t propagate();
  void undo_rup();
  void note_root_conflict(std::uint32_t id);
  // Collects what the conflict on clause `conflict` (or, when invalid, the
  // root assignment of `start`) rests on: its groups into group_scratch_
  // and, one-shot, its antecedents into antecedent_scratch_ (both sorted).
  void derive(std::uint32_t conflict, Var start = no_var);
  // Verifies one clause as RUP; on success the derivation is left in
  // group_scratch_ / antecedent_scratch_.
  bool check_rup(std::span<const Lit> clause);
  // Rebuilds from the valid originals and re-verifies all of `trace`.
  void replay(const Proof& trace);
  void consume_step(const ProofStep& step, std::size_t index);
  // Deletes one live copy of the clause in clause_scratch_.
  void delete_copy();
  // Undoes the root literals and root conflicts resting on `group`, then
  // re-propagates what they unblocked.
  void unwind_group(GroupId group);
  // The deletion lookup: chains of clause ids by literal hash, each chain
  // youngest first.
  std::uint32_t& index_bucket(std::uint64_t hash) {
    return index_heads_[hash & (index_heads_.size() - 1)];
  }
  void index_insert(std::uint32_t id);
  void index_remove(std::uint32_t id);
  void index_rebuild(std::size_t buckets);
  void build_trim_and_core(const Proof& proof);

  // Trim/core support: set by the one-shot constructor.
  bool record_antecedents_ = false;
  std::size_t num_original_clauses_ = 0;
  std::vector<StoredClause> clauses_;
  // The clause store: every stored clause's literals, and the group lists
  // of clauses resting on more than one group and of root literals.
  // Released storage is garbage until the pool is compacted (see reclaim).
  std::vector<Lit> lit_pool_;
  std::size_t lit_garbage_ = 0;
  std::vector<GroupId> group_pool_;
  std::size_t group_garbage_ = 0;
  // One-shot only: clause ids whose unit consequences made each addition
  // RUP (the backward pass follows them), clause `id` owning
  // antecedents_[antecedent_start_[id], antecedent_start_[id + 1]).
  std::vector<std::uint32_t> antecedents_;
  std::vector<std::uint32_t> antecedent_start_{0};
  std::unordered_map<GroupId, GroupState> groups_;
  // group_state()'s last find; reset when an element of groups_ is erased.
  std::pair<const GroupId, GroupState>* found_group_ = nullptr;

  // Deletion lookup (order-independent literal hash -> live clause ids),
  // built lazily on the first deletion: deletion-free traces never pay
  // for it. index_heads_ holds each bucket's youngest id and index_next_
  // (by clause id) the next older one in its bucket. Retired clauses
  // leave it and are counted in retired_copies_; a trace deletion uses up
  // a retired copy before it looks for a live one. retired_originals_
  // counts every original ever retired, which is what a replay starts
  // retired_copies_ from.
  std::vector<std::uint32_t> index_heads_;
  std::vector<std::uint32_t> index_next_;
  std::size_t indexed_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> retired_copies_;
  std::unordered_map<std::uint64_t, std::uint32_t> retired_originals_;
  std::vector<char> lit_mark_;  // by literal code, clause comparison scratch

  FlatWatchLists<Watch> watches_;  // by literal code
  // Entries in watches_, live or stale (reclaim's garbage estimate).
  std::size_t watch_entries_ = 0;
  std::vector<Value> assign_;  // by variable
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> reason_;  // by variable; invalid for assumptions
  // By variable: the groups a root assignment rests on.
  std::vector<GroupList> root_groups_;
  std::size_t propagate_head_ = 0;
  // Trail size where the running RUP check's assumptions start; npos at
  // the root.
  static constexpr std::size_t at_root = static_cast<std::size_t>(-1);
  std::size_t rup_start_ = at_root;
  std::vector<char> seen_;  // derive scratch, by variable
  std::vector<Var> marked_;  // derive scratch: the variables seen_ marks
  // By variable: set during a RUP check for the checked clause's literals
  // that are already false at the root.
  std::vector<char> assumed_;
  // The clause being added, deleted or checked, normalized in place.
  std::vector<Lit> clause_scratch_;
  std::vector<GroupId> group_scratch_;
  std::vector<GroupId> root_scratch_;  // enqueue's
  std::vector<std::uint32_t> antecedent_scratch_;

  std::vector<RootConflict> conflicts_;
  // A root conflict resting on no group: the database is refuted for good
  // and every later step holds.
  bool refuted_for_good_ = false;
  std::vector<std::uint32_t> empty_antecedents_;

  std::size_t watermark_ = 0;
  std::size_t live_ = 0;
  // Whether a park or retire has invalidated a verified addition since the
  // checker was built (only then can a replay certify more).
  bool invalidated_lemmas_ = false;
  CheckerStats stats_;

  bool checked_ = false;
  Proof trimmed_;
  std::vector<std::size_t> core_;
  const telemetry::SolverTelemetry* telemetry_ = nullptr;
};

}  // namespace berkmin::proof
