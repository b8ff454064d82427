// Incremental CNF scripts (.icnf): the incremental API as data. An Op is
// one clause or group operation; every layer applies the same ops (a
// SatEngine, a proof::LiveCertifier, a service session through
// SolverService::session_apply, an ActiveFormula), and a Script is a
// stream of them, with this text form:
//
//   c comment
//   p inccnf
//   1 2 0          add clause (to the innermost open group, if any)
//   g 2 -1 3 0     add clause -1 3 to group 2
//   a 1 -2 0       solve under assumptions 1, -2 (may be empty: "a 0")
//   push 0         open a clause group
//   pop 2 0        retract group 2 (learned clauses whose derivations are
//                  group-independent are retained)
//   pop 0          retract the innermost open group
//   deactivate 2 0 park group 2 (its clauses sit out later solves)
//   activate 2 0   revive it
//
// <g> is the group's push ordinal, counted from 1; 0 names the innermost
// open group. Every engine numbers its groups 0, 1, 2, ... in push order,
// so group <g> is the engine's handle g - 1. The trailing 0 on push/pop
// lines is optional; a group not open at its line is a parse error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/solver_types.h"

namespace berkmin::icnf {

// One operation of the incremental API, as a non-owning view: `lits`
// (clause literals, or solve assumptions) must outlive the Op's use.
struct Op {
  enum class Kind : std::uint8_t {
    add_clause,     // lits, into the innermost open group (or the root)
    add_clause_to,  // lits, into `group`
    push,           // open a group
    pop,            // retract `group`
    set_active,     // park (active = false) or revive `group`
    solve,          // solve under the assumptions `lits`
  };
  Kind kind = Kind::add_clause;
  // A live group's handle, or innermost_group (see solver_types.h).
  GroupId group = no_group;
  bool active = true;
  std::span<const Lit> lits;

  static Op clause(std::span<const Lit> lits) {
    return {Kind::add_clause, no_group, true, lits};
  }
  static Op clause_to(GroupId group, std::span<const Lit> lits) {
    return {Kind::add_clause_to, group, true, lits};
  }
  static Op push() { return {Kind::push, no_group, true, {}}; }
  static Op pop(GroupId group = innermost_group) {
    return {Kind::pop, group, true, {}};
  }
  static Op set_active(GroupId group, bool active) {
    return {Kind::set_active, group, active, {}};
  }
  static Op solve(std::span<const Lit> assumptions = {}) {
    return {Kind::solve, no_group, true, assumptions};
  }
};

// The kind's name ("add_clause", "pop", ...), for messages.
const char* to_string(Op::Kind kind);

// Applies one mutation to `target`: anything with the named group methods
// of SatEngine (push_group, pop_group, add_clause, add_clause_to_group,
// set_group_active, group_is_live, innermost_group) — an engine, a
// proof::LiveCertifier, an ActiveFormula. The only code that dispatches a
// mutation on Op::Kind. innermost_group resolves to the target's innermost
// live group. Returns the group acted on (the new one for a push, no_group
// for an add to the innermost group), or nullopt for a refusal: a group
// that is not live, a push the target refuses, and every solve op (the
// caller answers those). An add's false return is root-level UNSAT, an
// answer the next solve reports, not a refusal.
template <class Target>
std::optional<GroupId> apply(Target& target, const Op& op) {
  // The live group a named op acts on, or nullopt.
  const auto live = [&]() -> std::optional<GroupId> {
    const GroupId group =
        op.group == innermost_group ? target.innermost_group() : op.group;
    if (!target.group_is_live(group)) return std::nullopt;
    return group;
  };
  switch (op.kind) {
    case Op::Kind::add_clause:
      (void)target.add_clause(op.lits);
      return no_group;
    case Op::Kind::add_clause_to: {
      const std::optional<GroupId> group = live();
      if (group) (void)target.add_clause_to_group(*group, op.lits);
      return group;
    }
    case Op::Kind::push: {
      const GroupId pushed = target.push_group();
      if (pushed == no_group) return std::nullopt;
      return pushed;
    }
    case Op::Kind::pop: {
      const std::optional<GroupId> group = live();
      if (group) (void)target.pop_group(*group);
      return group;
    }
    case Op::Kind::set_active: {
      const std::optional<GroupId> group = live();
      if (group) (void)target.set_group_active(*group, op.active);
      return group;
    }
    case Op::Kind::solve:
      break;
  }
  return std::nullopt;
}

// The groups an engine has after the same ops, without their clauses: the
// live ones in push order, numbered as every engine numbers them (0, 1,
// 2, ...), each active or parked. apply() drives it; a Script keeps its
// groups in one.
class Groups {
 public:
  struct Group {
    GroupId id = no_group;
    bool active = true;
  };

  GroupId push_group() {
    live_.push_back(Group{pushed_, true});
    return pushed_++;
  }
  bool pop_group(GroupId id);
  bool set_group_active(GroupId id, bool active);
  bool add_clause(std::span<const Lit>) { return true; }
  bool add_clause_to_group(GroupId id, std::span<const Lit>) {
    return group_is_live(id);
  }
  bool group_is_live(GroupId id) const { return find(id) != live_.end(); }
  GroupId innermost_group() const {
    return live_.empty() ? no_group : live_.back().id;
  }
  int num_groups() const { return static_cast<int>(live_.size()); }
  const std::vector<Group>& live() const { return live_; }  // push order
  GroupId pushed() const { return pushed_; }  // groups ever pushed

 protected:
  std::vector<Group>::const_iterator find(GroupId id) const {
    return std::ranges::find(live_, id, &Group::id);
  }

 private:
  std::vector<Group> live_;
  GroupId pushed_ = 0;
};

// The formula an engine sees after the same ops: the root clauses plus the
// clauses of every live, active group. The CLIs and tests check answers
// against it.
class ActiveFormula : public Groups {
 public:
  bool add_clause(std::span<const Lit> lits) {
    return add(innermost_group(), lits);
  }
  bool add_clause_to_group(GroupId id, std::span<const Lit> lits) {
    return group_is_live(id) && add(id, lits);
  }

  Cnf formula(int num_vars = 0) const;  // over at least num_vars variables
  // Whether `model` satisfies formula() and every assumption.
  bool is_model(const std::vector<Value>& model,
                std::span<const Lit> assumptions) const;

 private:
  bool add(GroupId owner, std::span<const Lit> lits);

  Cnf clauses_;                 // every clause added, popped groups' too
  std::vector<GroupId> owner_;  // clause i's group; no_group: the root
};

// The owning form of an Op stream: every op's literals in one flat pool,
// one compact record per op, so a long stream costs no allocation per op.
// A script stays replayable: it takes an op that names a group only while
// that group is open in it.
class Script {
 public:
  // From the "p inccnf <vars> <clauses>" header when present (both counts
  // optional); literals beyond it grow the variable range anyway.
  int declared_vars = 0;

  // Appends `op`; false (nothing appended) when it names a group that is
  // not open.
  bool append(const Op& op);
  std::size_t size() const { return records_.size(); }
  // The i-th op, viewing the pool (valid until the next append).
  Op op(std::size_t i) const;
  // Every op, in order, as views (same invalidation rule as op()).
  auto ops() const {
    return std::views::iota(std::size_t{0}, size()) |
           std::views::transform([this](std::size_t i) { return op(i); });
  }
  // The groups an engine has after every op.
  const Groups& groups() const { return groups_; }

  std::size_t num_solves() const;
  // Highest variable referenced by any op (or declared), plus one.
  int num_vars() const { return std::max(declared_vars, referenced_vars_); }

 private:
  struct Record {
    Op::Kind kind;
    bool active;
    GroupId group;
    std::size_t lits_end;  // the op's literals end here in lits_
  };
  std::vector<Record> records_;
  std::vector<Lit> lits_;
  int referenced_vars_ = 0;
  Groups groups_;
};

// One malformed construct, anchored to where parsing stopped. All icnf
// issues are fatal (the script is an imperative sequence — there is no
// safe way to keep replaying past a broken directive).
struct ParseIssue {
  int line = 0;
  std::uint64_t byte_offset = 0;  // from the start of the stream
  std::string message;

  std::string to_string() const {
    return "icnf line " + std::to_string(line) + " (byte " +
           std::to_string(byte_offset) + "): " + message;
  }
};

struct ParseResult {
  Script script;  // the prefix parsed before the first issue
  std::vector<ParseIssue> issues;

  bool ok() const { return issues.empty(); }
  std::string first_error() const {
    return issues.empty() ? std::string() : issues.front().to_string();
  }
};

// Parsing. parse_checked/read_checked_file never throw on malformed input
// (they return the issue with its position); parse is the strict wrapper
// raising std::runtime_error on the first issue.
ParseResult parse_checked(std::istream& in);
ParseResult read_checked_file(const std::string& path);
Script parse(std::istream& in);

// Serialization (round-trips through parse()).
void write(std::ostream& out, const Script& script,
           const std::string& comment = "");
void write_file(const std::string& path, const Script& script,
                const std::string& comment = "");

// Synthesizes a push/pop edit script over a plain CNF, deterministically
// from `seed`: a base prefix, then nested groups over the remaining
// clauses with solves between every edit, then pops with re-solves — the
// shape of a BMC/IC3 query stream. Used by the scripted-mode smoke
// pipeline and the differential fuzzers.
Script synthesize_from_cnf(const Cnf& cnf, std::uint64_t seed);

}  // namespace berkmin::icnf
