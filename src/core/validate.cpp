// Implementation of Solver::validate_invariants: watch-list integrity
// (every stored clause watched exactly twice, on its first two literals),
// trail/assignment agreement, reason/implication sanity, and the
// learned-stack bookkeeping. Lives in its own translation unit so the
// checking code never creeps into the solving paths.
#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "core/solver.h"

namespace berkmin {
namespace {

std::string describe_lit(Lit l) { return to_string(l); }

}  // namespace

std::string Solver::validate_invariants() const {
  std::ostringstream problem;

  // --- assignment / trail agreement --------------------------------------
  std::vector<char> on_trail(assign_.size(), 0);
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit l = trail_[i];
    const Var v = l.var();
    if (v < 0 || v >= num_internal_vars()) return "trail literal with bad variable";
    if (on_trail[v]) {
      problem << "variable " << v << " appears twice on the trail";
      return problem.str();
    }
    on_trail[v] = 1;
    if (value(l) != Value::true_value) {
      problem << "trail literal " << describe_lit(l) << " is not true";
      return problem.str();
    }
  }
  for (Var v = 0; v < num_internal_vars(); ++v) {
    if ((assign_[v] != Value::unassigned) != (on_trail[v] != 0)) {
      problem << "assignment/trail mismatch for variable " << v;
      return problem.str();
    }
  }

  // Decision-level boundaries are monotone and within the trail.
  for (std::size_t i = 0; i < trail_lim_.size(); ++i) {
    if (trail_lim_[i] < 0 ||
        trail_lim_[i] > static_cast<int>(trail_.size())) {
      return "trail_lim out of range";
    }
    if (i > 0 && trail_lim_[i] < trail_lim_[i - 1]) {
      return "trail_lim not monotone";
    }
  }

  // Levels on the trail match the trail_lim structure.
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    int expected_level = 0;
    for (const int boundary : trail_lim_) {
      if (static_cast<int>(i) >= boundary) ++expected_level;
    }
    const Var v = trail_[i].var();
    if (level_[v] != expected_level) {
      problem << "level of trail[" << i << "] (var " << v << ") is "
              << level_[v] << ", expected " << expected_level;
      return problem.str();
    }
  }

  // --- literal-indexed assignment mirror ----------------------------------
  if (assign_lit_.size() != 2 * assign_.size()) {
    return "assign_lit size is not twice assign size";
  }
  for (Var v = 0; v < num_internal_vars(); ++v) {
    for (const Lit l : {Lit::positive(v), Lit::negative(v)}) {
      if (assign_lit_[l.code()] != value_of_literal(assign_[v], l)) {
        problem << "literal-indexed assignment of " << describe_lit(l)
                << " disagrees with the variable-indexed truth value";
        return problem.str();
      }
    }
  }

  // --- watch pool structure ------------------------------------------------
  const auto check_pool = [&](const auto& pool, const char* what) -> std::string {
    if (pool.num_literals() != 2 * assign_.size()) {
      return std::string(what) + " pool span table size mismatch";
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> regions;  // offset, cap
    for (std::size_t code = 0; code < pool.num_literals(); ++code) {
      const auto& s = pool.span(code);
      if (s.len > s.cap) {
        return std::string(what) + " span length exceeds its capacity";
      }
      if (static_cast<std::size_t>(s.offset) + s.cap > pool.pool_slots()) {
        return std::string(what) + " span reaches past the end of the pool";
      }
      if (s.cap != 0) regions.emplace_back(s.offset, s.cap);
    }
    std::sort(regions.begin(), regions.end());
    for (std::size_t i = 1; i < regions.size(); ++i) {
      if (regions[i - 1].first + regions[i - 1].second > regions[i].first) {
        return std::string(what) + " spans overlap";
      }
    }
    return "";
  };
  for (const std::string& fault :
       {check_pool(watches_, "long-clause watch"),
        check_pool(bin_watches_, "binary watch")}) {
    if (!fault.empty()) return fault;
  }

  // --- clause database ----------------------------------------------------
  // Each stored long clause must appear in exactly the two pool spans of
  // its first two literals' negations; each stored binary clause in exactly
  // the two binary watch lists its literals' negations key, carrying the
  // other literal inline.
  std::map<ClauseRef, int> watch_count;
  std::map<ClauseRef, int> bin_count;
  for (Var v = 0; v < num_internal_vars(); ++v) {
    for (const Lit l : {Lit::positive(v), Lit::negative(v)}) {
      const std::uint32_t base = watches_.offset(l.code());
      for (std::uint32_t i = 0; i < watches_.size(l.code()); ++i) {
        const Watcher& w = watches_.at(base + i);
        ++watch_count[w.cref];
        const Clause c = arena_.deref(w.cref);
        if (c.size() < 3) {
          return "two-literal clause stored in the long-clause watch pool";
        }
        // The watched (false-triggering) literal must be c[0] or c[1].
        if (~c[0] != l && ~c[1] != l) {
          problem << "clause watched on a non-watch literal "
                  << describe_lit(l);
          return problem.str();
        }
      }
      const std::uint32_t bin_base = bin_watches_.offset(l.code());
      for (std::uint32_t i = 0; i < bin_watches_.size(l.code()); ++i) {
        const BinWatch& w = bin_watches_.at(bin_base + i);
        ++bin_count[w.cref];
        const Clause c = arena_.deref(w.cref);
        if (c.size() != 2) {
          return "longer clause stored in a binary watch list";
        }
        const Lit triggering = ~l;
        if (!((c[0] == triggering && c[1] == w.other) ||
              (c[1] == triggering && c[0] == w.other))) {
          problem << "binary watch entry under " << describe_lit(l)
                  << " does not match its arena clause";
          return problem.str();
        }
      }
    }
  }

  const auto check_stored = [&](ClauseRef ref, bool learned) -> std::string {
    const Clause c = arena_.deref(ref);
    if (c.size() < 2) return "stored clause shorter than 2 literals";
    if (c.learned() != learned) return "learned flag mismatch";
    if (c.size() == 2) {
      const auto it = bin_count.find(ref);
      if (it == bin_count.end() || it->second != 2) {
        return "binary clause not in exactly two binary watch lists";
      }
      if (watch_count.count(ref) != 0) {
        return "binary clause also present in the long-clause watch pool";
      }
    } else {
      const auto it = watch_count.find(ref);
      if (it == watch_count.end() || it->second != 2) {
        return "clause not watched exactly twice";
      }
      if (bin_count.count(ref) != 0) {
        return "long clause also present in a binary watch list";
      }
    }
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      const Var v = c[i].var();
      if (v < 0 || v >= num_internal_vars()) return "clause literal with bad variable";
    }
    return "";
  };

  for (const ClauseRef ref : originals_) {
    const std::string fault = check_stored(ref, false);
    if (!fault.empty()) return fault + " (original)";
  }
  for (const ClauseRef ref : learned_stack_) {
    const std::string fault = check_stored(ref, true);
    if (!fault.empty()) return fault + " (learned)";
  }
  std::size_t stored = originals_.size() + learned_stack_.size();
  if (watch_count.size() + bin_count.size() != stored) {
    problem << "watch lists reference " << watch_count.size() + bin_count.size()
            << " clauses, but " << stored << " are stored";
    return problem.str();
  }
  if (satisfied_cache_.size() != learned_stack_.size()) {
    return "satisfied_cache size mismatch";
  }

  // --- incremental groups / variable numbering -----------------------------
  if (is_selector_.size() != assign_.size()) {
    return "is_selector size mismatch";
  }
  if (int2ext_.size() != assign_.size()) {
    return "int2ext size mismatch";
  }
  for (std::size_t u = 0; u < ext2int_.size(); ++u) {
    const Var internal = ext2int_[u];
    if (internal < 0 || internal >= num_internal_vars()) {
      return "external variable maps outside the internal range";
    }
    if (is_selector_[static_cast<std::size_t>(internal)]) {
      return "external variable maps to a selector";
    }
    if (int2ext_[static_cast<std::size_t>(internal)] !=
        static_cast<Var>(u)) {
      return "ext2int/int2ext disagree";
    }
  }
  for (Var v = 0; v < num_internal_vars(); ++v) {
    if (is_selector_[static_cast<std::size_t>(v)]) {
      if (int2ext_[static_cast<std::size_t>(v)] != no_var) {
        return "selector variable has an external image";
      }
      if (var_heap_.contains(v)) {
        return "selector variable present in the decision heap";
      }
    } else if (int2ext_[static_cast<std::size_t>(v)] == no_var) {
      return "non-selector variable lacks an external image";
    }
  }
  if (group_ids_.size() != group_selectors_.size() ||
      group_active_.size() != group_selectors_.size()) {
    return "live-group vectors disagree in size";
  }
  for (std::size_t i = 0; i < group_ids_.size(); ++i) {
    if (group_ids_[i] < 0 || group_ids_[i] >= next_group_id_) {
      return "group id outside the issued range";
    }
    for (std::size_t j = i + 1; j < group_ids_.size(); ++j) {
      if (group_ids_[i] == group_ids_[j]) return "duplicate live group id";
      if (group_selectors_[i] == group_selectors_[j]) {
        return "two live groups share a selector";
      }
    }
  }
  for (const Lit s : group_selectors_) {
    if (!s.is_positive() || s.var() < 0 || s.var() >= num_internal_vars() ||
        !is_selector_[static_cast<std::size_t>(s.var())]) {
      return "group stack holds a non-selector literal";
    }
    // A live selector may be unassigned, assumed false during a solve,
    // or forced true when the formula implies the group is contradictory;
    // a root-level FALSE selector would mean someone asserted ~s, which no
    // clause can do.
    if (decision_level() == 0 && value(s) == Value::false_value) {
      return "live group selector is false at the root";
    }
  }
  // Free-list selectors (popped groups) must be fully detached: unassigned,
  // no external image, out of the heaps, distinct from every live selector,
  // and mentioned by no stored clause (checked below via selector_in_use).
  std::vector<char> selector_free(static_cast<std::size_t>(num_internal_vars()),
                                  0);
  for (const Var v : free_selectors_) {
    if (v < 0 || v >= num_internal_vars() ||
        !is_selector_[static_cast<std::size_t>(v)]) {
      return "free-list holds a non-selector variable";
    }
    if (selector_free[static_cast<std::size_t>(v)]) {
      return "selector variable appears twice in the free-list";
    }
    selector_free[static_cast<std::size_t>(v)] = 1;
    if (assign_[static_cast<std::size_t>(v)] != Value::unassigned) {
      return "free-list selector is assigned";
    }
    if (var_heap_.contains(v)) {
      return "free-list selector present in the decision heap";
    }
    for (const Lit s : group_selectors_) {
      if (s.var() == v) return "free-list selector backs a live group";
    }
  }
  const auto check_no_free_selector = [&](ClauseRef ref) -> bool {
    const Clause c = arena_.deref(ref);
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      if (selector_free[static_cast<std::size_t>(c[i].var())]) return false;
    }
    return true;
  };
  for (const ClauseRef ref : originals_) {
    if (!check_no_free_selector(ref)) {
      return "stored clause mentions a recycled selector (original)";
    }
  }
  for (const ClauseRef ref : learned_stack_) {
    if (!check_no_free_selector(ref)) {
      return "stored clause mentions a recycled selector (learned)";
    }
  }
  // Selector literals only ever occur positively: the group clauses carry
  // s, learned clauses inherit s, and nothing holds ~s — the property the
  // pop-time retraction and retention argument rests on.
  const auto check_selector_polarity = [&](ClauseRef ref) -> bool {
    const Clause c = arena_.deref(ref);
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      if (is_selector_[static_cast<std::size_t>(c[i].var())] &&
          c[i].is_negative()) {
        return false;
      }
    }
    return true;
  };
  for (const ClauseRef ref : originals_) {
    if (!check_selector_polarity(ref)) {
      return "stored clause contains a negated selector (original)";
    }
  }
  for (const ClauseRef ref : learned_stack_) {
    if (!check_selector_polarity(ref)) {
      return "stored clause contains a negated selector (learned)";
    }
  }

  // --- reasons --------------------------------------------------------------
  for (Var v = 0; v < num_internal_vars(); ++v) {
    if (assign_[v] == Value::unassigned && bin_reason_other_[v] != undef_lit) {
      problem << "unassigned variable " << v << " has a stale binary reason";
      return problem.str();
    }
  }
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit l = trail_[i];
    const ClauseRef reason = reason_[l.var()];
    if (reason == no_clause) {
      if (bin_reason_other_[l.var()] != undef_lit) {
        problem << "decision/root literal " << describe_lit(l)
                << " has a binary reason literal";
        return problem.str();
      }
      continue;
    }
    const Clause c = arena_.deref(reason);
    const Lit bin_other = bin_reason_other_[l.var()];
    if (bin_other != undef_lit) {
      // Binary fast path: the arena clause is untouched during propagation,
      // so slots are unordered — it must simply be {l, bin_other}.
      if (c.size() != 2 ||
          !((c[0] == l && c[1] == bin_other) ||
            (c[1] == l && c[0] == bin_other))) {
        problem << "materialized binary reason of " << describe_lit(l)
                << " does not match its arena clause";
        return problem.str();
      }
      if (value(bin_other) != Value::false_value) {
        problem << "binary reason of " << describe_lit(l)
                << " has a non-false other literal";
        return problem.str();
      }
      continue;
    }
    if (c[0] != l) {
      problem << "reason clause of " << describe_lit(l)
              << " does not propagate it in slot 0";
      return problem.str();
    }
    for (std::uint32_t k = 1; k < c.size(); ++k) {
      if (value(c[k]) != Value::false_value) {
        problem << "reason clause of " << describe_lit(l)
                << " has a non-false tail literal";
        return problem.str();
      }
    }
  }

  // After complete propagation (the only state this checker is meant to
  // see), no stored clause may be falsified or unit. Once the formula has
  // been proven unsatisfiable a falsified root-level clause is exactly
  // what remains, so the check applies only while ok() holds.
  if (ok_ && propagate_head_ == trail_.size()) {
    const auto check_propagated = [&](ClauseRef ref) -> bool {
      const Clause c = arena_.deref(ref);
      int free_count = 0;
      for (std::uint32_t i = 0; i < c.size(); ++i) {
        const Value v = value(c[i]);
        if (v == Value::true_value) return true;
        if (v == Value::unassigned) ++free_count;
      }
      return free_count >= 2;
    };
    for (const ClauseRef ref : originals_) {
      if (!check_propagated(ref)) {
        return "original clause falsified or unit after propagation";
      }
    }
    for (const ClauseRef ref : learned_stack_) {
      if (!check_propagated(ref)) {
        return "learned clause falsified or unit after propagation";
      }
    }
  }
  return "";
}

}  // namespace berkmin
