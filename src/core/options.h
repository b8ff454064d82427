// Every heuristic the paper describes — and every ablation its evaluation
// tables toggle — is a value in SolverOptions or, where no configuration
// varies it, a named constant here. The presets at the bottom name the
// exact configurations the paper's experiments compare, and are the only
// search configurations the CLIs select.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace berkmin {

// Section 5. How the next branching variable is picked.
enum class DecisionPolicy : std::uint8_t {
  // BerkMin: the most active free variable of the current top clause (the
  // unsatisfied conflict clause closest to the top of the stack); falls
  // back to the globally most active free variable when every conflict
  // clause is satisfied.
  berkmin_top_clause,
  // "Less_mobility" ablation (Table 2): always the globally most active
  // free variable, activities still computed BerkMin's way.
  global_activity,
  // Chaff: the free literal with the highest literal counter; the literal
  // itself fixes the assignment.
  chaff_literal,
};

// Section 4. How var_activity is updated at a conflict.
enum class ActivityPolicy : std::uint8_t {
  // BerkMin: +1 per occurrence of a literal of the variable in each clause
  // responsible for the conflict (the whole reverse-BCP resolution chain).
  responsible_clauses,
  // "Less_sensitivity" ablation (Table 1): +1 only for variables whose
  // literal appears in the final conflict clause.
  conflict_clause_only,
};

// Section 7. Which value the chosen top-clause variable gets first.
enum class PolarityPolicy : std::uint8_t {
  symmetrize,  // BerkMin: counter-balance restart asymmetry via lit_activity
  sat_top,     // always satisfy the current top clause
  unsat_top,   // always falsify the chosen literal of the top clause
  take_0,      // always assign 0
  take_1,      // always assign 1
  take_rand,   // uniform coin
};

// Section 8. What survives the clause-database cleanup at a restart.
enum class ReductionPolicy : std::uint8_t {
  // BerkMin: young clauses kept if short-ish or somewhat active; old
  // clauses kept only if very short or very active (rising threshold).
  berkmin,
  // GRASP-style "limited_keeping" ablation (Table 5): keep exactly the
  // clauses no longer than a length threshold.
  limited_keeping,
};

enum class RestartPolicy : std::uint8_t {
  fixed_interval,  // the paper's "primitive" strategy
  luby,            // extension (the paper's future-work direction)
  none,
};

// Search constants no preset varies.
// Conflicts per unit of the Luby restart sequence (RestartPolicy::luby).
inline constexpr std::uint32_t kLubyUnit = 100;
// Divisor of the variable activities at each aging step.
inline constexpr std::uint32_t kVarDecayFactor = 2;
// Branch selection on initial-formula decisions (Section 7): nb_two's
// computation stops once the estimate exceeds this threshold.
inline constexpr std::uint32_t kNbTwoThreshold = 100;
// Growth of the old-clause activity threshold per BerkMin reduction.
inline constexpr std::uint32_t kThresholdIncrement = 1;

// Inprocessing (src/core/inprocess.*): simplification passes run at
// restart boundaries, every rewrite logged to the attached ProofWriter as
// DRAT add-before-delete pairs. All passes are skipped automatically while
// clause groups (selectors) are active — group clauses may be retracted
// later, so conclusions drawn from them must not delete or rewrite
// group-independent clauses.
struct InprocessOptions {
  bool enabled = false;
  // Restarts between passes (the first pass runs at the interval-th
  // restart).
  std::uint32_t interval_restarts = 4;
  // Bounded variable elimination. Off by default even when inprocessing is
  // enabled: eliminating a variable is only sound while the caller can
  // never mention it again (no later add_clause / assumptions on it), which
  // single-shot CLI solving guarantees but the incremental API does not.
  bool var_elim = false;
};

struct SolverOptions {
  DecisionPolicy decision_policy = DecisionPolicy::berkmin_top_clause;
  ActivityPolicy activity_policy = ActivityPolicy::responsible_clauses;
  PolarityPolicy polarity_policy = PolarityPolicy::symmetrize;
  ReductionPolicy reduction_policy = ReductionPolicy::berkmin;
  RestartPolicy restart_policy = RestartPolicy::fixed_interval;

  // Restarts: conflicts between restarts under fixed_interval (luby reads
  // kLubyUnit instead).
  std::uint32_t restart_interval = 550;

  // Variable-activity aging ("conflict clause aging" inherited from
  // Chaff): every var_decay_interval conflicts the counters are divided by
  // kVarDecayFactor. The paper describes the mechanism but gives no
  // constants for BerkMin itself; halving every 256 conflicts is what the
  // Chaff paper documents.
  std::uint32_t var_decay_interval = 256;  // conflicts between decays

  // Chaff-like literal counters (used by DecisionPolicy::chaff_literal),
  // halved every lit_decay_interval conflicts.
  std::uint32_t lit_decay_interval = 256;

  // Database management (Section 8). A learned clause whose distance from
  // the top of the stack is less than stack_size * young_num / young_den
  // is young. Keep rules use the paper's constants: young clauses survive
  // if length < 43 or activity > 7; old clauses survive if length < 9 or
  // activity > threshold, with the threshold starting at 60 and growing by
  // kThresholdIncrement at each reduction. These stay settable so tests
  // can reach the young/old partition with a handful of clauses.
  std::uint32_t young_fraction_num = 15;
  std::uint32_t young_fraction_den = 16;
  std::uint32_t young_keep_max_length = 42;
  std::uint32_t young_keep_min_activity = 8;
  std::uint32_t old_keep_max_length = 8;
  std::uint32_t old_activity_threshold = 60;
  // Length threshold for ReductionPolicy::limited_keeping (GRASP-like);
  // the paper's comparison used 42, the same as the young-clause limit.
  std::uint32_t limited_keeping_max_length = 42;

  // Extensions beyond the paper (all off in every preset).
  bool minimize_learned = false;      // conflict-clause minimization
  std::uint32_t top_clause_window = 1;  // Remark 2: consider K top clauses
  InprocessOptions inprocess;         // restart-time simplification

  std::uint64_t seed = 0;  // randomized tie-breaking (take_rand, nb_two ties)

  // --- presets matching the paper's experiments -------------------------
  static SolverOptions berkmin();     // BerkMin56 as described
  static SolverOptions chaff_like();  // the zChaff stand-in (Tables 6-10)
  static SolverOptions limmat_like(); // third solver of Table 10

  // Ablations (each = berkmin() with exactly one feature degraded).
  static SolverOptions less_sensitivity();  // Table 1
  static SolverOptions less_mobility();     // Table 2
  static SolverOptions with_polarity(PolarityPolicy policy);  // Table 4
  static SolverOptions limited_keeping();   // Table 5

  std::string describe() const;
};

// The presets selectable by name (every CLI's --preset): the paper's
// solvers, the table ablations and the Table 4 polarity policies.
std::vector<std::string_view> preset_names();
// preset_names() joined by ", ", for help texts and error messages.
std::string preset_list();
// The preset called `name`, or nullopt when no preset has that name.
std::optional<SolverOptions> preset_by_name(std::string_view name);

}  // namespace berkmin
