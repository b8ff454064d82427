#include "core/options.h"

namespace berkmin {

SolverOptions SolverOptions::berkmin() { return SolverOptions{}; }

SolverOptions SolverOptions::chaff_like() {
  SolverOptions o;
  o.decision_policy = DecisionPolicy::chaff_literal;
  o.activity_policy = ActivityPolicy::conflict_clause_only;
  // Chaff has no separate polarity heuristic: the chosen literal is made
  // true. polarity_policy is unused under chaff_literal decisions.
  // The paper notes Chaff's database management "is similar to GRASP's".
  o.reduction_policy = ReductionPolicy::limited_keeping;
  return o;
}

SolverOptions SolverOptions::limmat_like() {
  SolverOptions o;
  o.decision_policy = DecisionPolicy::chaff_literal;
  o.activity_policy = ActivityPolicy::conflict_clause_only;
  o.reduction_policy = ReductionPolicy::limited_keeping;
  // limmat restarts far less eagerly and decays more slowly than Chaff.
  o.restart_interval = 10000;
  o.lit_decay_interval = 1024;
  o.limited_keeping_max_length = 100;
  return o;
}

SolverOptions SolverOptions::less_sensitivity() {
  SolverOptions o;
  o.activity_policy = ActivityPolicy::conflict_clause_only;
  return o;
}

SolverOptions SolverOptions::less_mobility() {
  SolverOptions o;
  o.decision_policy = DecisionPolicy::global_activity;
  return o;
}

SolverOptions SolverOptions::with_polarity(PolarityPolicy policy) {
  SolverOptions o;
  o.polarity_policy = policy;
  return o;
}

SolverOptions SolverOptions::limited_keeping() {
  SolverOptions o;
  o.reduction_policy = ReductionPolicy::limited_keeping;
  return o;
}

namespace {

const char* name_of(DecisionPolicy p) {
  switch (p) {
    case DecisionPolicy::berkmin_top_clause: return "berkmin_top_clause";
    case DecisionPolicy::global_activity: return "global_activity";
    case DecisionPolicy::chaff_literal: return "chaff_literal";
  }
  return "?";
}

const char* name_of(ActivityPolicy p) {
  switch (p) {
    case ActivityPolicy::responsible_clauses: return "responsible_clauses";
    case ActivityPolicy::conflict_clause_only: return "conflict_clause_only";
  }
  return "?";
}

const char* name_of(PolarityPolicy p) {
  switch (p) {
    case PolarityPolicy::symmetrize: return "symmetrize";
    case PolarityPolicy::sat_top: return "sat_top";
    case PolarityPolicy::unsat_top: return "unsat_top";
    case PolarityPolicy::take_0: return "take_0";
    case PolarityPolicy::take_1: return "take_1";
    case PolarityPolicy::take_rand: return "take_rand";
  }
  return "?";
}

const char* name_of(ReductionPolicy p) {
  switch (p) {
    case ReductionPolicy::berkmin: return "berkmin";
    case ReductionPolicy::limited_keeping: return "limited_keeping";
  }
  return "?";
}

const char* name_of(RestartPolicy p) {
  switch (p) {
    case RestartPolicy::fixed_interval: return "fixed_interval";
    case RestartPolicy::luby: return "luby";
    case RestartPolicy::none: return "none";
  }
  return "?";
}

template <PolarityPolicy policy>
SolverOptions polarity_preset() {
  return SolverOptions::with_polarity(policy);
}

struct NamedPreset {
  std::string_view name;
  SolverOptions (*make)();
};

constexpr NamedPreset kPresets[] = {
    {"berkmin", &SolverOptions::berkmin},
    {"chaff", &SolverOptions::chaff_like},
    {"limmat", &SolverOptions::limmat_like},
    {"less_sensitivity", &SolverOptions::less_sensitivity},
    {"less_mobility", &SolverOptions::less_mobility},
    {"limited_keeping", &SolverOptions::limited_keeping},
    {"sat_top", &polarity_preset<PolarityPolicy::sat_top>},
    {"unsat_top", &polarity_preset<PolarityPolicy::unsat_top>},
    {"take_0", &polarity_preset<PolarityPolicy::take_0>},
    {"take_1", &polarity_preset<PolarityPolicy::take_1>},
    {"take_rand", &polarity_preset<PolarityPolicy::take_rand>},
};

}  // namespace

std::string SolverOptions::describe() const {
  std::string out;
  out += "decision=";
  out += name_of(decision_policy);
  out += " activity=";
  out += name_of(activity_policy);
  out += " polarity=";
  out += name_of(polarity_policy);
  out += " reduction=";
  out += name_of(reduction_policy);
  out += " restart=";
  out += name_of(restart_policy);
  // The parameter the policy actually reads (none reads nothing).
  if (restart_policy == RestartPolicy::fixed_interval) {
    out += "(" + std::to_string(restart_interval) + ")";
  } else if (restart_policy == RestartPolicy::luby) {
    out += "(" + std::to_string(kLubyUnit) + ")";
  }
  if (minimize_learned) out += " minimize";
  if (top_clause_window > 1) {
    out += " window=" + std::to_string(top_clause_window);
  }
  if (inprocess.enabled) {
    out += " inprocess(every=";
    out += std::to_string(inprocess.interval_restarts);
    out += inprocess.var_elim ? ",elim" : "";
    out += ")";
  }
  return out;
}

std::vector<std::string_view> preset_names() {
  std::vector<std::string_view> names;
  for (const NamedPreset& preset : kPresets) names.push_back(preset.name);
  return names;
}

std::string preset_list() {
  std::string out;
  for (const NamedPreset& preset : kPresets) {
    if (!out.empty()) out += ", ";
    out += preset.name;
  }
  return out;
}

std::optional<SolverOptions> preset_by_name(std::string_view name) {
  for (const NamedPreset& preset : kPresets) {
    if (preset.name == name) return preset.make();
  }
  return std::nullopt;
}

}  // namespace berkmin
