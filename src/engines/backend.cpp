#include "engines/backend.h"

#include <utility>

namespace berkmin::engines {

// ---- SolverBackend ----------------------------------------------------

SolverBackend::SolverBackend(SatEngine& engine)
    : owned_(std::make_unique<proof::LiveCertifier>(engine, false, false)),
      certifier_(*owned_) {}

Var SolverBackend::new_vars(int n) {
  Var first = no_var;
  for (int i = 0; i < n; ++i) {
    const Var v = engine().new_var();
    if (i == 0) first = v;
  }
  return first;
}

std::optional<GroupId> SolverBackend::apply(const icnf::Op& op) {
  const std::optional<GroupId> group = icnf::apply(certifier_, op);
  if (!group.has_value()) {
    error_ = std::string("SolverBackend: refused ") + icnf::to_string(op.kind);
  }
  return group;
}

SolveStatus SolverBackend::solve(std::span<const Lit> assumptions,
                                 const Budget& budget) {
  error_.clear();
  const SolveStatus status =
      engine().solve_with_assumptions(assumptions, budget);
  if (status == SolveStatus::unknown) {
    error_ = "SolverBackend: the engine stopped without an answer";
  }
  return status;
}

bool SolverBackend::model_value(Lit l) const {
  return value_of_literal(engine().model()[l.var()], l) == Value::true_value;
}

const std::vector<Lit>& SolverBackend::failed_assumptions() const {
  return engine().failed_assumptions();
}

bool SolverBackend::answer_certified() {
  return certifier_.checking() && certifier_.answer_certified();
}

// ---- SessionBackend ---------------------------------------------------

SessionBackend::SessionBackend(service::SolverService& service,
                               service::SessionRequest request)
    : service_(service), threads_(request.threads) {
  const auto id = service_.open_session(std::move(request));
  if (id.has_value()) {
    session_ = *id;
  } else {
    error_ = "SessionBackend: open_session refused (shutdown or pressure)";
  }
}

SessionBackend::~SessionBackend() {
  claim_.release();
  if (session_ != service::invalid_session) {
    (void)service_.close_session(session_);
  }
}

Var SessionBackend::new_vars(int n) {
  // Session solvers create external variables on demand when clauses or
  // assumptions mention them; the backend only hands out dense indices.
  const Var first = next_var_;
  next_var_ += n;
  return first;
}

std::optional<GroupId> SessionBackend::apply(const icnf::Op& op) {
  if (!claim_) claim_ = service_.claim_session(session_);
  const std::optional<GroupId> group = claim_.apply(op);
  if (!group.has_value()) {
    error_ = std::string("SessionBackend: refused ") + icnf::to_string(op.kind);
  }
  return group;
}

SolveStatus SessionBackend::solve(std::span<const Lit> assumptions,
                                  const Budget& budget) {
  error_.clear();
  claim_.release();
  if (budget.max_decisions != 0 || budget.max_propagations != 0) {
    // JobLimits counts only conflicts and seconds; answering past a budget
    // the session cannot enforce would overrun it silently.
    result_ = service::JobResult{};
    error_ = "SessionBackend: a session enforces only conflict and time "
             "budgets, not decision or propagation budgets";
    return SolveStatus::unknown;
  }
  service::JobLimits limits;
  limits.max_conflicts = budget.max_conflicts;
  limits.deadline_seconds = budget.max_seconds;
  if (!service_.session_query(session_, assumptions, limits, result_)) {
    result_ = service::JobResult{};
    error_ = "SessionBackend: session_query refused";
    return SolveStatus::unknown;
  }
  if (result_.outcome != service::JobOutcome::completed) {
    error_ = "SessionBackend: " + std::string(to_string(result_.outcome));
    if (!result_.error.empty()) error_ += ": " + result_.error;
    return SolveStatus::unknown;
  }
  return result_.status;
}

bool SessionBackend::model_value(Lit l) const {
  const auto v = static_cast<std::size_t>(l.var());
  if (v >= result_.model.size() || result_.model[v] == Value::unassigned) {
    return false;
  }
  return value_of_literal(result_.model[v], l) == Value::true_value;
}

const std::vector<Lit>& SessionBackend::failed_assumptions() const {
  return result_.failed_assumptions;
}

std::string SessionBackend::name() const {
  return "session(threads=" + std::to_string(threads_) + ")";
}

// ---- frame instantiation ----------------------------------------------

std::optional<FrameVars> instantiate_frame(EngineBackend& backend,
                                           const FrameTemplate& tmpl) {
  const Var offset = backend.new_vars(tmpl.cnf.num_vars());
  const auto shift = [offset](Lit l) {
    return Lit(l.var() + offset, l.is_negative());
  };
  std::vector<Lit> scratch;
  for (const auto clause : tmpl.cnf.clauses()) {
    scratch.clear();
    for (const Lit l : clause) scratch.push_back(shift(l));
    if (backend.refused(backend.add_clause(scratch))) return std::nullopt;
  }
  FrameVars vars;
  vars.inputs.reserve(tmpl.inputs.size());
  for (const Lit l : tmpl.inputs) vars.inputs.push_back(shift(l));
  vars.state.reserve(tmpl.state.size());
  for (const Lit l : tmpl.state) vars.state.push_back(shift(l));
  vars.next.reserve(tmpl.next.size());
  for (const Lit l : tmpl.next) vars.next.push_back(shift(l));
  vars.bad = shift(tmpl.bad);
  return vars;
}

const FrameVars* FrameStack::extend() {
  std::optional<FrameVars> vars = instantiate_frame(backend_, ts_.frame());
  if (!vars.has_value()) return nullptr;
  if (frames_.empty()) {
    // Frame 0 starts in the all-zero initial state.
    for (const Lit s : vars->state) {
      if (backend_.refused(backend_.add_unit(~s))) return nullptr;
    }
  } else {
    const FrameVars& prev = frames_.back();
    for (std::size_t j = 0; j < vars->state.size(); ++j) {
      if (backend_.refused(backend_.add_binary(~vars->state[j], prev.next[j])) ||
          backend_.refused(backend_.add_binary(vars->state[j], ~prev.next[j]))) {
        return nullptr;
      }
    }
  }
  frames_.push_back(std::move(*vars));
  return &frames_.back();
}

std::vector<std::vector<bool>> FrameStack::model_inputs() const {
  std::vector<std::vector<bool>> inputs;
  inputs.reserve(frames_.size());
  for (const FrameVars& frame : frames_) {
    std::vector<bool> cycle;
    cycle.reserve(frame.inputs.size());
    for (const Lit l : frame.inputs) cycle.push_back(backend_.model_value(l));
    inputs.push_back(std::move(cycle));
  }
  return inputs;
}

}  // namespace berkmin::engines
