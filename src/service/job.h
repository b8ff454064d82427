// Job types for the time-sliced SolverService.
//
// A job is one SAT query — a CNF, optional assumptions, and per-job
// limits — submitted to the service's bounded queue. The service reports
// progress through JobState (the lifecycle queued → running → preempted →
// done/cancelled; preempted jobs re-enter the run queue with all solver
// state intact) and delivers a JobResult once the job reaches a terminal
// state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/options.h"
#include "core/solver_types.h"
#include "proof/proof.h"

namespace berkmin::service {

using JobId = std::uint64_t;
inline constexpr JobId invalid_job = 0;

// Handle of an incremental job session (SolverService::open_session): a
// persistent solver that accepts push/pop/add/solve operations across many
// queries, keeping learned clauses, activities and saved polarities warm
// between them.
using SessionId = std::uint64_t;
inline constexpr SessionId invalid_session = 0;

// Lifecycle of a job inside the service. `preempted` means a slice budget
// expired with the query still open: the job keeps its solver (learned
// clauses, activities, polarities) and waits in the run queue for its next
// slice. Terminal states are done and cancelled.
enum class JobState : std::uint8_t {
  queued,     // waiting for its first slice
  running,    // a worker is inside solve() for this job
  preempted,  // between slices, waiting in the run queue
  done,       // result available (including deadline/budget expiry)
  cancelled,  // cancel() or a non-draining shutdown got there first
};

const char* to_string(JobState state);

// How a job reached a terminal state.
enum class JobOutcome : std::uint8_t {
  completed,         // definitive SAT/UNSAT answer
  budget_exhausted,  // the per-job conflict budget ran out (status unknown)
  deadline_expired,  // the wall-clock deadline passed (status unknown)
  cancelled,         // cancel() or non-draining shutdown
  error,             // the engine failed to build or load, or its slices
                     // kept dying (see JobResult::error)
  unsupported,       // the request combines features the service cannot
                     // serve yet (see JobResult::error), e.g. proof logging
                     // on a multi-threaded incremental session
};

const char* to_string(JobOutcome outcome);

// Per-job limits. All zero/default means "run to completion".
struct JobLimits {
  // Total conflicts across all slices (0 = unlimited).
  std::uint64_t max_conflicts = 0;
  // Wall-clock deadline measured from submission (0 = none). A job past
  // its deadline reports status unknown with outcome deadline_expired; its
  // solver is discarded, never poisoned — resubmitting the query works.
  double deadline_seconds = 0.0;
  // Escalation: > 1 solves the job through a warm PortfolioSolver with
  // this many racing workers instead of a single Solver. The portfolio is
  // sliced exactly like a sequential job.
  int threads = 1;
  // Higher-priority jobs are scheduled first; equal priorities time-slice
  // fairly with aging (see SolverService's scheduler).
  int priority = 0;
};

// Per-job proof options. `log` records the job's DRAT trace — across
// every slice of a preempted job, and spliced across workers for
// portfolio-escalated jobs — and ships it in JobResult::proof when the
// answer is UNSAT. `check` additionally verifies the trace with the
// in-tree proof::DratChecker before the result is delivered; `core`
// extracts the original-clause unsatisfiable core from the checked,
// trimmed trace. check implies log, core implies both.
struct JobProofOptions {
  bool log = false;
  bool check = false;
  bool core = false;

  bool wanted() const { return log || check || core; }
  bool verify() const { return check || core; }
};

// Configuration of an incremental session. Each session_query() runs like
// a job (sliced, preemptible, bounded by its limits) on its engine.
struct SessionRequest {
  std::string name;  // echoed in per-solve results; defaults to "session-<id>"
  SolverOptions options = SolverOptions::berkmin();
  // Escalation: > 1 serves the session with a warm PortfolioSolver whose
  // workers replay every push/pop/add and race each solve.
  int threads = 1;
  // Per-answer proof artifacts. The session accumulates one DRAT trace
  // (selectors elided) across all its queries; a session answer carries
  // the verdict only (JobResult::proof_checked / proof_valid), never that
  // cumulative trace, so JobResult::proof stays empty. With `check` it keeps
  // one live resumable proof::DratChecker that follows every clause and
  // group operation: each trace step is verified once, against the
  // formula it was derived from, and an UNSAT answer holds when the
  // clause ¬(failed-assumption core) is RUP over the checker's live
  // database (for an empty core, the database is in root conflict).
  // Lemmas stay valid only while every group their derivations rested on
  // is live and active, whatever the solver itself deletes. `core` is not
  // supported for sessions (the input formula changes between answers)
  // and is ignored. Proof logging requires
  // threads == 1 for now: certifying per-answer incremental checks over a
  // spliced warm-worker trace needs deterministic portfolio replay, which
  // has not landed yet. open_session still accepts the combo, but every
  // solve on such a session reports JobOutcome::unsupported (with the
  // reason in JobResult::error) instead of an uncertified answer.
  JobProofOptions proof;
};

struct JobRequest {
  std::string name;  // echoed in results; defaults to "job-<id>"
  Cnf cnf;
  std::vector<Lit> assumptions;
  JobLimits limits;
  JobProofOptions proof;
  SolverOptions options = SolverOptions::berkmin();
};

struct JobResult {
  JobId id = invalid_job;
  // Set when this result answers a session_query(); state(), wait() and
  // cancel() do not know its id.
  SessionId session = invalid_session;
  std::string name;
  SolveStatus status = SolveStatus::unknown;
  JobOutcome outcome = JobOutcome::completed;
  std::string error;  // outcome == error: what went wrong

  // Valid when status is satisfiable / unsatisfiable respectively.
  std::vector<Value> model;
  // For UNSAT-under-assumptions answers this is the failed-assumption
  // core: a subset of the submitted assumptions that already suffices for
  // the conflict (Solver::analyze_final).
  std::vector<Lit> failed_assumptions;

  // Proof artifacts (JobProofOptions). The trace is present for
  // assumption-free UNSAT answers of proof-logged one-shot jobs (session
  // answers carry the verdict only); proof_checked /
  // proof_valid report the in-tree verification, and unsat_core holds
  // indices into the submitted formula's clauses() (set only when `core`
  // was requested and the check succeeded).
  proof::Proof proof;
  bool proof_checked = false;
  bool proof_valid = false;
  std::vector<std::size_t> unsat_core;

  // Scheduling + work accounting, summed over every slice.
  std::uint32_t slices = 0;
  std::uint32_t preemptions = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t learned_clauses = 0;
  // Database shape at the end of the job (winner's, for portfolio jobs);
  // zero when the job never ran a slice.
  std::uint64_t max_live_clauses = 0;
  std::uint64_t initial_clauses = 0;
  // Import-dedupe observability: identical binaries dropped at
  // import_clause time, summed over portfolio workers (zero for
  // single-solver jobs, which never import).
  std::uint64_t duplicate_binaries_skipped = 0;
  double queue_seconds = 0.0;  // submit → first slice
  double solve_seconds = 0.0;  // time inside solve() slices
  double wall_seconds = 0.0;   // submit → terminal state
};

}  // namespace berkmin::service
