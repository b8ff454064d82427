// SolverService: a multi-tenant, time-sliced SAT solving engine.
//
// Many formulas share a fixed number of slice slots. Jobs enter a bounded
// queue and are executed as Budget-bounded solve() slices (slice_conflicts
// conflicts at a time), so a short job submitted behind a hard one is never
// starved: after each slice the long job re-enters the run queue — keeping
// its learned clauses, variable activities and saved polarities, because
// the job's engine survives between slices and the core's budgets are
// per-call — and the scheduler picks the next job by consumed slices,
// explicit priority, and waiting-time aging.
//
// A slice runs on one of the service's worker threads, or on the thread of
// a caller blocked in wait() or session_query() for that very job: when the
// job is the scheduler's next pick and a slot is free, the caller runs the
// slice itself, so a synchronous query costs no thread hand-off.
// Either way at most num_workers slices run at once, in schedule order.
//
// Slice protocol: two holds of the service lock per slice. Dispatch takes
// the pick off the run queue; the slice builds, solves and certifies with
// no lock; settle, in the one re-lock its thread takes anyway, makes every
// decision (finish, preempt, retry, poison), frees or reuses the slot and,
// for a waiting caller, collects the answer. An uncontended session query
// thus locks twice. Completion callbacks run outside the lock, on the
// thread that finished the job, before its wait()/session_query() returns;
// a worker frees its slot only after the callback, so that the callbacks
// of one slot come in the order its jobs finished.
//
// Lifecycle: queued → running ⇄ preempted → done/cancelled. Individual
// jobs can be cancelled mid-slice (the slice stops at the solver's next
// search step); shutdown either drains the queue or cancels every
// unfinished job, exactly once each. Every result is collected once, by
// wait() or wait_all(), so the service holds a record only for a job that
// is unfinished or not yet collected.
//
// Typical use:
//   SolverService service({.num_workers = 4, .slice_conflicts = 2000});
//   JobRequest request;
//   request.cnf = formula;
//   request.limits.deadline_seconds = 1.0;
//   const JobId id = *service.submit(std::move(request));
//   const JobResult result = service.wait(id);
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cnf/icnf.h"
#include "core/sat_engine.h"
#include "proof/live_certifier.h"
#include "proof/proof_writer.h"
#include "service/job.h"
#include "telemetry/telemetry.h"
#include "util/timer.h"

namespace berkmin {
class Solver;
}

namespace berkmin::util {
class MemoryBudget;
}

namespace berkmin::service {

struct ServiceOptions {
  // Slice slots: at most this many slices run at once. Each slot has a
  // worker thread, and a caller waiting on its own job may fill a free slot
  // in the worker's place (see wait()).
  int num_workers = 4;
  // Bounded admission: the number of unfinished jobs (queued + running +
  // preempted) the service holds at once. submit() blocks while full;
  // try_submit() fails instead.
  std::size_t max_pending = 1024;
  // Conflicts per slice (0 = run every job to completion in one slice).
  std::uint64_t slice_conflicts = 2000;
  // Observability (src/telemetry): when set, the service registers latency
  // histograms ("service.slice_latency_ns", "service.job_wait_ns.<class>",
  // "service.session_solve_latency_ns") and live gauges on the hub, gives
  // every slice slot a trace ring ("svc-worker-<i>") plus a scheduler-owned
  // control ring ("svc-control") for job/session lifecycle events, and
  // attaches the slot's sink to the engine it is slicing, whichever thread
  // runs the slice. The hub must outlive the service.
  telemetry::Telemetry* telemetry = nullptr;
  // Per-slice wall-clock limit (0 = off; a nonzero limit is raised to at
  // least 1 ms), measured from the slice's dispatch, so an engine build or
  // a stall before the solve counts against it. What is left of it caps
  // the slice budget's max_seconds, like the deadline, and the solver stops
  // at its next clock check; a slice with nothing left is preempted before
  // it solves. Either way the job is preempted back into the run queue
  // with its search state kept (the stop is the resumable wall-clock one),
  // so a stalled slice cannot hold a slot for long. Such preemptions are
  // counted in ServiceStats::watchdog_fires; the job itself is not failed.
  double watchdog_seconds = 0.0;
  // Bounded retry for slices that die with an exception (a real bad_alloc
  // or an injected fault): the job's engine is discarded — mid-search
  // state is unrecoverable — and the job is re-queued to rebuild and
  // restart from its formula, at most this many times before it finishes
  // with JobOutcome::error. Session slices never retry (the persistent
  // engine cannot be rebuilt faithfully); a thrown session slice fails the
  // job and poisons the session with a structured reason instead.
  int max_slice_retries = 2;
  // Resource governor (util/memory_budget.h). When set, every job and
  // session engine charges its clause storage against this budget (the
  // core solver's set_memory_budget has the degradation ladder) and
  // admission refuses new jobs and sessions while the budget is critical —
  // submit/try_submit/open_session return nullopt and session_query false,
  // counted in ServiceStats::rejected_pressure — so load shedding happens at
  // the door instead of dying mid-solve. The budget must outlive the service.
  util::MemoryBudget* memory_budget = nullptr;
};

// Every monotone ServiceStats counter, defined once as X(field, metric):
// the struct member, and its counter "service.<metric>" in
// metrics_snapshot(). batch_solver --stats prints each under its field
// name.
//  * outcomes: submissions, try_submit refusals (full queue or after
//    shutdown), and finished jobs by outcome — definitive SAT/UNSAT, a
//    per-job conflict budget ran out, deadline, cancel, unloadable
//    formula, a feature combination the service cannot serve;
//  * scheduling: slices run, those of them run on a waiting caller's
//    thread instead of a worker's, preemptions, conflicts summed over
//    every slice of every job, and the peak number of pending jobs;
//  * incremental sessions: open_session() calls, the sessions built in a
//    closed session's solver and checker storage, session_query() queries
//    and clauses added through session_apply (its accepted adds);
//  * robustness (ServiceOptions watchdog / retries / budget): slices
//    preempted by the watchdog limit, slices that threw, dead slices
//    re-queued for retry, and admissions refused under memory pressure.
#define BERKMIN_SERVICE_COUNTERS(X)                                        \
  X(submitted, jobs_submitted) X(rejected, jobs_rejected)                  \
  X(completed, jobs_completed) X(budget_exhausted, jobs_budget_exhausted)  \
  X(deadline_expired, jobs_deadline_expired) X(cancelled, jobs_cancelled)  \
  X(errors, jobs_errors) X(unsupported, jobs_unsupported)                  \
  X(slices, slices) X(waiter_slices, waiter_slices)                        \
  X(preemptions, preemptions) X(conflicts, conflicts)                      \
  X(peak_pending, peak_pending)                                            \
  X(sessions_opened, sessions_opened) X(sessions_reused, sessions_reused)  \
  X(session_solves, session_solves)                                        \
  X(session_clauses_added, session_clauses_added)                          \
  X(watchdog_fires, watchdog_fires) X(slice_deaths, slice_deaths)          \
  X(slice_retries, slice_retries) X(rejected_pressure, rejected_pressure)

// Aggregate throughput counters, all monotone over the service lifetime.
struct ServiceStats {
#define BERKMIN_DECLARE_SERVICE_COUNTER(field, metric) std::uint64_t field = 0;
  BERKMIN_SERVICE_COUNTERS(BERKMIN_DECLARE_SERVICE_COUNTER)
#undef BERKMIN_DECLARE_SERVICE_COUNTER
  double solve_seconds = 0.0;  // total time inside solve() slices

  std::uint64_t finished() const {
    return completed + budget_exhausted + deadline_expired + cancelled +
           errors + unsupported;
  }
};

// The BERKMIN_SERVICE_COUNTERS list as data, for code that loops over it.
struct ServiceCounter {
  const char* field;
  const char* metric;  // exported as "service.<metric>"
  std::uint64_t ServiceStats::*member;
};
inline constexpr ServiceCounter kServiceCounters[] = {
#define BERKMIN_SERVICE_COUNTER_ENTRY(field, metric) \
  {#field, #metric, &ServiceStats::field},
    BERKMIN_SERVICE_COUNTERS(BERKMIN_SERVICE_COUNTER_ENTRY)
#undef BERKMIN_SERVICE_COUNTER_ENTRY
};

class SolverService {
  struct Session;

 public:
  explicit SolverService(ServiceOptions options = {});
  ~SolverService();  // shutdown(Shutdown::cancel_pending)

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  // ---- submission -------------------------------------------------------
  // Enqueues a job. submit() blocks while the service is at max_pending;
  // both return std::nullopt once shutdown has begun (and try_submit also
  // when the queue is full).
  std::optional<JobId> submit(JobRequest request);
  std::optional<JobId> try_submit(JobRequest request);

  // ---- incremental job sessions -----------------------------------------
  // A session is a persistent engine (one solver, or a warm portfolio for
  // threads > 1) living inside the service: the caller scripts it with
  // icnf::Op clause and group operations through session_apply() — the
  // same ops a .icnf script holds — and asks each query with
  // session_query(), which
  // the scheduler slices and preempts like any job — so thousands of
  // closely-related queries share one engine's learned clauses instead of
  // re-deriving them, while unrelated batch jobs keep flowing through the
  // same slice slots. A query runs in the session's one reusable record,
  // never in the job table: state(), wait() and cancel() do not know it.
  //
  // Discipline: a session is driven by one logical owner, who claims it
  // for each operation. Operations, a query and close are rejected (false
  // / nullopt) while a query or a claim is in flight, and everything is
  // rejected after close_session. All methods are thread-safe with respect
  // to the service itself and to other sessions.
  std::optional<SessionId> open_session(SessionRequest request);

  // The claim contract. A claim is taken under the service lock; while it
  // is held the session is the holder's alone, and every other
  // session_apply, session_query, close_session and claim_session on it is
  // refused as busy. apply() runs ops on the claimed session with no lock,
  // no session lookup and no atomic read-modify-write, so a run of clause
  // adds pays for one claim rather than one per clause. The claim ends when
  // it is released, destroyed or assigned over (one release store; only a
  // push or pop takes the lock again, for its control-ring event). It must
  // end before its holder asks a query or closes the session, and before
  // the service is destroyed. A claim is used by one thread at a time.
  class SessionClaim {
   public:
    SessionClaim() = default;
    SessionClaim(SessionClaim&& other) noexcept
        : service_(other.service_), session_(other.session_) {
      other.session_ = nullptr;
    }
    SessionClaim& operator=(SessionClaim&& other) noexcept {
      if (this != &other) {
        release();
        service_ = other.service_;
        session_ = other.session_;
        other.session_ = nullptr;
      }
      return *this;
    }
    ~SessionClaim() { release(); }

    // Whether a session is held (claim_session refuses a closed, busy or
    // unknown one).
    explicit operator bool() const { return session_ != nullptr; }
    // icnf::apply(certifier, op) on the session: its returns and refusals
    // (group handles are the engine's GroupIds, from 0), and nullopt for
    // every solve op (session_query asks) and without a session. Parking
    // a group parks its clauses, and whatever rests on them, in the
    // session's checker too.
    std::optional<GroupId> apply(const icnf::Op& op);
    // Ends the claim (a no-op without one).
    void release();

   private:
    friend class SolverService;
    SessionClaim(SolverService& service, Session& session)
        : service_(&service), session_(&session) {}

    SolverService* service_ = nullptr;
    Session* session_ = nullptr;
  };
  // Claims the open, idle session `id`; an empty claim when it is closed,
  // busy or unknown.
  SessionClaim claim_session(SessionId id);
  // One op under a claim of its own: claim_session(id).apply(op), so
  // nullopt for a closed or busy session too.
  std::optional<GroupId> session_apply(SessionId id, const icnf::Op& op);
  // Asks the session one query and blocks until it is answered. The query
  // is scheduled like a job (a job id, slices, preemption); its slices run
  // on the calling thread whenever a slot is free, so no worker is woken
  // for it then, and the assumptions are read in place. The answer, named
  // "<session>#<n>", lands in `result`, in the buffers it already holds,
  // and goes to the completion callback too. `limits` bounds the query by
  // deadline and conflicts (`threads` is ignored); a non-draining shutdown
  // cancels it. Returns false, leaving `result` as it was, for a refusal.
  bool session_query(SessionId id, std::span<const Lit> assumptions,
                     JobLimits limits, JobResult& result);
  // Releases the engine. Returns false while a query is in flight.
  bool close_session(SessionId id);
  std::size_t open_sessions() const;

  // ---- control ----------------------------------------------------------
  // Cancels one job. Returns true iff the job was still unfinished: a
  // queued/preempted job is cancelled immediately, a running job stops at
  // its solver's next search step. The result (outcome cancelled) is
  // delivered through wait()/the completion callback like any other.
  // Returns false for an unknown id, a collected one and a session query's.
  bool cancel(JobId id);

  // Ends the service. `drain` finishes every queued job first, though a
  // job that a caller is running in wait() may still be running on that
  // caller's thread when shutdown returns; `cancel_pending` cancels all
  // unfinished jobs and session queries (running ones stop at the next
  // search step). Idempotent; every job reaches exactly one terminal state
  // either way. The destructor uses cancel_pending.
  enum class Shutdown { drain, cancel_pending };
  void shutdown(Shutdown mode = Shutdown::drain);

  // ---- observation ------------------------------------------------------
  // Valid for an id returned by submit()/try_submit() until its result is
  // collected; any other id (unknown, collected, a session query's) throws
  // std::out_of_range.
  JobState state(JobId id) const;
  // Blocks until the job is terminal and collects its result: the record is
  // dropped, so the id is unknown from then on. While the job is the
  // scheduler's next pick and a slice slot is free, the caller runs the
  // job's slices on its own thread (ServiceStats::waiter_slices), else it
  // parks. Of several callers waiting on one id (or a wait_all() meanwhile)
  // the first back gets the result; the others throw std::out_of_range.
  JobResult wait(JobId id);
  // Blocks until every submitted job and session query is terminal, then
  // collects every one-shot result not yet collected, in id order.
  std::vector<JobResult> wait_all();

  // Invoked each time a job reaches a terminal state (including
  // cancellations of jobs that never ran), on the thread that finished it:
  // a worker, a caller whose wait() or session_query() ran the job's last
  // slice, or a caller of cancel() or shutdown(). It runs outside the lock;
  // on a caller, after the answer was collected and the session and slot
  // released, so what it throws reaches that caller, whose wait() result is
  // then lost. Set it before the first submit; the callback must not call
  // back into the service.
  using CompletionCallback = std::function<void(const JobResult&)>;
  void set_completion_callback(CompletionCallback callback);

  ServiceStats stats() const;
  const ServiceOptions& options() const { return opts_; }

  // Point-in-time metrics view, safe while jobs are running: the hub
  // snapshot (when a hub is configured — counters, histograms, phases)
  // with the exact lock-consistent ServiceStats merged in as "service.*"
  // counters. Works without a hub too (service counters only).
  telemetry::MetricsSnapshot metrics_snapshot() const;

 private:
  // The record of a query: a one-shot job, owned by jobs_ until collected,
  // or a session's, owned by the session and reused for each query.
  struct Job {
    JobId id = invalid_job;
    JobRequest request;
    // Terminal while the record holds no query in flight: a finished job,
    // or a session's idle record.
    JobState job_state = JobState::done;
    bool cancel_requested = false;

    // Scheduling.
    double deadline_point = 0.0;  // service-clock seconds; 0 = none
    std::uint64_t ready_since = 0;  // dispatch tick of the last enqueue
    double submit_time = 0.0;
    double first_slice_time = -1.0;
    // Robustness: when the running slice was dispatched (the watchdog limit
    // runs from here) and how many dead slices have been retried.
    double slice_start = 0.0;
    int fault_retries = 0;

    // What the slices solve under: request.assumptions, or a session
    // query's caller's own, which outlive the query's slices.
    std::span<const Lit> assumptions;

    // The owning session, whose engine the query runs on; null for a job.
    Session* session = nullptr;

    // A job's own engine, built by its first slice (a portfolio when
    // threads > 1) and reset when the job finishes to release memory.
    std::unique_ptr<SatEngine> engine;
    // Proof plumbing (JobProofOptions): attached to the job's engine when
    // it is built, so it holds the trace of every slice, whichever engine
    // runs them; the check reads request.cnf.
    std::unique_ptr<proof::MemoryProofWriter> proof_writer;

    JobResult result;
    bool finished() const {
      return job_state == JobState::done || job_state == JobState::cancelled;
    }

    // The engine the record solves on: the session's, else the job's own
    // (nullptr before the first slice built it).
    SatEngine* active_engine() const;
  };

  // One incremental session: the persistent engine, which owns the live
  // groups, and the certifier every clause and group operation goes
  // through. The certifier attaches the session's trace (proof.log) to the
  // engine, holds the live checker (proof.check) and keeps both in step
  // with the engine; without either it passes operations straight to the
  // engine (see proof/live_certifier.h).
  struct Session {
    Session(std::unique_ptr<SatEngine> built, bool log, bool check,
            std::unique_ptr<proof::DratChecker> spare_checker)
        : engine(std::move(built)),
          certifier(*engine, log, check, std::move(spare_checker)) {}

    SessionId id = invalid_session;
    SessionRequest request;
    std::unique_ptr<SatEngine> engine;
    proof::LiveCertifier certifier;
    // A query or a SessionClaim is in progress: whoever set it is the only
    // one to reach the engine and the query record. Claimed under lock_
    // (claim_session_locked); a claim releases it without the lock, a
    // query once its caller has collected the answer.
    std::atomic<bool> busy{false};
    // Clauses added through claims (ServiceStats::session_clauses_added),
    // written only by the claim holder; stats() sums it over the open
    // sessions and close_session folds it into stats_.
    std::atomic<std::uint64_t> clauses_added{0};
    // Non-empty when the session was opened with a feature combo the
    // service cannot serve yet (proof logging + threads > 1) or its engine
    // died mid-solve: mutations still maintain the session, but every
    // query finishes immediately with JobOutcome::unsupported carrying
    // this reason.
    std::string unsupported;
    std::uint64_t solves = 0;
    Job query;  // the record every query of the session runs in
  };

  void worker_loop();
  // The service clock, with injected clock-skew faults applied (the skew
  // only jumps forward; every consumer clamps derived durations at zero,
  // so a skewed read degrades into early deadline/watchdog expiry — a
  // structured outcome — never a hang or a negative-duration artifact).
  double now_seconds() const;
  // The one admission path of both kinds of record: refuses (and counts
  // the refusal) after shutdown, with the queue full or under memory
  // pressure; otherwise gives the record its id, clocks and deadline, and
  // queues it. It wakes no worker. Must hold lock_.
  bool admit_locked(Job& job);
  // submit()'s and try_submit()'s body: a new record admitted into jobs_,
  // and a worker woken for it while a slot is free. Must hold lock_.
  std::optional<JobId> submit_locked(JobRequest request);
  // Claims the open, idle session `id` by marking it busy: its entry in
  // sessions_, or null when it is busy or unknown. Must hold lock_.
  Session* claim_session_locked(SessionId id);
  // Ends a claim or a query; the next claimer sees everything the holder
  // did.
  static void release_session(Session& session) {
    session.busy.store(false, std::memory_order_release);
  }
  // What a finished job hands to deliver(), which runs outside the lock:
  // the completion callback with its payload (built only when a callback
  // is installed), and the job's formula and engine, freed there.
  struct Finished {
    CompletionCallback callback;
    JobResult result;
    Cnf cnf;
    std::vector<Lit> assumptions;
    std::unique_ptr<SatEngine> engine;
    std::unique_ptr<proof::MemoryProofWriter> proof_writer;
  };
  // What wait() and session_query() block in: runs the record's slices on
  // the calling thread (slice_step) while it is the scheduler's pick and a
  // slot is free, else parks, until the record is terminal. Takes and
  // returns `lk` locked with the slot already free, so the caller collects
  // the answer in the hold that settled it; returns what to deliver after
  // unlocking when this caller's slice finished the job.
  Finished run_until_finished(std::unique_lock<std::mutex>& lk, Job& job);
  // The storage of a closed one-thread session: its engine and checker,
  // which the next one-thread session is built in (make_engine's spare,
  // DratChecker::reset). A run of sessions then keeps one session's memory
  // instead of returning it to the allocator at every close and faulting
  // it back in at the next open.
  struct Spare {
    std::unique_ptr<SatEngine> engine;
    std::unique_ptr<proof::DratChecker> checker;
  };
  // Keeps a closing one-thread session's storage in spare_ when the slot
  // is free. Must hold lock_.
  void keep_spare_locked(Session& session);
  // The slice budget: the service-wide slice size clamped by what remains
  // of the job's conflict budget, deadline and watchdog limit; nullopt when
  // nothing remains of the watchdog limit. Called without the lock held.
  std::optional<Budget> slice_budget(const Job& job) const;
  // The scheduler's pick: the queued record with the best (lowest)
  // schedule key, or null when none is queued. The pick stays queued until
  // dispatched.
  Job* pick_ready_locked();
  double schedule_key_locked(const Job& job) const;
  // Queues a job. A requeued job needs no wake-up: its slice still holds a
  // slot, and releasing or reusing it follows.
  void enqueue_ready_locked(Job& job);
  // The first hold of a slice: takes the pick off the run queue, marks it
  // running and records its dispatch (tick, slice start — the clock read
  // the slice's pre-flight and watchdog limit use — first-slice wait,
  // job_dispatch event). The caller holds a slot.
  void dispatch_locked(Job& job);
  // Returns a slot and wakes whoever may now run a queued job in it.
  void release_slot_locked(int slot);
  // The slot's telemetry sink; nullptr without a hub.
  telemetry::SolverTelemetry* slot_sink(int slot);
  // What one slice did, as run_slice reports it to settle_locked.
  struct SliceRun {
    enum class End : std::uint8_t {
      solved,        // ran; `status` unknown when a budget or stop ended it
      stopped,       // not run: deadline past at dispatch, or cancelled
      died,          // threw `error`; its engine is lost
      unsupported,   // the session answers Session::unsupported
      build_failed,  // the job's engine failed to build or load (`error`)
    };
    End end = End::solved;
    SolveStatus status = SolveStatus::unknown;
    SliceStats slice;  // stays zero when the slice never solved
    double seconds = 0.0;
    std::string error;
  };
  // The slice of a dispatched record, with no lock held: pre-flight (a
  // deadline past at dispatch, an unsupported session), build and load a
  // job's engine on its first slice, solve under the slice budget and
  // certify an UNSAT answer into the record's result, which its runner
  // owns until settle. It locks only to publish a job's first engine, so
  // cancel() can stop it; any other cancel is caught by the engine's sticky
  // stop and by settle. `sink` is its slot's (nullptr without a hub).
  SliceRun run_slice(Job& job, telemetry::SolverTelemetry* sink);
  // The second hold of a slice: counts it (`on_waiter` when the job's
  // waiting caller ran it) and makes the one decision that follows —
  // finish, preempt back into the run queue, retry a dead job slice, or
  // poison a dead session. Reads the service clock at most once, and only
  // to finish the job or to check its deadline or the watchdog limit.
  // Returns what to deliver when the job finished. Once the record is
  // finished the runner touches it no more: its owner may collect, reuse
  // or free it as soon as the lock is released. Must hold lock_.
  Finished settle_locked(Job& job, SliceRun& run, bool on_waiter);
  // The one slice step of workers and waiters: dispatches the pick into
  // `slot`, runs its slice with `lk` released and settles it in the
  // re-lock. Takes and returns `lk` locked; the caller releases or reuses
  // the slot in that same hold, or, a worker whose job finished, after the
  // callback.
  Finished slice_step(std::unique_lock<std::mutex>& lk, Job& job, int slot,
                      bool on_waiter);
  // Moves a job to a terminal state, fills the remaining result fields and
  // wakes waiters. `now` is the service clock read that stamps it. Must
  // hold lock_.
  Finished finish_locked(Job& job, JobOutcome outcome, double now);
  // Cancels an unfinished record: a running one stops at its engine's next
  // search step and its runner finishes it (nothing to deliver), a queued
  // one leaves the run queue and finishes here. Must hold lock_.
  Finished cancel_locked(Job& job);
  // Runs the completion callback, if any, and frees the finished job's
  // formula and engine. Called without the lock held.
  static void deliver(Finished finished);

  // --- telemetry helpers (no-ops without a hub) ---
  // Job/session lifecycle events go to one control ring written only while
  // holding lock_ (the mutex serializes producers, keeping the ring SPSC).
  void emit_control_locked(telemetry::EventKind kind, std::uint64_t a,
                           std::uint64_t b);
  // Wait-by-priority-class: negative priorities are "low", zero "normal",
  // positive "high".
  telemetry::Histogram* wait_histogram(int priority) const;
  // Records slice latency and emits the slot-ring slice span event.
  void note_slice(telemetry::SolverTelemetry* sink, JobId job,
                  double slice_seconds, std::uint64_t conflicts);

  ServiceOptions opts_;
  CompletionCallback completion_;
  WallTimer clock_;

  // Telemetry instruments, resolved once in the constructor; all null when
  // opts_.telemetry is null.
  telemetry::TraceRing* control_ring_ = nullptr;
  telemetry::Histogram* slice_latency_ = nullptr;
  telemetry::Histogram* session_solve_latency_ = nullptr;
  telemetry::Histogram* wait_low_ = nullptr;
  telemetry::Histogram* wait_normal_ = nullptr;
  telemetry::Histogram* wait_high_ = nullptr;
  telemetry::Gauge* pending_gauge_ = nullptr;
  telemetry::Gauge* sessions_gauge_ = nullptr;

  mutable std::mutex lock_;
  std::condition_variable work_cv_;   // workers: ready job or shutdown
  std::condition_variable space_cv_;  // submitters: queue has room
  // Waiters: some job finished, or a slot freed while jobs are queued.
  std::condition_variable done_cv_;

  bool accepting_ = true;
  JobId next_id_ = 1;
  std::uint64_t dispatch_tick_ = 0;
  std::size_t pending_ = 0;  // unfinished jobs
  // Queued/preempted records, one-shot and session alike; a record leaves
  // when it is dispatched or cancelled.
  std::vector<Job*> ready_;
  // The slice slots: the free ones, and each slot's telemetry sink (ring
  // "svc-worker-<i>"; no sinks without a hub).
  std::vector<int> free_slots_;
  std::vector<telemetry::SolverTelemetry> slot_sinks_;
  std::unordered_map<JobId, std::shared_ptr<Job>> jobs_;
  SessionId next_session_id_ = 1;
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  // Never filled under a memory budget, whose charges follow live engines.
  Spare spare_;
  ServiceStats stats_;

  // Serializes the join phase of shutdown() so concurrent shutdown calls
  // (including the destructor) are safe. Never taken while holding lock_.
  std::mutex join_lock_;
  bool joined_ = false;  // guarded by join_lock_
  std::vector<std::thread> workers_;
};

}  // namespace berkmin::service
