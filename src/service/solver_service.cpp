#include "service/solver_service.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "portfolio/portfolio.h"
#include "util/fault.h"
#include "util/memory_budget.h"

namespace berkmin::service {

namespace {

// Scheduler shaping: one unit of JobLimits::priority is worth this many
// consumed slices, and every dispatch a waiting job ages by kAgingRate
// slices — so low-priority or long jobs cannot be starved forever.
constexpr double kPriorityWeight = 4.0;
constexpr double kAgingRate = 0.125;
// Floor of a nonzero ServiceOptions::watchdog_seconds. A limit shorter than
// the few microseconds between a dispatch and its solve would preempt every
// slice before it solves, so no job could ever finish.
constexpr double kMinWatchdog = 1e-3;

// What the service's engines share (portfolio::make_engine): counters and
// phases flow to the hub, per-worker rings stay off (ring names would
// collide and interleave across sessions and jobs), and every engine
// charges the memory budget.
portfolio::PortfolioOptions engine_resources(const ServiceOptions& opts) {
  portfolio::PortfolioOptions shared;
  shared.telemetry = opts.telemetry;
  shared.trace_workers = false;
  shared.memory_budget = opts.memory_budget;
  return shared;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::queued:
      return "queued";
    case JobState::running:
      return "running";
    case JobState::preempted:
      return "preempted";
    case JobState::done:
      return "done";
    case JobState::cancelled:
      return "cancelled";
  }
  return "invalid";
}

const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::completed:
      return "completed";
    case JobOutcome::budget_exhausted:
      return "budget_exhausted";
    case JobOutcome::deadline_expired:
      return "deadline_expired";
    case JobOutcome::cancelled:
      return "cancelled";
    case JobOutcome::error:
      return "error";
    case JobOutcome::unsupported:
      return "unsupported";
  }
  return "invalid";
}

SolverService::SolverService(ServiceOptions options) : opts_(options) {
  if (opts_.num_workers < 1) opts_.num_workers = 1;
  if (opts_.max_pending < 1) opts_.max_pending = 1;
  if (opts_.watchdog_seconds > 0.0) {
    opts_.watchdog_seconds = std::max(opts_.watchdog_seconds, kMinWatchdog);
  }
  if (opts_.telemetry != nullptr) {
    telemetry::MetricsRegistry& metrics = opts_.telemetry->metrics();
    control_ring_ = opts_.telemetry->trace().ring("svc-control");
    slice_latency_ = metrics.histogram("service.slice_latency_ns");
    session_solve_latency_ =
        metrics.histogram("service.session_solve_latency_ns");
    wait_low_ = metrics.histogram("service.job_wait_ns.low");
    wait_normal_ = metrics.histogram("service.job_wait_ns.normal");
    wait_high_ = metrics.histogram("service.job_wait_ns.high");
    pending_gauge_ = metrics.gauge("service.pending_jobs");
    sessions_gauge_ = metrics.gauge("service.open_sessions");
    for (int i = 0; i < opts_.num_workers; ++i) {
      slot_sinks_.emplace_back(*opts_.telemetry,
                               opts_.telemetry->trace().ring(
                                   "svc-worker-" + std::to_string(i)));
    }
  }
  // Slot 0 is handed out first.
  for (int i = opts_.num_workers - 1; i >= 0; --i) free_slots_.push_back(i);
  workers_.reserve(static_cast<std::size_t>(opts_.num_workers));
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SatEngine* SolverService::Job::active_engine() const {
  return session != nullptr ? session->engine.get() : engine.get();
}

double SolverService::now_seconds() const {
  double t = clock_.seconds();
  if (BERKMIN_FAULT_POINT(util::FaultSite::clock_skew)) {
    const util::FaultInjector* injector = util::current_fault_injector();
    if (injector != nullptr) t += injector->plan().skew_seconds;
  }
  return t;
}

SolverService::~SolverService() { shutdown(Shutdown::cancel_pending); }

std::optional<JobId> SolverService::submit(JobRequest request) {
  std::unique_lock<std::mutex> lk(lock_);
  space_cv_.wait(
      lk, [&] { return pending_ < opts_.max_pending || !accepting_; });
  return submit_locked(std::move(request));
}

std::optional<JobId> SolverService::try_submit(JobRequest request) {
  std::lock_guard<std::mutex> lk(lock_);
  return submit_locked(std::move(request));
}

std::optional<JobId> SolverService::submit_locked(JobRequest request) {
  auto job = std::make_shared<Job>();
  if (request.limits.threads < 1) request.limits.threads = 1;
  job->request = std::move(request);
  if (!admit_locked(*job)) return std::nullopt;
  job->assumptions = job->request.assumptions;
  if (job->request.name.empty()) {
    job->result.name = "job-" + std::to_string(job->id);
  } else {
    job->result.name = std::move(job->request.name);
  }
  jobs_.emplace(job->id, job);
  // With every slot taken, the slice that frees one wakes a worker.
  if (!free_slots_.empty()) work_cv_.notify_one();
  return job->id;
}

bool SolverService::admit_locked(Job& job) {
  if (!accepting_ || pending_ >= opts_.max_pending) {
    ++stats_.rejected;
    return false;
  }
  // Load shedding: while the memory budget is critical, refusing at the
  // door is the graceful move — an admitted job would only deepen the
  // pressure and get starved by the solvers' own no-learn degradation.
  if (opts_.memory_budget != nullptr &&
      opts_.memory_budget->pressure() >= util::Pressure::critical) {
    ++stats_.rejected;
    ++stats_.rejected_pressure;
    opts_.memory_budget->note_degrade();
    return false;
  }
  job.id = next_id_++;
  job.job_state = JobState::queued;
  job.cancel_requested = false;
  job.first_slice_time = -1.0;
  job.submit_time = now_seconds();
  const double deadline = job.request.limits.deadline_seconds;
  job.deadline_point = deadline > 0.0 ? job.submit_time + deadline : 0.0;
  job.result.id = job.id;

  ++pending_;
  ++stats_.submitted;
  stats_.peak_pending = std::max<std::uint64_t>(stats_.peak_pending, pending_);
  emit_control_locked(telemetry::EventKind::job_queued, job.id,
                      static_cast<std::uint64_t>(job.request.limits.priority));
  if (pending_gauge_ != nullptr) {
    pending_gauge_->set(static_cast<std::int64_t>(pending_));
  }
  enqueue_ready_locked(job);
  return true;
}

// ---- incremental job sessions ---------------------------------------------

std::optional<SessionId> SolverService::open_session(SessionRequest request) {
  if (request.threads < 1) request.threads = 1;

  // Engines are built outside the lock; only the registration is inside.
  std::string unsupported;
  if (request.proof.wanted() && request.threads > 1) {
    // Certifying per-answer incremental checks over a spliced warm-worker
    // trace needs deterministic portfolio replay, which has not landed.
    // Rather than silently dropping the proof request or certifying
    // unsoundly, accept the session but answer every solve with a
    // structured JobOutcome::unsupported carrying this reason.
    unsupported =
        "proof logging on a multi-threaded session is not supported yet "
        "(spliced incremental traces need deterministic portfolio replay); "
        "reopen with threads = 1 or without proof options";
  }
  Spare spare;
  if (request.threads == 1) {
    std::lock_guard<std::mutex> lk(lock_);
    spare = std::move(spare_);
  }
  const bool reused = spare.engine != nullptr;
  auto session = std::make_unique<Session>(
      portfolio::make_engine(request.options, request.threads,
                             engine_resources(opts_), std::move(spare.engine)),
      request.proof.wanted() && unsupported.empty(), request.proof.verify(),
      std::move(spare.checker));
  session->unsupported = std::move(unsupported);

  std::lock_guard<std::mutex> lk(lock_);
  if (!accepting_) return std::nullopt;
  if (opts_.memory_budget != nullptr &&
      opts_.memory_budget->pressure() >= util::Pressure::critical) {
    ++stats_.rejected_pressure;
    opts_.memory_budget->note_degrade();
    return std::nullopt;
  }
  session->id = next_session_id_++;
  if (request.name.empty()) {
    request.name = "session-" + std::to_string(session->id);
  }
  session->request = std::move(request);
  session->query.session = session.get();
  session->query.request.proof = session->request.proof;
  const SessionId id = session->id;
  sessions_.emplace(id, std::move(session));
  ++stats_.sessions_opened;
  if (reused) ++stats_.sessions_reused;
  if (sessions_gauge_ != nullptr) {
    sessions_gauge_->set(static_cast<std::int64_t>(sessions_.size()));
  }
  return id;
}

SolverService::SessionClaim SolverService::claim_session(SessionId id) {
  std::lock_guard<std::mutex> lk(lock_);
  Session* session = claim_session_locked(id);
  if (session == nullptr) return {};
  return SessionClaim(*this, *session);
}

std::optional<GroupId> SolverService::session_apply(SessionId id,
                                                   const icnf::Op& op) {
  return claim_session(id).apply(op);
}

// The claim makes the engine this holder's alone, so the op runs through
// the session's certifier on a raw pointer: close_session refuses a busy
// session, so it cannot go away meanwhile.
std::optional<GroupId> SolverService::SessionClaim::apply(const icnf::Op& op) {
  using Kind = icnf::Op::Kind;
  if (session_ == nullptr) return std::nullopt;
  const std::optional<GroupId> group = icnf::apply(session_->certifier, op);
  if (!group.has_value()) return group;
  if (op.kind == Kind::add_clause || op.kind == Kind::add_clause_to) {
    // An add counts unless its named group is dead (a refusal). Only the
    // holder writes the counter, so no read-modify-write is needed.
    std::atomic<std::uint64_t>& added = session_->clauses_added;
    added.store(added.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  } else if (op.kind == Kind::push || op.kind == Kind::pop) {
    std::lock_guard<std::mutex> lk(service_->lock_);
    service_->emit_control_locked(op.kind == Kind::push
                                      ? telemetry::EventKind::session_push
                                      : telemetry::EventKind::session_pop,
                                  session_->id,
                                  session_->engine->num_groups());
  }
  return group;
}

void SolverService::SessionClaim::release() {
  if (session_ == nullptr) return;
  release_session(*session_);
  session_ = nullptr;
}

SolverService::Session* SolverService::claim_session_locked(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  bool idle = false;
  if (!it->second->busy.compare_exchange_strong(idle, true,
                                                std::memory_order_acquire)) {
    return nullptr;
  }
  return it->second.get();
}

bool SolverService::session_query(SessionId id,
                                  std::span<const Lit> assumptions,
                                  JobLimits limits, JobResult& result) {
  std::unique_lock<std::mutex> lk(lock_);
  Session* session = claim_session_locked(id);
  if (session == nullptr) return false;
  Job& query = session->query;
  query.request.limits = limits;
  query.request.limits.threads = 1;  // escalation is the session's
  if (!admit_locked(query)) {
    release_session(*session);
    return false;
  }
  query.assumptions = assumptions;
  // The answer is built in the caller's buffers, which the record holds
  // until the caller collects it.
  JobResult& answer = query.result;
  answer.session = session->id;
  answer.name = std::move(result.name);
  answer.name.assign(session->request.name);
  answer.name += '#';
  answer.name += std::to_string(++session->solves);
  answer.model = std::move(result.model);
  answer.model.clear();
  answer.failed_assumptions = std::move(result.failed_assumptions);
  answer.failed_assumptions.clear();
  ++stats_.session_solves;
  // The session stays claimed until the answer is collected, so no other
  // query can reuse the record before then.
  Finished finished = run_until_finished(lk, query);
  result = std::move(answer);
  answer = JobResult{};
  release_session(*session);
  lk.unlock();
  deliver(std::move(finished));
  return true;
}

bool SolverService::close_session(SessionId id) {
  std::lock_guard<std::mutex> lk(lock_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  // Claims are taken under the lock, so an idle session stays idle.
  if (it->second->busy.load(std::memory_order_acquire)) return false;
  stats_.session_clauses_added +=
      it->second->clauses_added.load(std::memory_order_relaxed);
  keep_spare_locked(*it->second);
  sessions_.erase(it);
  if (sessions_gauge_ != nullptr) {
    sessions_gauge_->set(static_cast<std::int64_t>(sessions_.size()));
  }
  return true;
}

void SolverService::keep_spare_locked(Session& session) {
  if (spare_.engine != nullptr || opts_.memory_budget != nullptr ||
      session.request.threads != 1) {
    return;
  }
  spare_.checker = session.certifier.release_checker();
  spare_.engine = std::move(session.engine);
}

std::size_t SolverService::open_sessions() const {
  std::lock_guard<std::mutex> lk(lock_);
  return sessions_.size();
}

bool SolverService::cancel(JobId id) {
  Finished notify;
  {
    std::lock_guard<std::mutex> lk(lock_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->finished()) return false;
    notify = cancel_locked(*it->second);
  }
  deliver(std::move(notify));
  return true;
}

SolverService::Finished SolverService::cancel_locked(Job& job) {
  job.cancel_requested = true;
  if (job.job_state == JobState::running) {
    // The slice's runner owns the record: stop its engine mid-slice and let
    // the runner classify the result (it re-checks cancel_requested under
    // this lock after the slice, so the request cannot be lost).
    if (SatEngine* engine = job.active_engine()) engine->request_stop();
    return {};
  }
  ready_.erase(std::find(ready_.begin(), ready_.end(), &job));
  return finish_locked(job, JobOutcome::cancelled, now_seconds());
}

void SolverService::shutdown(Shutdown mode) {
  std::vector<Finished> notifications;
  Spare unused;  // no session opens any more; freed outside the lock
  {
    std::lock_guard<std::mutex> lk(lock_);
    accepting_ = false;
    unused = std::move(spare_);
    if (mode == Shutdown::cancel_pending) {
      for (auto& [id, job] : jobs_) {
        if (!job->finished()) notifications.push_back(cancel_locked(*job));
      }
      for (auto& [id, session] : sessions_) {
        if (!session->query.finished()) {
          notifications.push_back(cancel_locked(session->query));
        }
      }
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
  }
  for (Finished& finished : notifications) deliver(std::move(finished));

  // Joining is serialized separately so concurrent shutdown calls (and the
  // destructor racing an explicit shutdown) are safe.
  std::lock_guard<std::mutex> jg(join_lock_);
  if (joined_) return;
  for (std::thread& worker : workers_) worker.join();
  joined_ = true;
}

JobState SolverService::state(JobId id) const {
  std::lock_guard<std::mutex> lk(lock_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("unknown job id");
  return it->second->job_state;
}

JobResult SolverService::wait(JobId id) {
  std::unique_lock<std::mutex> lk(lock_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("unknown job id");
  const std::shared_ptr<Job> job = it->second;
  Finished finished = run_until_finished(lk, *job);
  // Collected once: the first caller back takes the result, and any other
  // finds the id gone. A caller whose slice finished the job collects it in
  // that slice's settle hold, before its callback runs.
  if (jobs_.erase(id) == 0) throw std::out_of_range("job already collected");
  JobResult result = std::move(job->result);
  lk.unlock();
  deliver(std::move(finished));
  return result;
}

SolverService::Finished SolverService::run_until_finished(
    std::unique_lock<std::mutex>& lk, Job& job) {
  // The caller runs its job's slices itself while the job is the
  // scheduler's pick and it holds a slot: one freed for it, or the one its
  // previous slice ran in, kept while the preempted job is picked again.
  // Otherwise it parks until a slot frees or a job finishes; parking while
  // a slot is free and another job is the pick, it wakes a worker for that
  // job, which may have been admitted without one.
  Finished finished;
  int slot = -1;
  while (!job.finished()) {
    if (slot >= 0 || !free_slots_.empty()) {
      const Job* pick = pick_ready_locked();
      if (pick == &job) {
        if (slot < 0) {
          slot = free_slots_.back();
          free_slots_.pop_back();
        }
        finished = slice_step(lk, job, slot, true);
        continue;
      }
      if (slot >= 0) {
        release_slot_locked(slot);
        slot = -1;
      } else if (pick != nullptr) {
        work_cv_.notify_one();
      }
    }
    done_cv_.wait(lk);
  }
  if (slot >= 0) release_slot_locked(slot);
  return finished;
}

std::vector<JobResult> SolverService::wait_all() {
  std::unique_lock<std::mutex> lk(lock_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (auto& [id, job] : jobs_) results.push_back(std::move(job->result));
  jobs_.clear();
  std::sort(results.begin(), results.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
  return results;
}

void SolverService::set_completion_callback(CompletionCallback callback) {
  std::lock_guard<std::mutex> lk(lock_);
  completion_ = std::move(callback);
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lk(lock_);
  ServiceStats stats = stats_;
  for (const auto& [id, session] : sessions_) {
    stats.session_clauses_added +=
        session->clauses_added.load(std::memory_order_relaxed);
  }
  return stats;
}

void SolverService::enqueue_ready_locked(Job& job) {
  job.ready_since = dispatch_tick_;
  ready_.push_back(&job);
}

double SolverService::schedule_key_locked(const Job& job) const {
  // Lower runs first: few consumed slices (short jobs finish fast), high
  // explicit priority, and aging credit for time spent waiting — so a
  // steady stream of fresh jobs cannot starve a long-running one forever.
  const double age =
      static_cast<double>(dispatch_tick_ - job.ready_since) * kAgingRate;
  return static_cast<double>(job.result.slices) -
         static_cast<double>(job.request.limits.priority) * kPriorityWeight -
         age;
}

SolverService::Job* SolverService::pick_ready_locked() {
  // Linear scan: the ready queue is bounded by max_pending and a dispatch
  // happens once per slice, so O(n) selection is noise.
  Job* best = nullptr;
  double best_key = 0.0;
  for (Job* job : ready_) {
    const double key = schedule_key_locked(*job);
    if (best == nullptr || key < best_key ||
        (key == best_key && job->id < best->id)) {
      best = job;
      best_key = key;
    }
  }
  return best;
}

void SolverService::dispatch_locked(Job& job) {
  ready_.erase(std::find(ready_.begin(), ready_.end(), &job));
  ++dispatch_tick_;
  job.job_state = JobState::running;
  job.slice_start = now_seconds();
  if (job.first_slice_time < 0.0) {
    job.first_slice_time = job.slice_start;
    telemetry::Histogram* wait = wait_histogram(job.request.limits.priority);
    if (wait != nullptr) {
      wait->record(static_cast<std::uint64_t>(
          std::max(0.0, job.first_slice_time - job.submit_time) * 1e9));
    }
  }
  emit_control_locked(telemetry::EventKind::job_dispatch, job.id,
                      job.result.slices);
}

void SolverService::release_slot_locked(int slot) {
  free_slots_.push_back(slot);
  if (!ready_.empty()) {
    work_cv_.notify_one();
    done_cv_.notify_all();  // a waiter's job may be the pick
  } else if (!accepting_) {
    // Draining: a worker that slept while every slot was held may now exit.
    work_cv_.notify_all();
  }
}

telemetry::SolverTelemetry* SolverService::slot_sink(int slot) {
  return slot_sinks_.empty() ? nullptr
                             : &slot_sinks_[static_cast<std::size_t>(slot)];
}

void SolverService::worker_loop() {
  std::unique_lock<std::mutex> lk(lock_);
  for (;;) {
    work_cv_.wait(lk, [&] {
      return ready_.empty() ? !accepting_ : !free_slots_.empty();
    });
    if (ready_.empty()) {  // shutting down with nothing left to run
      work_cv_.notify_all();  // so may the workers still asleep
      return;
    }
    Job& job = *pick_ready_locked();
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    Finished finished = slice_step(lk, job, slot, false);
    // Delivered before the slot frees: a waiter taking it cannot report first.
    if (job.finished()) {
      lk.unlock();
      deliver(std::move(finished));
      lk.lock();
    }
    release_slot_locked(slot);
  }
}

SolverService::Finished SolverService::slice_step(
    std::unique_lock<std::mutex>& lk, Job& job, int slot, bool on_waiter) {
  dispatch_locked(job);
  lk.unlock();
  SliceRun run = run_slice(job, slot_sink(slot));
  lk.lock();
  return settle_locked(job, run, on_waiter);
}

std::optional<Budget> SolverService::slice_budget(const Job& job) const {
  const JobLimits& limits = job.request.limits;
  Budget budget;
  budget.max_conflicts = opts_.slice_conflicts;
  if (limits.max_conflicts != 0) {
    const std::uint64_t used = job.result.conflicts;
    const std::uint64_t remaining =
        limits.max_conflicts > used ? limits.max_conflicts - used : 1;
    if (budget.max_conflicts == 0 || remaining < budget.max_conflicts) {
      budget.max_conflicts = remaining;
    }
  }
  // The slice's clock stops at the nearer of the job's deadline and the
  // watchdog limit. The solver reads its clock once every 1024 search
  // steps, so a slice overshoots either by at most that many steps.
  if (job.deadline_point == 0.0 && opts_.watchdog_seconds == 0.0) {
    return budget;
  }
  const double now = now_seconds();
  if (job.deadline_point > 0.0) {
    budget.max_seconds = std::max(job.deadline_point - now, 1e-3);
  }
  if (opts_.watchdog_seconds > 0.0) {
    const double left = job.slice_start + opts_.watchdog_seconds - now;
    if (left <= 0.0) return std::nullopt;
    if (budget.max_seconds == 0.0 || left < budget.max_seconds) {
      budget.max_seconds = left;
    }
  }
  return budget;
}

SolverService::SliceRun SolverService::run_slice(
    Job& job, telemetry::SolverTelemetry* sink) {
  using End = SliceRun::End;
  const JobProofOptions& proof_opts = job.request.proof;
  Session* session = job.session;
  SliceRun run;

  // Pre-flight: a deadline already past at dispatch ends the job without
  // spending a slice on it. A session opened with an unsupported feature
  // combo (or poisoned by a dead slice) answers every query with a
  // structured error instead of an uncertified result.
  if (job.deadline_point > 0.0 && job.slice_start >= job.deadline_point) {
    run.end = End::stopped;
    return run;
  }
  if (session != nullptr && !session->unsupported.empty()) {
    run.end = End::unsupported;
    return run;
  }

  // A job's first slice builds and loads the engine outside the lock
  // (loading can dwarf a slice); the engine pointer is published under
  // the lock so cancel() can reach it.
  if (session == nullptr && job.engine == nullptr) {
    std::unique_ptr<SatEngine> engine;
    std::unique_ptr<proof::MemoryProofWriter> proof_writer;
    try {
      engine = portfolio::make_engine(job.request.options,
                                      job.request.limits.threads,
                                      engine_resources(opts_));
      if (proof_opts.wanted()) {
        proof_writer = std::make_unique<proof::MemoryProofWriter>();
        engine->set_proof(proof_writer.get());
      }
      engine->load(job.request.cnf);
    } catch (const std::exception& ex) {
      run.end = End::build_failed;
      run.error = ex.what();
      return run;
    }
    std::lock_guard<std::mutex> lk(lock_);
    if (job.cancel_requested) {
      run.end = End::stopped;
      return run;
    }
    job.engine = std::move(engine);
    job.proof_writer = std::move(proof_writer);
  }
  SatEngine& engine = *job.active_engine();

  // A cancel() arriving from here on finds the published engine pointer
  // and stops the solve mid-slice; the sticky flag means even a request
  // that lands before solve() starts is honored.
  WallTimer slice_timer;
  try {
    BERKMIN_FAULT_STALL(util::FaultSite::worker_stall);
    if (BERKMIN_FAULT_POINT(util::FaultSite::slice_death)) {
      throw std::runtime_error("injected service slice death");
    }
    // Taken after the engine build and any stall, which both count against
    // the watchdog limit; a slice with none of it left is preempted here.
    const std::optional<Budget> budget = slice_budget(job);
    if (budget.has_value()) {
      // The sink is this slot's; detach before the job can migrate to
      // another slot after a preemption.
      engine.set_telemetry(sink);
      run.status = engine.solve_with_assumptions(job.assumptions, *budget);
      engine.set_telemetry(nullptr);
      // Copied: finishing the job releases its engine.
      run.slice = engine.last_slice();
    }
  } catch (const std::exception& ex) {
    run.end = End::died;
    run.error = ex.what();
  }
  run.seconds = slice_timer.seconds();
  if (run.end == End::died) return run;

  // Certification runs outside the lock (a check can dwarf a slice). A
  // session's live checker verifies the trace steps logged since its last
  // call, then the answer itself (¬core RUP over the live database); the
  // answer carries that verdict only, never the session's cumulative trace.
  // A job's trace is taken whole, and is deliverable only when complete —
  // UNSAT of the formula itself ends with the empty clause; an
  // assumption-failure answer does not (its certificate is the
  // failed-assumption core instead) — and is checked against the formula.
  JobResult& result = job.result;
  if (run.status == SolveStatus::unsatisfiable && proof_opts.wanted()) {
    if (session != nullptr) {
      if (session->certifier.checking()) {
        session->certifier.set_telemetry(sink);
        result.proof_valid = session->certifier.answer_certified();
        session->certifier.set_telemetry(nullptr);
        result.proof_checked = true;
      }
    } else {
      proof::Proof trace = job.proof_writer->take_proof();
      if (trace.ends_with_empty()) {
        if (proof_opts.verify()) {
          proof::DratChecker checker(job.request.cnf);
          checker.set_telemetry(sink);
          const proof::CheckResult check = checker.check(trace);
          result.proof_checked = true;
          result.proof_valid = check.valid;
          if (check.valid && proof_opts.core) {
            result.unsat_core = checker.core();
          }
        }
        result.proof = std::move(trace);
      }
    }
  }
  note_slice(sink, job.id, run.seconds, run.slice.conflicts);
  return run;
}

SolverService::Finished SolverService::settle_locked(Job& job, SliceRun& run,
                                                     bool on_waiter) {
  using End = SliceRun::End;
  Session* session = job.session;
  JobResult& result = job.result;
  if (run.end == End::solved || run.end == End::died) {
    ++stats_.slices;
    if (on_waiter) ++stats_.waiter_slices;
    stats_.solve_seconds += run.seconds;
    stats_.conflicts += run.slice.conflicts;
    ++result.slices;
    result.solve_seconds += run.seconds;
    result.conflicts += run.slice.conflicts;
    result.decisions += run.slice.decisions;
    result.propagations += run.slice.propagations;
    result.learned_clauses += run.slice.learned_clauses;
  }
  // The one clock read, taken only when a decision needs it.
  std::optional<double> clock;
  const auto now = [&] { return clock ? *clock : *(clock = now_seconds()); };
  const auto finish = [&](JobOutcome outcome) {
    return finish_locked(job, outcome, now());
  };

  if (run.end == End::build_failed) {
    result.error = std::move(run.error);
    return finish(JobOutcome::error);
  }
  if (run.end == End::unsupported) {
    result.error = session->unsupported;
    return finish(JobOutcome::unsupported);
  }
  // A slice that died leaves the engine mid-search — unrecoverable. A job
  // is not: it discards the engine and retries from the formula a bounded
  // number of times, then fails with a structured error. A session cannot
  // retry (rebuilding its engine would silently drop the pushed groups and
  // learned state): the query fails and the session is poisoned, so later
  // queries answer unsupported with the same reason. Either way the thread
  // running the slice survives and the queue keeps draining.
  if (run.end == End::died) {
    ++stats_.slice_deaths;
    if (session != nullptr) {
      session->unsupported = "session engine died mid-solve: " + run.error +
                             "; close and reopen the session";
      result.error = session->unsupported;
      return finish(JobOutcome::error);
    }
    job.engine.reset();
    job.proof_writer.reset();
    if (job.cancel_requested) return finish(JobOutcome::cancelled);
    if (job.fault_retries >= opts_.max_slice_retries) {
      result.error = "slice died: " + run.error + " (gave up after " +
                     std::to_string(job.fault_retries) + " retries)";
      return finish(JobOutcome::error);
    }
    // Re-queued for a rebuild. The consumed slice count feeds the schedule
    // key, so retries back off behind fresh work naturally.
    ++job.fault_retries;
    ++stats_.slice_retries;
  } else {
    if (run.status != SolveStatus::unknown) {
      result.status = run.status;
      return finish(JobOutcome::completed);
    }
    if (job.cancel_requested) return finish(JobOutcome::cancelled);
    if (run.end == End::stopped ||
        (job.deadline_point > 0.0 && now() >= job.deadline_point)) {
      return finish(JobOutcome::deadline_expired);
    }
    const std::uint64_t max_conflicts = job.request.limits.max_conflicts;
    if (max_conflicts != 0 && result.conflicts >= max_conflicts) {
      return finish(JobOutcome::budget_exhausted);
    }
    // The slice's budget expired with the query still open: back into the
    // run queue with all engine state intact. A slice whose watchdog limit
    // ran out ended on the resumable wall-clock stop, or before it solved.
    if (opts_.watchdog_seconds > 0.0 &&
        now() >= job.slice_start + opts_.watchdog_seconds) {
      ++stats_.watchdog_fires;
    }
  }
  job.job_state = JobState::preempted;
  ++result.preemptions;
  ++stats_.preemptions;
  emit_control_locked(telemetry::EventKind::job_preempted, job.id,
                      result.slices);
  enqueue_ready_locked(job);
  return {};
}

SolverService::Finished SolverService::finish_locked(Job& job,
                                                    JobOutcome outcome,
                                                    double now) {
  job.result.outcome = outcome;
  // Session jobs answer through the session's persistent engine.
  SatEngine* engine = job.active_engine();
  if (engine != nullptr) {
    if (outcome == JobOutcome::completed) {
      if (job.result.status == SolveStatus::satisfiable) {
        job.result.model = engine->model();
      } else if (job.result.status == SolveStatus::unsatisfiable) {
        job.result.failed_assumptions = engine->failed_assumptions();
      }
    }
    // Snapshot the database shape before the engine is released.
    const SolverStats& stats = engine->stats();
    job.result.max_live_clauses = stats.max_live_clauses;
    job.result.initial_clauses = stats.initial_clauses;
    job.result.duplicate_binaries_skipped = stats.duplicate_binaries_skipped;
  }
  // Clamped at zero: injected clock skew can make an earlier read of the
  // service clock land past a later one.
  job.result.wall_seconds = std::max(0.0, now - job.submit_time);
  job.result.queue_seconds = std::max(
      0.0, (job.first_slice_time >= 0.0 ? job.first_slice_time : now) -
               job.submit_time);

  job.job_state =
      outcome == JobOutcome::cancelled ? JobState::cancelled : JobState::done;
  emit_control_locked(telemetry::EventKind::job_complete, job.id,
                      static_cast<std::uint64_t>(outcome));
  if (job.session != nullptr && session_solve_latency_ != nullptr) {
    // End-to-end query latency (submit → terminal), queueing included.
    session_solve_latency_->record(
        static_cast<std::uint64_t>(job.result.wall_seconds * 1e9));
  }
  if (job.session != nullptr) {
    // The engine outlives the query. Un-latch the stop a non-draining
    // shutdown may have requested, so the session's engine is left as it
    // was. The session stays claimed until its caller collects the answer.
    engine->clear_stop();
  }
  // Nothing reads the formula after the last slice (a proof check and a
  // dead slice's rebuild both come before this), so it goes with the
  // engine, freed outside the lock.
  Finished finished;
  finished.cnf = std::move(job.request.cnf);
  finished.assumptions = std::move(job.request.assumptions);
  finished.engine = std::move(job.engine);
  finished.proof_writer = std::move(job.proof_writer);

  switch (outcome) {
    case JobOutcome::completed:
      ++stats_.completed;
      break;
    case JobOutcome::budget_exhausted:
      ++stats_.budget_exhausted;
      break;
    case JobOutcome::deadline_expired:
      ++stats_.deadline_expired;
      break;
    case JobOutcome::cancelled:
      ++stats_.cancelled;
      break;
    case JobOutcome::error:
      ++stats_.errors;
      break;
    case JobOutcome::unsupported:
      ++stats_.unsupported;
      break;
  }
  --pending_;
  if (pending_gauge_ != nullptr) {
    pending_gauge_->set(static_cast<std::int64_t>(pending_));
  }
  space_cv_.notify_one();
  done_cv_.notify_all();
  if (completion_) {
    finished.callback = completion_;
    finished.result = job.result;
  }
  return finished;
}

void SolverService::deliver(Finished finished) {
  if (finished.callback) finished.callback(finished.result);
}

// ---- telemetry ------------------------------------------------------------

void SolverService::emit_control_locked(telemetry::EventKind kind,
                                        std::uint64_t a, std::uint64_t b) {
  if (control_ring_ == nullptr) return;
  telemetry::TraceEvent event;
  event.ts_ns = opts_.telemetry->trace().now_ns();
  event.kind = kind;
  event.a = a;
  event.b = b;
  control_ring_->emit(event);
}

telemetry::Histogram* SolverService::wait_histogram(int priority) const {
  if (priority < 0) return wait_low_;
  return priority == 0 ? wait_normal_ : wait_high_;
}

void SolverService::note_slice(telemetry::SolverTelemetry* sink, JobId job,
                               double slice_seconds, std::uint64_t conflicts) {
  const std::uint64_t latency_ns =
      static_cast<std::uint64_t>(slice_seconds * 1e9);
  if (slice_latency_ != nullptr) slice_latency_->record(latency_ns);
  if (sink != nullptr) {
    const std::int64_t dur = static_cast<std::int64_t>(latency_ns);
    sink->emit(telemetry::EventKind::slice, sink->now_ns() - dur, dur, job,
               conflicts);
  }
}

telemetry::MetricsSnapshot SolverService::metrics_snapshot() const {
  telemetry::MetricsSnapshot snapshot;
  if (opts_.telemetry != nullptr) snapshot = opts_.telemetry->snapshot();
  // The exact scheduler view beats the hub's racy increments for the
  // service's own totals, and jobs-level outcomes are only counted here.
  const ServiceStats totals = stats();
  for (const ServiceCounter& counter : kServiceCounters) {
    snapshot.counters[std::string("service.") + counter.metric] =
        totals.*counter.member;
  }
  snapshot.counters["service.solve_ns"] =
      static_cast<std::uint64_t>(totals.solve_seconds * 1e9);
  return snapshot;
}

}  // namespace berkmin::service
