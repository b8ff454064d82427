// Slices run on the waiting caller's thread: wait(id) and session_query
// run their own job's slice when the job is the scheduler's pick and a
// slice slot is free, and park otherwise. Covers the caller-thread run of
// an idle service (a synchronous session_query wakes no worker at all), the
// slot cap (a held slot keeps a waiter parked; no more than num_workers
// slices ever overlap, traced under a multi-caller stress with more
// session threads than slots), schedule order against a better-keyed job,
// the telemetry of a waiter-run slice, a draining shutdown while waiters
// hold every slot, and a completion callback that throws on the caller.
// Run under TSan via the "service" label and the
// ServiceSession* filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "engines/backend.h"
#include "gen/pigeonhole.h"
#include "service/solver_service.h"
#include "service_test_util.h"
#include "telemetry/telemetry.h"

namespace berkmin::service {
namespace {

using berkmin::testing::ask;
using telemetry::EventKind;
using telemetry::MetricsSnapshot;
using telemetry::TaggedEvent;
using telemetry::Telemetry;

JobRequest request_for(Cnf cnf) {
  JobRequest request;
  request.cnf = std::move(cnf);
  return request;
}

void add_formula(SolverService& service, SessionId id, const Cnf& cnf) {
  for (const auto clause : cnf.clauses()) {
    ASSERT_TRUE(service.session_apply(id, icnf::Op::clause(clause)));
  }
}

void wait_until_running(const SolverService& service, JobId id) {
  while (service.state(id) != JobState::running) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// How many session queries a test asks in a row.
constexpr int kSolves = 50;

TEST(ServiceSessionWaiter, IdleServiceRunsSessionSolveOnCallersThread) {
  SolverService service(ServiceOptions{.num_workers = 1});
  std::mutex mutex;
  std::vector<std::thread::id> callback_threads;
  service.set_completion_callback([&](const JobResult&) {
    std::lock_guard<std::mutex> lock(mutex);
    callback_threads.push_back(std::this_thread::get_id());
  });
  const SessionId session = *service.open_session({});
  add_formula(service, session, gen::pigeonhole(3));
  JobResult result;
  for (int i = 0; i < kSolves; ++i) {
    ASSERT_TRUE(service.session_query(session, {}, {}, result));
    ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
    ASSERT_EQ(result.slices, 1u);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.slices, static_cast<std::uint64_t>(kSolves));
  const std::thread::id caller = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(callback_threads.size(), static_cast<std::size_t>(kSolves));
  // Each one-slice query finished on the thread that ran its slice: on an
  // idle service, the caller's, every time.
  const auto on_caller = static_cast<std::uint64_t>(
      std::count(callback_threads.begin(), callback_threads.end(), caller));
  EXPECT_EQ(on_caller, stats.waiter_slices);
  EXPECT_EQ(stats.waiter_slices, static_cast<std::uint64_t>(kSolves));
  EXPECT_EQ(service.metrics_snapshot().counters.at("service.waiter_slices"),
            stats.waiter_slices);
}

TEST(ServiceSessionWaiter, SynchronousQueriesWakeNoWorker) {
  // SessionBackend::solve is a session_query: the caller runs the slice
  // itself, and no worker is woken to race it for the free slot, so every
  // query of an idle service runs on the caller, every time.
  constexpr int kQueries = 2000;
  SolverService service(ServiceOptions{.num_workers = 1});
  engines::SessionBackend session(service, {});
  ASSERT_TRUE(session.alive());
  const Cnf formula = gen::pigeonhole(3);
  for (const auto clause : formula.clauses()) {
    ASSERT_TRUE(session.add_clause(clause));
  }
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(session.solve({}, Budget::unlimited()),
              SolveStatus::unsatisfiable)
        << session.last_error();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.slices, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.waiter_slices, static_cast<std::uint64_t>(kQueries));
}

TEST(ServiceSessionWaiter, WaiterStartsNoSliceWhileTheOnlySlotIsHeld) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 0;
  SolverService service(options);
  const JobId blocker = *service.submit(request_for(gen::pigeonhole(10)));
  wait_until_running(service, blocker);

  const JobId query = *service.submit(request_for(gen::pigeonhole(4)));
  JobResult answer;
  std::thread owner([&] { answer = service.wait(query); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.state(query), JobState::queued);
  EXPECT_EQ(service.stats().slices, 0u);
  EXPECT_EQ(service.stats().waiter_slices, 0u);

  service.cancel(blocker);  // frees the slot
  owner.join();
  EXPECT_EQ(answer.outcome, JobOutcome::completed);
  EXPECT_EQ(answer.status, SolveStatus::unsatisfiable);
  EXPECT_EQ(service.wait(blocker).outcome, JobOutcome::cancelled);
}

TEST(ServiceSessionWaiter, WaiterParksWhileItsJobIsNotThePick) {
  // Service.HigherPriorityRunsFirst with the low job's owner blocked in
  // session_query(). The caller queues a high-priority job nobody waits
  // on, then asks its own session query: it usually gets there before the
  // worker woken for the first job, with the slot still free. The
  // high-priority job is the pick, so the caller must leave it to the
  // worker and run (or get) its own query after. Repeated, since who sees
  // the free slot first is a race.
  for (int round = 0; round < 10; ++round) {
    ServiceOptions options;
    options.num_workers = 1;
    options.slice_conflicts = 0;
    SolverService service(options);
    const SessionId session = *service.open_session({});
    add_formula(service, session, gen::pigeonhole(5));
    std::vector<JobId> completion_order;
    std::mutex order_mutex;
    service.set_completion_callback([&](const JobResult& result) {
      std::lock_guard<std::mutex> lock(order_mutex);
      completion_order.push_back(result.id);
    });

    JobRequest high = request_for(gen::pigeonhole(5));
    high.limits.priority = 3;
    const JobId high_id = *service.submit(std::move(high));
    const std::optional<JobResult> low = ask(service, session);
    ASSERT_TRUE(low.has_value());
    EXPECT_EQ(low->status, SolveStatus::unsatisfiable);
    const JobId low_id = low->id;
    service.shutdown(SolverService::Shutdown::drain);

    std::lock_guard<std::mutex> lock(order_mutex);
    ASSERT_EQ(completion_order.size(), 2u);
    EXPECT_EQ(completion_order[0], high_id);
    EXPECT_EQ(completion_order[1], low_id);
  }
}

TEST(ServiceSessionWaiter, WaiterRunSliceLandsInSliceLatencyAndPhases) {
  Telemetry hub;
  SolverService service(ServiceOptions{.num_workers = 1, .telemetry = &hub});
  SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  const SessionId session = *service.open_session(request);
  const Cnf formula = gen::pigeonhole(4);
  bool seen = false;
  for (int i = 0; i < kSolves && !seen; ++i) {
    // Each solve retracts its group, so every slice searches again.
    const GroupId group = *service.session_apply(session, icnf::Op::push());
    for (const auto clause : formula.clauses()) {
      ASSERT_TRUE(
          service.session_apply(session, icnf::Op::clause_to(group, clause)));
    }
    const MetricsSnapshot before = service.metrics_snapshot();
    const std::optional<JobResult> result = ask(service, session);
    const MetricsSnapshot after = service.metrics_snapshot();
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->status, SolveStatus::unsatisfiable);
    ASSERT_EQ(result->slices, 1u);
    ASSERT_TRUE(service.session_apply(session, icnf::Op::pop(group)));
    if (after.counters.at("service.waiter_slices") ==
        before.counters.at("service.waiter_slices")) {
      continue;  // the worker won the race for this one
    }
    seen = true;
    const auto slices = [](const MetricsSnapshot& snap) {
      const auto it = snap.histograms.find("service.slice_latency_ns");
      return it == snap.histograms.end() ? std::uint64_t{0} : it->second.count;
    };
    EXPECT_EQ(slices(after), slices(before) + 1);
    const auto calls = [](const MetricsSnapshot& snap, const char* phase) {
      const auto it = snap.phases.find(phase);
      return it == snap.phases.end() ? std::uint64_t{0} : it->second.calls;
    };
    EXPECT_GT(calls(after, "bcp"), calls(before, "bcp"));
    EXPECT_GT(calls(after, "analyze"), calls(before, "analyze"));
    EXPECT_GT(calls(after, "verify"), calls(before, "verify"));
  }
  EXPECT_TRUE(seen);
}

// A draining shutdown while callers hold every slot, each running its own
// unbounded slice, with a one-shot job queued behind them. Both workers
// sleep, since no slot is free. The first freed slot wakes one worker,
// which takes the queued job and empties the run queue; every later
// release must still wake the other worker so that it can exit, or
// shutdown() never joins it. Repeated, since a caller holds a slot only
// when it reaches wait() before the worker woken for its job. The main
// thread never asks state() of a caller's job, which the caller's wait()
// may collect at any moment: a latch says the callers are about to wait,
// and the completion callback says afterwards which thread ran each job
// and in what order the jobs finished. A round held the slots when both
// callers ran their own jobs and the queued job was not the first to
// finish.
TEST(ServiceSessionWaiter, DrainShutdownWhileWaitersHoldEverySlot) {
  constexpr int kSlots = 2;
  constexpr int kRounds = 10;
  int rounds_held_by_waiters = 0;
  for (int round = 0; round < kRounds; ++round) {
    ServiceOptions options;
    options.num_workers = kSlots;
    options.slice_conflicts = 0;
    SolverService service(options);
    std::mutex mutex;
    std::map<JobId, std::thread::id> finished_on;
    std::vector<JobId> finish_order;
    service.set_completion_callback([&](const JobResult& result) {
      std::lock_guard<std::mutex> lock(mutex);
      finished_on[result.id] = std::this_thread::get_id();
      finish_order.push_back(result.id);
    });
    JobId owned[kSlots] = {};
    std::thread::id owner_ids[kSlots];
    JobResult answers[kSlots];
    std::latch waiting(kSlots);
    std::vector<std::thread> owners;
    for (int c = 0; c < kSlots; ++c) {
      owners.emplace_back([&, c] {
        owner_ids[c] = std::this_thread::get_id();
        const JobId id = *service.submit(request_for(gen::pigeonhole(7)));
        owned[c] = id;
        waiting.count_down();
        answers[c] = service.wait(id);
      });
    }
    waiting.wait();
    // Give the callers time to take both slots; the callback data below,
    // not this pause, decides whether they did.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const JobId queued = *service.submit(request_for(gen::pigeonhole(4)));
    const bool behind = service.state(queued) == JobState::queued;
    service.shutdown(SolverService::Shutdown::drain);  // must return
    for (std::thread& owner : owners) owner.join();

    const JobResult last = service.wait(queued);
    EXPECT_EQ(last.outcome, JobOutcome::completed);
    EXPECT_EQ(last.status, SolveStatus::unsatisfiable);
    bool held = behind;
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(finish_order.size(), static_cast<std::size_t>(kSlots + 1));
    // Queued behind two running callers, the job could start only once a
    // caller's slice freed a slot, so it cannot finish first.
    held = held && finish_order.front() != queued;
    for (int c = 0; c < kSlots; ++c) {
      EXPECT_EQ(answers[c].outcome, JobOutcome::completed);
      EXPECT_EQ(answers[c].status, SolveStatus::unsatisfiable);
      held = held && finished_on.at(owned[c]) == owner_ids[c];
    }
    if (held) ++rounds_held_by_waiters;
  }
  EXPECT_GE(rounds_held_by_waiters, 1);
}

// Several callers, each driving its own session, race the workers (and one
// another) for fewer slots than there are callers: sliced queries are
// preempted and picked again, by their caller or by a worker, next to a
// few one-shot jobs nobody waits on until the end. Busy workers keep their
// slots while work is queued, so how many slices the waiters win varies
// (IdleServiceRunsSessionSolveOnCallersThread shows that they do). Every
// slice's trace span lies inside the time its slot was held, so at no
// instant may more spans overlap than there are slots.
TEST(ServiceSessionWaiter, MultiCallerStressNeverExceedsTheSlots) {
  constexpr int kSlots = 2;
  constexpr int kCallers = 4;
  constexpr int kRounds = 3;
  Telemetry hub;
  ServiceOptions options;
  options.num_workers = kSlots;
  options.slice_conflicts = 50;
  options.telemetry = &hub;
  SolverService service(options);

  std::vector<JobId> background;
  for (int i = 0; i < 2; ++i) {
    background.push_back(*service.submit(request_for(gen::pigeonhole(5))));
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      SessionRequest request;
      request.proof.log = true;
      request.proof.check = true;
      const auto session = service.open_session(request);
      if (!session.has_value()) {
        ++wrong;
        return;
      }
      const Cnf formula = gen::pigeonhole(6);
      for (int round = 0; round < kRounds; ++round) {
        const auto group = service.session_apply(*session, icnf::Op::push());
        if (!group.has_value()) {
          ++wrong;
          return;
        }
        for (const auto clause : formula.clauses()) {
          if (!service.session_apply(*session,
                                     icnf::Op::clause_to(*group, clause))) {
            ++wrong;
          }
        }
        JobResult result;
        if (!service.session_query(*session, {}, {}, result)) {
          ++wrong;
          return;
        }
        if (result.status != SolveStatus::unsatisfiable ||
            !result.proof_valid ||
            !service.session_apply(*session, icnf::Op::pop(*group))) {
          ++wrong;
        }
      }
      if (!service.close_session(*session)) ++wrong;
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const JobId id : background) {
    EXPECT_EQ(service.wait(id).status, SolveStatus::unsatisfiable);
  }
  service.shutdown(SolverService::Shutdown::drain);
  EXPECT_EQ(wrong.load(), 0);

  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.preemptions, 0u);

  std::vector<TaggedEvent> events;
  hub.trace().drain(&events);
  std::vector<std::pair<std::int64_t, int>> edges;  // (time, +1 / -1)
  for (const TaggedEvent& tagged : events) {
    if (tagged.event.kind != EventKind::slice) continue;
    edges.emplace_back(tagged.event.ts_ns, +1);
    edges.emplace_back(tagged.event.ts_ns + tagged.event.dur_ns, -1);
  }
  ASSERT_EQ(edges.size(), 2 * stats.slices);  // every slice was traced
  std::sort(edges.begin(), edges.end());  // an end sorts before a start
  int running = 0;
  int peak = 0;
  for (const auto& [time, step] : edges) {
    running += step;
    peak = std::max(peak, running);
  }
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, kSlots);
}

// A completion callback that throws where a caller ran the last slice:
// the exception reaches that caller, whose answer was collected once
// before the callback ran, and the session and the only slot are free
// again, so the service keeps answering.
TEST(ServiceSessionWaiter, ThrowingCallbackOnTheCallerLeavesNothingHeld) {
  SolverService service(ServiceOptions{.num_workers = 1});
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> throws_left{0};
  service.set_completion_callback([&](const JobResult&) {
    if (std::this_thread::get_id() == caller && throws_left.load() > 0) {
      --throws_left;
      throw std::runtime_error("callback failed");
    }
  });
  const SessionId session = *service.open_session({});
  add_formula(service, session, gen::pigeonhole(3));

  // An idle service runs a session query on its caller.
  throws_left = 1;
  JobResult answer;
  EXPECT_THROW((void)service.session_query(session, {}, {}, answer),
               std::runtime_error);
  EXPECT_EQ(throws_left.load(), 0);
  EXPECT_EQ(answer.session, session);
  EXPECT_EQ(answer.outcome, JobOutcome::completed);
  EXPECT_EQ(answer.status, SolveStatus::unsatisfiable);
  const std::optional<JobResult> next = ask(service, session);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->status, SolveStatus::unsatisfiable);
  EXPECT_GT(next->id, answer.id);

  // A submitted job wakes the worker, which may win the race for it; its
  // callback does not throw, and the caller tries again.
  bool thrown = false;
  for (int attempt = 0; attempt < 100 && !thrown; ++attempt) {
    throws_left = 1;
    const JobId id = *service.submit(request_for(gen::pigeonhole(3)));
    try {
      EXPECT_EQ(service.wait(id).status, SolveStatus::unsatisfiable);
    } catch (const std::runtime_error&) {
      thrown = true;
      EXPECT_THROW((void)service.wait(id), std::out_of_range);
      EXPECT_THROW((void)service.state(id), std::out_of_range);
    }
  }
  throws_left = 0;
  EXPECT_TRUE(thrown);
  const JobId fresh = *service.submit(request_for(gen::pigeonhole(3)));
  EXPECT_EQ(service.wait(fresh).outcome, JobOutcome::completed);
  EXPECT_TRUE(service.wait_all().empty());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.finished(), stats.submitted);
  EXPECT_TRUE(service.close_session(session));
}

}  // namespace
}  // namespace berkmin::service
