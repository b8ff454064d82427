// SolverService lifecycle, scheduling and limit handling: submission,
// time-sliced preemption, per-job budgets/deadlines, cancellation,
// priority aging, bounded admission, and both shutdown modes.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "service/solver_service.h"
#include "test_util.h"

namespace berkmin {
namespace {

using service::JobId;
using service::JobOutcome;
using service::JobRequest;
using service::JobResult;
using service::JobState;
using service::ServiceOptions;
using service::SolverService;

JobRequest request_for(Cnf cnf) {
  JobRequest request;
  request.cnf = std::move(cnf);
  return request;
}

TEST(Service, SolvesSatJobAndValidatesModel) {
  SolverService solving(ServiceOptions{.num_workers = 2});
  const Cnf cnf = testing::make_cnf({{1, 2}, {-1, 2}, {1, -2}});
  const std::optional<JobId> id = solving.submit(request_for(cnf));
  ASSERT_TRUE(id.has_value());

  const JobResult result = solving.wait(*id);
  EXPECT_EQ(result.status, SolveStatus::satisfiable);
  EXPECT_EQ(result.outcome, JobOutcome::completed);
  EXPECT_TRUE(cnf.is_satisfied_by(result.model));
  // wait() collected the result: the id is unknown from then on.
  EXPECT_THROW((void)solving.state(*id), std::out_of_range);
  EXPECT_GE(result.slices, 1u);
}

TEST(Service, SolvesUnsatJob) {
  SolverService solving(ServiceOptions{.num_workers = 2});
  const std::optional<JobId> id = solving.submit(request_for(gen::pigeonhole(5)));
  ASSERT_TRUE(id.has_value());
  const JobResult result = solving.wait(*id);
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_EQ(result.outcome, JobOutcome::completed);
}

TEST(Service, DefaultNameAndEcho) {
  SolverService solving(ServiceOptions{.num_workers = 1});
  JobRequest named = request_for(testing::make_cnf({{1}}));
  named.name = "my-query";
  const JobId a = *solving.submit(std::move(named));
  const JobId b = *solving.submit(request_for(testing::make_cnf({{1}})));
  EXPECT_EQ(solving.wait(a).name, "my-query");
  EXPECT_EQ(solving.wait(b).name, "job-" + std::to_string(b));
}

TEST(Service, TinySlicesForceManyPreemptions) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 50;
  SolverService solving(options);

  const JobResult result =
      solving.wait(*solving.submit(request_for(gen::pigeonhole(7))));
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_EQ(result.outcome, JobOutcome::completed);
  // hole(7) needs far more than 50 conflicts: the job must have been
  // preempted and resumed several times, keeping its state throughout.
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_EQ(result.slices, result.preemptions + 1);
  EXPECT_GT(result.conflicts, 50u);
}

TEST(Service, AssumptionsFailedSubsetSurvivesSlicing) {
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 10;
  SolverService solving(options);

  JobRequest request = request_for(testing::make_cnf({{-1, -2}, {5, 6}}));
  request.assumptions = testing::lits({3, 1, 4, 2});
  const JobResult result = solving.wait(*solving.submit(std::move(request)));
  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  ASSERT_FALSE(result.failed_assumptions.empty());
  const auto allowed = testing::lits({3, 1, 4, 2});
  for (const Lit l : result.failed_assumptions) {
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), l), allowed.end());
  }
}

TEST(Service, ModelHonorsAssumptions) {
  SolverService solving(ServiceOptions{.num_workers = 1, .slice_conflicts = 5});
  JobRequest request = request_for(testing::make_cnf({{1, 2}, {-1, 2}}));
  request.assumptions = testing::lits({-1});
  const JobResult result = solving.wait(*solving.submit(std::move(request)));
  ASSERT_EQ(result.status, SolveStatus::satisfiable);
  EXPECT_EQ(value_of_literal(result.model[0], from_dimacs(-1)),
            Value::true_value);
}

TEST(Service, ConflictBudgetExhaustsToUnknown) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 30;
  SolverService solving(options);

  JobRequest request = request_for(gen::pigeonhole(9));
  request.limits.max_conflicts = 100;
  const JobResult result = solving.wait(*solving.submit(std::move(request)));
  EXPECT_EQ(result.status, SolveStatus::unknown);
  EXPECT_EQ(result.outcome, JobOutcome::budget_exhausted);
  EXPECT_GE(result.conflicts, 100u);
  // The budget is a cap, not a target: 30-conflict slices may overshoot
  // the 100 by at most one slice.
  EXPECT_LE(result.conflicts, 100u + options.slice_conflicts);
}

TEST(Service, DeadlineExpiresWithoutPoisoningTheService) {
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 200;
  SolverService solving(options);

  JobRequest hard = request_for(gen::pigeonhole(10));
  hard.limits.deadline_seconds = 0.05;
  const JobId hard_id = *solving.submit(std::move(hard));
  const JobResult expired = solving.wait(hard_id);
  EXPECT_EQ(expired.status, SolveStatus::unknown);
  EXPECT_EQ(expired.outcome, JobOutcome::deadline_expired);

  // The service keeps serving: both a fresh easy job and a resubmission
  // of the very same formula (small enough to finish) still complete.
  const JobResult easy =
      solving.wait(*solving.submit(request_for(gen::pigeonhole(5))));
  EXPECT_EQ(easy.status, SolveStatus::unsatisfiable);
  const JobResult retry =
      solving.wait(*solving.submit(request_for(gen::pigeonhole(6))));
  EXPECT_EQ(retry.status, SolveStatus::unsatisfiable);
  EXPECT_EQ(solving.stats().deadline_expired, 1u);
}

TEST(Service, CancelQueuedJobNeverRuns) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 0;  // the long job holds the only worker
  SolverService solving(options);

  const JobId blocker = *solving.submit(request_for(gen::pigeonhole(10)));
  const JobId queued = *solving.submit(request_for(gen::pigeonhole(6)));
  EXPECT_TRUE(solving.cancel(queued));
  EXPECT_EQ(solving.state(queued), JobState::cancelled);
  const JobResult result = solving.wait(queued);
  EXPECT_EQ(result.outcome, JobOutcome::cancelled);
  EXPECT_EQ(result.slices, 0u);
  // Second cancel of a finished job reports false.
  EXPECT_FALSE(solving.cancel(queued));

  EXPECT_TRUE(solving.cancel(blocker));
  EXPECT_EQ(solving.wait(blocker).outcome, JobOutcome::cancelled);
}

TEST(Service, CancelRunningJobStopsMidSlice) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 0;  // one unbounded slice
  SolverService solving(options);

  const JobId id = *solving.submit(request_for(gen::pigeonhole(10)));
  while (solving.state(id) == JobState::queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(solving.cancel(id));
  while (solving.state(id) == JobState::running) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(solving.state(id), JobState::cancelled);
  const JobResult result = solving.wait(id);
  EXPECT_EQ(result.outcome, JobOutcome::cancelled);
  EXPECT_EQ(result.status, SolveStatus::unknown);
}

TEST(Service, ShutdownDrainFinishesEveryJob) {
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 25;
  SolverService solving(options);

  std::vector<JobId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(*solving.submit(
        request_for(gen::random_ksat(25, 100, 3, static_cast<std::uint64_t>(i)))));
  }
  solving.shutdown(SolverService::Shutdown::drain);
  for (const JobId id : ids) {
    EXPECT_EQ(solving.wait(id).outcome, JobOutcome::completed);
  }
  const auto stats = solving.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.finished(), stats.submitted);
  // Submission after shutdown is refused.
  EXPECT_FALSE(solving.submit(request_for(gen::pigeonhole(4))).has_value());
}

TEST(Service, ShutdownCancelPendingCancelsQueuedExactlyOnce) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 0;
  SolverService solving(options);

  const JobId running = *solving.submit(request_for(gen::pigeonhole(10)));
  std::vector<JobId> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(*solving.submit(request_for(gen::pigeonhole(6))));
  }
  solving.shutdown(SolverService::Shutdown::cancel_pending);

  EXPECT_EQ(solving.wait(running).outcome, JobOutcome::cancelled);
  for (const JobId id : queued) {
    EXPECT_EQ(solving.wait(id).outcome, JobOutcome::cancelled);
  }
  const auto stats = solving.stats();
  EXPECT_EQ(stats.submitted, 6u);
  // Every job terminal exactly once: the counters add up with no double
  // counting.
  EXPECT_EQ(stats.cancelled, 6u);
  EXPECT_EQ(stats.finished(), 6u);
}

TEST(Service, BoundedQueueRejectsTrySubmitWhenFull) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_pending = 2;
  options.slice_conflicts = 0;
  SolverService solving(options);

  const JobId a = *solving.submit(request_for(gen::pigeonhole(10)));
  const JobId b = *solving.submit(request_for(gen::pigeonhole(10)));
  EXPECT_FALSE(solving.try_submit(request_for(gen::pigeonhole(4))).has_value());
  EXPECT_GE(solving.stats().rejected, 1u);

  // Freeing a slot re-opens admission (and unblocks blocking submits).
  EXPECT_TRUE(solving.cancel(b));
  solving.wait(b);
  EXPECT_TRUE(solving.try_submit(request_for(testing::make_cnf({{1}}))).has_value());
  solving.cancel(a);
}

TEST(Service, ShortJobsAreNotStarvedBehindALongOne) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 20;
  SolverService solving(options);

  std::vector<JobId> completion_order;
  std::mutex order_mutex;
  solving.set_completion_callback([&](const JobResult& result) {
    std::lock_guard<std::mutex> lock(order_mutex);
    completion_order.push_back(result.id);
  });

  const JobId longer = *solving.submit(request_for(gen::pigeonhole(8)));
  std::vector<JobId> shorts;
  for (int i = 0; i < 5; ++i) {
    shorts.push_back(*solving.submit(request_for(testing::make_cnf({{1, 2}}))));
  }
  solving.shutdown(SolverService::Shutdown::drain);

  ASSERT_EQ(completion_order.size(), 6u);
  // Time slicing means every trivial job finished before the long one,
  // even though the long one was submitted first.
  EXPECT_EQ(completion_order.back(), longer);
  EXPECT_GT(solving.wait(longer).preemptions, 0u);
  for (const JobId id : shorts) {
    EXPECT_EQ(solving.wait(id).outcome, JobOutcome::completed);
  }
}

TEST(Service, HigherPriorityRunsFirst) {
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 0;
  SolverService solving(options);

  std::vector<JobId> completion_order;
  std::mutex order_mutex;
  solving.set_completion_callback([&](const JobResult& result) {
    std::lock_guard<std::mutex> lock(order_mutex);
    completion_order.push_back(result.id);
  });

  // The blocker owns the only worker while both competitors queue up: wait
  // until the worker has picked it up, or it would run the high-priority
  // job first.
  const JobId blocker = *solving.submit(request_for(gen::pigeonhole(10)));
  while (solving.state(blocker) != JobState::running) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  JobRequest low = request_for(gen::pigeonhole(5));
  low.limits.priority = 0;
  const JobId low_id = *solving.submit(std::move(low));
  JobRequest high = request_for(gen::pigeonhole(5));
  high.limits.priority = 3;
  const JobId high_id = *solving.submit(std::move(high));

  solving.cancel(blocker);
  solving.shutdown(SolverService::Shutdown::drain);

  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], blocker);  // cancelled first
  EXPECT_EQ(completion_order[1], high_id);
  EXPECT_EQ(completion_order[2], low_id);
}

TEST(Service, PortfolioEscalationSolvesJob) {
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 200;
  SolverService solving(options);

  JobRequest unsat = request_for(gen::pigeonhole(6));
  unsat.limits.threads = 2;
  JobRequest sat = request_for(gen::random_ksat(20, 60, 3, 3));
  sat.limits.threads = 2;
  const Cnf sat_cnf = sat.cnf;

  const JobId unsat_id = *solving.submit(std::move(unsat));
  const JobId sat_id = *solving.submit(std::move(sat));
  EXPECT_EQ(solving.wait(unsat_id).status, SolveStatus::unsatisfiable);
  const JobResult sat_result = solving.wait(sat_id);
  ASSERT_EQ(sat_result.status, SolveStatus::satisfiable);
  EXPECT_TRUE(sat_cnf.is_satisfied_by(sat_result.model));
}

TEST(Service, WaitAllReturnsEveryResultInIdOrder) {
  ServiceOptions options;
  options.num_workers = 3;
  options.slice_conflicts = 40;
  SolverService solving(options);

  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(*solving.submit(
        request_for(gen::random_ksat(20, 80, 3, static_cast<std::uint64_t>(i)))));
  }
  const std::vector<JobResult> results = solving.wait_all();
  ASSERT_EQ(results.size(), ids.size());
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[i - 1].id, results[i].id);
  }
  for (const JobResult& result : results) {
    EXPECT_EQ(result.outcome, JobOutcome::completed);
  }
}

TEST(Service, UnknownIdThrows) {
  SolverService solving(ServiceOptions{.num_workers = 1});
  EXPECT_THROW(solving.state(1234), std::out_of_range);
  EXPECT_THROW(solving.wait(1234), std::out_of_range);
}

TEST(Service, StatsAreCoherentAfterMixedOutcomes) {
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 50;
  SolverService solving(options);

  const JobId done = *solving.submit(request_for(gen::pigeonhole(5)));
  JobRequest budget = request_for(gen::pigeonhole(9));
  budget.limits.max_conflicts = 60;
  const JobId exhausted = *solving.submit(std::move(budget));
  JobRequest deadline = request_for(gen::pigeonhole(10));
  deadline.limits.deadline_seconds = 0.02;
  const JobId expired = *solving.submit(std::move(deadline));
  solving.wait(done);
  solving.wait(exhausted);
  solving.wait(expired);

  const auto stats = solving.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.budget_exhausted, 1u);
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.finished(), 3u);
  EXPECT_GE(stats.slices, 3u);
  EXPECT_GT(stats.conflicts, 0u);
  EXPECT_LE(stats.peak_pending, 3u);
}

}  // namespace
}  // namespace berkmin
