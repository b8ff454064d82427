// Concurrency stress for SolverService, written to run under
// ThreadSanitizer: concurrent submit/cancel/shutdown from multiple
// producer threads, deadline expiry under load, many waiters on one job,
// and exactly-once terminal accounting through a racing shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
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
using service::ServiceOptions;
using service::SolverService;

JobRequest small_job(std::uint64_t seed) {
  JobRequest request;
  request.cnf = gen::random_ksat(18, 70, 3, seed);
  return request;
}

TEST(ServiceStress, ConcurrentSubmitCancelAndDrainingShutdown) {
  ServiceOptions options;
  options.num_workers = 4;
  options.slice_conflicts = 25;
  SolverService solving(options);

  // Exactly-once delivery check: every terminal job id must arrive at the
  // completion callback exactly once.
  std::mutex seen_mutex;
  std::multiset<JobId> delivered;
  solving.set_completion_callback([&](const JobResult& result) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    delivered.insert(result.id);
  });

  constexpr int kProducers = 4;
  constexpr int kJobsPerProducer = 25;
  std::mutex ids_mutex;
  std::vector<JobId> ids;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kJobsPerProducer; ++i) {
        const auto id = solving.submit(
            small_job(static_cast<std::uint64_t>(p * 1000 + i)));
        if (!id) continue;
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.push_back(*id);
      }
    });
  }
  // A canceller races the producers and the workers.
  std::thread canceller([&] {
    for (int round = 0; round < 50; ++round) {
      JobId victim = 0;
      {
        std::lock_guard<std::mutex> lock(ids_mutex);
        if (!ids.empty()) {
          victim = ids[static_cast<std::size_t>(round) % ids.size()];
        }
      }
      if (victim != 0) solving.cancel(victim);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : producers) t.join();
  canceller.join();
  solving.shutdown(SolverService::Shutdown::drain);

  const auto stats = solving.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(ids.size()));
  EXPECT_EQ(stats.finished(), stats.submitted);
  // Exactly once: as many deliveries as jobs and no duplicates.
  std::lock_guard<std::mutex> lock(seen_mutex);
  EXPECT_EQ(delivered.size(), ids.size());
  for (const JobId id : ids) {
    EXPECT_EQ(delivered.count(id), 1u) << "job " << id;
    const JobResult result = solving.wait(id);
    EXPECT_TRUE(result.outcome == JobOutcome::completed ||
                result.outcome == JobOutcome::cancelled)
        << "job " << id;
  }
}

TEST(ServiceStress, RacingCancelPendingShutdownAccountsEveryJobOnce) {
  for (int round = 0; round < 3; ++round) {
    ServiceOptions options;
    options.num_workers = 3;
    options.slice_conflicts = 20;
    SolverService solving(options);

    std::atomic<std::uint64_t> submitted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 20; ++i) {
          if (solving.submit(small_job(
                  static_cast<std::uint64_t>(round * 100 + p * 31 + i)))) {
            submitted.fetch_add(1);
          }
        }
      });
    }
    // Two threads race shutdown against the producers and each other.
    std::thread stopper_a(
        [&] { solving.shutdown(SolverService::Shutdown::cancel_pending); });
    std::thread stopper_b(
        [&] { solving.shutdown(SolverService::Shutdown::cancel_pending); });
    for (std::thread& t : producers) t.join();
    stopper_a.join();
    stopper_b.join();

    const auto stats = solving.stats();
    EXPECT_EQ(stats.submitted, submitted.load());
    EXPECT_EQ(stats.finished(), stats.submitted)
        << "round " << round << ": some job never reached a terminal state "
        << "or reached two";
  }
}

TEST(ServiceStress, DeadlineJobsUnderLoadDontPoisonTheService) {
  ServiceOptions options;
  options.num_workers = 4;
  options.slice_conflicts = 100;
  SolverService solving(options);

  // Hard jobs with tight deadlines interleaved with easy ones.
  std::vector<JobId> hard_ids;
  std::vector<JobId> easy_ids;
  std::vector<std::thread> producers;
  std::mutex id_mutex;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 6; ++i) {
        JobRequest hard;
        hard.cnf = gen::pigeonhole(9);
        hard.limits.deadline_seconds = 0.02;
        const auto hard_id = solving.submit(std::move(hard));
        const auto easy_id = solving.submit(
            small_job(static_cast<std::uint64_t>(p * 50 + i)));
        std::lock_guard<std::mutex> lock(id_mutex);
        if (hard_id) hard_ids.push_back(*hard_id);
        if (easy_id) easy_ids.push_back(*easy_id);
      }
    });
  }
  for (std::thread& t : producers) t.join();

  for (const JobId id : easy_ids) {
    EXPECT_EQ(solving.wait(id).outcome, JobOutcome::completed);
  }
  for (const JobId id : hard_ids) {
    const JobResult result = solving.wait(id);
    EXPECT_TRUE(result.outcome == JobOutcome::deadline_expired ||
                result.outcome == JobOutcome::completed);
    if (result.outcome == JobOutcome::deadline_expired) {
      EXPECT_EQ(result.status, SolveStatus::unknown);
    }
  }
}

TEST(ServiceStress, ManyWaitersOnOneJobOneCollectsTheResult) {
  // A result is collected once: of several callers waiting on one job, the
  // first back gets the result and every other one finds the id gone,
  // whether it was already waiting or arrived after the collection.
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 30;
  SolverService solving(options);

  const JobId id = *solving.submit([] {
    JobRequest request;
    request.cnf = gen::pigeonhole(6);
    return request;
  }());

  constexpr int kWaiters = 6;
  std::vector<std::thread> waiters;
  std::atomic<int> collected{0};
  std::atomic<int> gone{0};
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      try {
        const JobResult result = solving.wait(id);
        if (result.status == SolveStatus::unsatisfiable &&
            result.outcome == JobOutcome::completed) {
          collected.fetch_add(1);
        }
      } catch (const std::out_of_range&) {
        gone.fetch_add(1);
      }
    });
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(collected.load(), 1);
  EXPECT_EQ(gone.load(), kWaiters - 1);
  EXPECT_THROW((void)solving.state(id), std::out_of_range);
  EXPECT_TRUE(solving.wait_all().empty());
}

}  // namespace
}  // namespace berkmin
