// A long-lived service holds only what is in flight: every result is
// collected once, by wait() or by the session query that asked it, so
// after thousands of one-shot jobs and session queries the job table is
// empty, and once warm the process's resident set stays flat. Run under
// TSan via the "service" label.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "engines/backend.h"
#include "gen/pigeonhole.h"
#include "service/solver_service.h"

namespace berkmin::service {
namespace {

TEST(ServiceSoak, EveryResultIsCollectedOnce) {
  constexpr int kJobs = 10000;
  constexpr int kQueries = 10000;
  SolverService service({.num_workers = 1});
  const Cnf hole = gen::pigeonhole(3);

  JobId last = invalid_job;
  for (int i = 0; i < kJobs; ++i) {
    JobRequest request;
    request.cnf = hole;
    const std::optional<JobId> id = service.submit(std::move(request));
    ASSERT_TRUE(id.has_value());
    ASSERT_EQ(service.wait(*id).status, SolveStatus::unsatisfiable);
    last = *id;
  }

  engines::SessionBackend session(service, {});
  ASSERT_TRUE(session.alive());
  for (const auto clause : hole.clauses()) {
    ASSERT_TRUE(session.add_clause(clause));
  }
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(session.solve({}, Budget::unlimited()),
              SolveStatus::unsatisfiable)
        << session.last_error();
  }

  EXPECT_TRUE(service.wait_all().empty());
  EXPECT_THROW((void)service.state(last), std::out_of_range);
  EXPECT_THROW((void)service.state(session.last_result().id),
               std::out_of_range);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kJobs + kQueries));
  EXPECT_EQ(stats.finished(), stats.submitted);
  EXPECT_EQ(stats.session_solves, static_cast<std::uint64_t>(kQueries));
}

// VmRSS of this process in kB (/proc/self/status); 0 where it is unknown.
std::uint64_t resident_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// ThreadSanitizer makes a job or query ~40x dearer: there, the largest
// count that keeps the test near 10 s.
#if defined(__SANITIZE_THREAD__)
constexpr int kRuns = 10000;
#else
constexpr int kRuns = 100000;
#endif

TEST(ServiceSoak, ResidentSetStaysFlatOnceWarm) {
  constexpr int kWarmup = 10000;
  constexpr std::uint64_t kGrowthKb = 1024;
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer's quarantine keeps freed blocks resident";
#endif
  if (resident_kb() == 0) GTEST_SKIP() << "no VmRSS in /proc/self/status";
  SolverService service({.num_workers = 1});
  const Cnf hole = gen::pigeonhole(3);
  engines::SessionBackend session(service, {});
  ASSERT_TRUE(session.alive());
  for (const auto clause : hole.clauses()) {
    ASSERT_TRUE(session.add_clause(clause));
  }

  std::uint64_t before = 0;
  for (const int runs : {kWarmup, kRuns}) {
    before = resident_kb();
    for (int i = 0; i < runs; ++i) {
      JobRequest request;
      request.cnf = hole;
      const std::optional<JobId> id = service.submit(std::move(request));
      ASSERT_TRUE(id.has_value());
      ASSERT_EQ(service.wait(*id).status, SolveStatus::unsatisfiable);
    }
    for (int i = 0; i < runs; ++i) {
      ASSERT_EQ(session.solve({}, Budget::unlimited()),
                SolveStatus::unsatisfiable)
          << session.last_error();
    }
  }
  const std::uint64_t after = resident_kb();
  EXPECT_LE(after, before + kGrowthKb)
      << "VmRSS grew from " << before << " kB to " << after << " kB over "
      << kRuns << " one-shot jobs and " << kRuns << " session queries";
  EXPECT_TRUE(service.wait_all().empty());
  EXPECT_EQ(service.stats().finished(), service.stats().submitted);
}

}  // namespace
}  // namespace berkmin::service
