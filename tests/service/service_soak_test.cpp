// A long-lived service holds only what is in flight: every result is
// collected once, by wait() or by the session query that asked it, so
// after thousands of one-shot jobs and session queries the job table is
// empty. Run under TSan via the "service" label.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
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

}  // namespace
}  // namespace berkmin::service
