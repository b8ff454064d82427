// How often a query reads the service clock. The clock_skew fault site is
// consulted on every read, so arming it at rate 1.0 with a zero skew turns
// FaultInjector::fires() into a read counter that changes nothing else.
// The reads that stay: admission stamps submit_time, each dispatch stamps
// its slice start, finishing stamps wall_seconds; a deadline adds the slice
// budget's read and settle's deadline check, which shares the finishing
// read on the last slice.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>

#include "gen/pigeonhole.h"
#include "service/solver_service.h"
#include "service_test_util.h"
#include "util/fault.h"

namespace berkmin::service {
namespace {

using util::FaultInjector;
using util::FaultPlan;
using util::FaultSite;

// A deadline no query here comes near.
constexpr double kFarDeadline = 1000.0;

// Counts service clock reads while it lives.
class ClockReads {
 public:
  ClockReads() : injector_(plan()) {
    previous_ = util::install_fault_injector(&injector_);
  }
  ~ClockReads() { util::install_fault_injector(previous_); }
  ClockReads(const ClockReads&) = delete;
  ClockReads& operator=(const ClockReads&) = delete;

  std::uint64_t count() const {
    return injector_.fires(FaultSite::clock_skew);
  }

 private:
  static FaultPlan plan() {
    FaultPlan plan;
    plan.skew_seconds = 0.0;
    plan.arm(FaultSite::clock_skew, 1.0, 1u << 30);
    return plan;
  }

  FaultInjector injector_;
  FaultInjector* previous_ = nullptr;
};

// The reads of one query on a fresh one-slot session, run on the caller.
std::uint64_t session_query_reads(JobLimits limits) {
  SolverService service({.num_workers = 1});
  const std::optional<SessionId> session = service.open_session({});
  if (!session.has_value()) {
    ADD_FAILURE() << "open_session refused";
    return 0;
  }
  const Cnf hole = gen::pigeonhole(3);
  for (const auto clause : hole.clauses()) {
    EXPECT_TRUE(service.session_apply(*session, icnf::Op::clause(clause)));
  }
  ClockReads reads;
  const std::optional<JobResult> answer =
      berkmin::testing::ask(service, *session, {}, limits);
  if (!answer.has_value()) {
    ADD_FAILURE() << "session_query refused";
    return 0;
  }
  EXPECT_EQ(answer->status, SolveStatus::unsatisfiable);
  EXPECT_EQ(answer->slices, 1u);
  return reads.count();
}

// The reads of pigeonhole(5) as a one-shot job cut into one-conflict
// slices, and the number of slices it took.
std::pair<std::uint64_t, std::uint64_t> sliced_job_reads(JobLimits limits) {
  SolverService service({.num_workers = 1, .slice_conflicts = 1});
  JobRequest request;
  request.cnf = gen::pigeonhole(5);
  request.limits = limits;
  ClockReads reads;
  const std::optional<JobId> id = service.submit(std::move(request));
  if (!id.has_value()) {
    ADD_FAILURE() << "submit refused";
    return {0, 0};
  }
  const JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, JobOutcome::completed);
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_GT(result.slices, 100u);
  return {reads.count(), result.slices};
}

#ifdef BERKMIN_FAULTS
#define SKIP_WITHOUT_FAULT_SITES()
#else
#define SKIP_WITHOUT_FAULT_SITES() \
  GTEST_SKIP() << "built without BERKMIN_FAULTS: no clock read counter"
#endif

TEST(ServiceClock, SessionQueryReadsAdmissionDispatchAndFinish) {
  SKIP_WITHOUT_FAULT_SITES();
  EXPECT_EQ(session_query_reads({}), 3u);
}

TEST(ServiceClock, DeadlineAddsOnlyTheSliceBudgetRead) {
  SKIP_WITHOUT_FAULT_SITES();
  EXPECT_EQ(session_query_reads({.deadline_seconds = kFarDeadline}), 4u);
}

TEST(ServiceClock, PreemptedSliceWithoutDeadlineReadsOnlyAtDispatch) {
  SKIP_WITHOUT_FAULT_SITES();
  const auto [reads, slices] = sliced_job_reads({});
  EXPECT_EQ(reads, 2 + slices);
}

TEST(ServiceClock, DeadlineSliceReadsDispatchBudgetAndSettleOnce) {
  SKIP_WITHOUT_FAULT_SITES();
  const auto [reads, slices] =
      sliced_job_reads({.deadline_seconds = kFarDeadline});
  EXPECT_EQ(reads, 1 + 3 * slices);
}

}  // namespace
}  // namespace berkmin::service
