// Telemetry across the service layer: stats aggregation over preemption
// slices (a job preempted N times reports the same totals as an
// unpreempted same-budget run, and the hub counters agree with the job
// result exactly), portfolio escalation accounting, lifecycle events on
// the control ring, latency histograms, and a concurrent stress test that
// snapshots the registry and drains the rings from a reader thread while
// portfolio jobs and session solves are in flight (run under TSan via the
// "service" label).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "service/solver_service.h"
#include "service_test_util.h"
#include "telemetry/telemetry.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin::service {
namespace {

using berkmin::testing::ask;
using berkmin::testing::lits;
using berkmin::testing::make_cnf;
using telemetry::EventKind;
using telemetry::MetricsSnapshot;
using telemetry::TaggedEvent;
using telemetry::Telemetry;

JobRequest request_for(Cnf cnf) {
  JobRequest request;
  request.cnf = std::move(cnf);
  return request;
}

// ---- satellite: stats aggregation across preemption slices -----------------

TEST(ServiceTelemetry, PreemptedJobReportsSameTotalsAsUnpreemptedRun) {
  // The same hard instance under the same total conflict budget, run once
  // as one uninterrupted slice and once chopped into many tiny slices.
  // Slicing must be invisible in the accounting: both runs exhaust the
  // budget after exactly the same number of conflicts.
  const Cnf hole = gen::pigeonhole(8);
  constexpr std::uint64_t kBudget = 2000;

  JobResult whole;
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.slice_conflicts = 0;  // run to completion in one slice
    SolverService service(options);
    JobRequest request = request_for(hole);
    request.limits.max_conflicts = kBudget;
    whole = service.wait(*service.submit(std::move(request)));
  }
  ASSERT_EQ(whole.outcome, JobOutcome::budget_exhausted);
  EXPECT_EQ(whole.slices, 1u);
  EXPECT_EQ(whole.preemptions, 0u);

  JobResult sliced;
  MetricsSnapshot snap;
  Telemetry hub;
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.slice_conflicts = 250;
    options.telemetry = &hub;
    SolverService service(options);
    JobRequest request = request_for(hole);
    request.limits.max_conflicts = kBudget;
    sliced = service.wait(*service.submit(std::move(request)));
    snap = service.metrics_snapshot();
  }
  ASSERT_EQ(sliced.outcome, JobOutcome::budget_exhausted);
  EXPECT_GE(sliced.preemptions, 7u);  // 2000 conflicts / 250 per slice
  EXPECT_EQ(sliced.slices, sliced.preemptions + 1);

  // The aggregation regression: per-slice deltas must sum to the whole.
  EXPECT_EQ(sliced.conflicts, whole.conflicts);
  EXPECT_EQ(sliced.conflicts, kBudget);

  // And the hub counters (flushed as deltas at the end of every slice)
  // must agree with the job result exactly — no double counting, no
  // dropped slices.
  EXPECT_EQ(snap.counters.at("solver.conflicts"), sliced.conflicts);
  EXPECT_EQ(snap.counters.at("solver.decisions"), sliced.decisions);
  EXPECT_EQ(snap.counters.at("solver.propagations"), sliced.propagations);
  EXPECT_EQ(snap.counters.at("service.slices"), sliced.slices);
  EXPECT_EQ(snap.counters.at("service.preemptions"), sliced.preemptions);
  EXPECT_EQ(snap.counters.at("service.conflicts"), sliced.conflicts);
}

TEST(ServiceTelemetry, PortfolioEscalatedSlicedJobAccountsAllWorkers) {
  Telemetry hub;
  ServiceOptions options;
  options.num_workers = 1;
  options.slice_conflicts = 400;
  options.telemetry = &hub;
  SolverService service(options);

  JobRequest request = request_for(gen::pigeonhole(8));
  request.limits.max_conflicts = 1500;
  request.limits.threads = 2;
  const JobResult result = service.wait(*service.submit(std::move(request)));

  ASSERT_EQ(result.outcome, JobOutcome::budget_exhausted);
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_EQ(result.slices, result.preemptions + 1);
  // The job's conflicts are summed across the racing engines, so the
  // total must at least reach the per-job budget.
  EXPECT_GE(result.conflicts, 1500u);
  EXPECT_GT(result.decisions, 0u);
  EXPECT_GT(result.propagations, 0u);

  // The portfolio engines publish into the same hub counters.
  const MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("solver.conflicts"), result.conflicts);
  EXPECT_EQ(snap.counters.at("service.conflicts"), result.conflicts);
}

// ---- lifecycle events + histograms -----------------------------------------

TEST(ServiceTelemetry, ControlRingCarriesJobAndSessionLifecycle) {
  Telemetry hub;
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 100;
  options.telemetry = &hub;
  SolverService service(options);

  JobRequest high = request_for(gen::pigeonhole(6));
  high.limits.priority = 1;
  JobRequest low = request_for(make_cnf({{1, 2}, {-1, 2}}));
  low.limits.priority = -1;
  const JobId a = *service.submit(std::move(high));
  const JobId b = *service.submit(std::move(low));

  const auto sid = service.open_session({.name = "inc"});
  ASSERT_TRUE(sid.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({-1}))));
  ASSERT_TRUE(ask(service, *sid).has_value());
  service.wait(a);
  service.wait(b);
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_TRUE(service.close_session(*sid));
  service.shutdown();

  std::set<EventKind> kinds;
  std::uint64_t slice_spans = 0;
  for (const TaggedEvent& e : hub.drain_trace()) {
    kinds.insert(e.event.kind);
    if (e.event.kind == EventKind::slice) {
      ++slice_spans;
      EXPECT_GT(e.event.dur_ns, 0);
    }
  }
  EXPECT_TRUE(kinds.count(EventKind::job_queued));
  EXPECT_TRUE(kinds.count(EventKind::job_dispatch));
  EXPECT_TRUE(kinds.count(EventKind::job_complete));
  EXPECT_TRUE(kinds.count(EventKind::session_push));
  EXPECT_TRUE(kinds.count(EventKind::session_pop));
  EXPECT_TRUE(kinds.count(EventKind::solve));
  EXPECT_GE(slice_spans, 3u);  // at least one per job

  // Latency histograms: one slice-latency sample per slice, one wait
  // sample per job in its priority class, one session-solve latency.
  const MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_GE(snap.histograms.at("service.slice_latency_ns").count, 3u);
  EXPECT_EQ(snap.histograms.at("service.job_wait_ns.high").count, 1u);
  EXPECT_EQ(snap.histograms.at("service.job_wait_ns.low").count, 1u);
  EXPECT_EQ(snap.histograms.at("service.job_wait_ns.normal").count, 1u);
  EXPECT_EQ(snap.histograms.at("service.session_solve_latency_ns").count, 1u);

  // metrics_snapshot merges the exact ServiceStats as service.* counters.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(snap.counters.at("service.jobs_submitted"), stats.submitted);
  EXPECT_EQ(snap.counters.at("service.jobs_completed"), stats.completed);
  EXPECT_EQ(snap.counters.at("service.slices"), stats.slices);
  EXPECT_EQ(snap.counters.at("service.sessions_opened"), 1u);
  EXPECT_EQ(snap.counters.at("service.session_solves"), 1u);
  EXPECT_EQ(snap.counters.at("service.session_clauses_added"), 2u);
}

TEST(ServiceTelemetry, SessionClauseAdditionsAreCounted) {
  SolverService service(ServiceOptions{.num_workers = 1});
  SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  const auto sid = service.open_session(request);
  ASSERT_TRUE(sid.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
  const std::optional<GroupId> group =
      service.session_apply(*sid, icnf::Op::push());
  ASSERT_TRUE(group.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({-1, 3}))));
  ASSERT_TRUE(
      service.session_apply(*sid, icnf::Op::clause_to(*group, lits({-2, 3}))));
  // Refused additions (a group that is not live, a closed session) add
  // nothing and count nothing.
  EXPECT_FALSE(service.session_apply(
      *sid, icnf::Op::clause_to(*group + 100, lits({4}))));
  EXPECT_EQ(service.stats().session_clauses_added, 3u);
  EXPECT_TRUE(service.close_session(*sid));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::clause(lits({5}))));

  const MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("service.session_clauses_added"), 3u);
}

TEST(ServiceTelemetry, MetricsSnapshotWorksWithoutHub) {
  SolverService service(ServiceOptions{.num_workers = 1});
  service.wait(*service.submit(request_for(make_cnf({{1}}))));
  const MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("service.jobs_submitted"), 1u);
  EXPECT_EQ(snap.counters.at("service.jobs_completed"), 1u);
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(ServiceTelemetry, EveryListedCounterIsInTheSnapshot) {
  SolverService service(ServiceOptions{.num_workers = 1});
  service.wait(*service.submit(request_for(make_cnf({{1}}))));
  const MetricsSnapshot snap = service.metrics_snapshot();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(std::size(kServiceCounters), 21u);
  for (const ServiceCounter& counter : kServiceCounters) {
    const std::string name = std::string("service.") + counter.metric;
    ASSERT_TRUE(snap.counters.contains(name)) << name;
    EXPECT_EQ(snap.counters.at(name), stats.*counter.member) << name;
  }
  EXPECT_TRUE(snap.counters.contains("service.solve_ns"));
}

// ---- satellite: concurrent snapshot/drain stress (TSan) --------------------

TEST(ServiceTelemetry, SnapshotAndDrainRaceRunningSolves) {
  Telemetry hub;
  ServiceOptions options;
  options.num_workers = 2;
  options.slice_conflicts = 60;
  options.telemetry = &hub;
  SolverService service(options);

  // A reader hammers every concurrent-read surface while solves run:
  // registry snapshots, the merged service snapshot, ring drains, and the
  // serializers.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const MetricsSnapshot live = service.metrics_snapshot();
      const std::vector<TaggedEvent> events = hub.drain_trace();
      (void)events;
      (void)live.to_prometheus();
      snapshots.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  // Portfolio-escalated job racing two engines through the shared hub.
  JobRequest escalated = request_for(gen::pigeonhole(7));
  escalated.limits.threads = 2;
  escalated.limits.max_conflicts = 4000;
  const JobId hard = *service.submit(std::move(escalated));

  // A session issuing several incremental queries.
  const auto sid = service.open_session({.name = "stress"});
  ASSERT_TRUE(sid.has_value());
  Rng rng(7);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
    const Cnf cnf = gen::random_ksat(30, 120, 3, rng.next_u64());
    for (const auto& clause : cnf.clauses()) {
      ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(clause)));
    }
    ASSERT_TRUE(ask(service, *sid).has_value());
    ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  }

  // Plain sliced jobs to keep both workers busy.
  std::vector<JobId> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(*service.submit(request_for(gen::pigeonhole(6))));
  }
  for (const JobId id : jobs) {
    EXPECT_EQ(service.wait(id).status, SolveStatus::unsatisfiable);
  }
  service.wait(hard);
  EXPECT_TRUE(service.close_session(*sid));

  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(snapshots.load(), 0u);

  // Everything still adds up after the dust settles.
  const MetricsSnapshot snap = service.metrics_snapshot();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(snap.counters.at("service.jobs_submitted"), stats.submitted);
  EXPECT_EQ(stats.submitted, 9u);  // 1 escalated + 4 session + 4 plain
  EXPECT_GT(snap.counters.at("solver.conflicts"), 0u);
  EXPECT_GE(snap.histograms.at("service.slice_latency_ns").count,
            stats.slices > 0 ? 1u : 0u);
}

}  // namespace
}  // namespace berkmin::service
