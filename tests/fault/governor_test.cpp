// Resource-governor behaviour: memory budgets degrading solvers in tiers
// instead of dying, service watchdogs preempting stuck slices, pressure
// refusing admission, slice-death retries with bounded give-up, and
// session poisoning after an engine dies mid-solve.
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "gtest/gtest.h"
#include "reference/brute_force.h"
#include "reference/dpll.h"
#include "service/solver_service.h"
#include "telemetry/telemetry.h"
#include "util/fault.h"
#include "util/memory_budget.h"

namespace berkmin {
namespace {

using util::FaultInjector;
using util::FaultPlan;
using util::FaultSite;
using util::MemoryBudget;

struct ScopedInjector {
  explicit ScopedInjector(FaultInjector* injector)
      : previous(util::install_fault_injector(injector)) {}
  ~ScopedInjector() { util::install_fault_injector(previous); }
  FaultInjector* previous;
};

TEST(MemoryGovernor, SoftPressureDegradesButStaysCorrect) {
  // The budget sits in the soft band before the solver even loads (other
  // tenants of a shared process hold most of the limit). Every restart
  // must then run the emergency glue-core reduction — a recorded degrade
  // event — and the answer must still match the reference solver.
  std::uint64_t total_degrades = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Cnf cnf = gen::random_ksat(30, 128, 3, seed);
    const reference::DpllResult expected = reference::dpll_solve(cnf);
    ASSERT_TRUE(expected.completed);
    MemoryBudget budget(1 << 20);
    budget.charge(750 * 1024);  // ~73% of the limit: soft pressure
    SolverOptions options;
    options.restart_interval = 1;  // degrade ladder runs at every restart
    Solver solver(options);
    solver.set_memory_budget(&budget);
    solver.load(cnf);
    const SolveStatus status = solver.solve();
    ASSERT_NE(status, SolveStatus::unknown) << "seed " << seed;
    EXPECT_EQ(status == SolveStatus::satisfiable, expected.satisfiable)
        << "seed " << seed;
    if (solver.stats().restarts > 0) {
      EXPECT_GT(budget.degrade_events(), 0u) << "seed " << seed;
      EXPECT_GT(solver.stats().pressure_reductions, 0u) << "seed " << seed;
    }
    total_degrades += budget.degrade_events();
    solver.set_memory_budget(nullptr);  // release the charge for the next run
    EXPECT_EQ(budget.used(), 750u * 1024u);
  }
  EXPECT_GT(total_degrades, 0u);
}

TEST(MemoryGovernor, PinnedCriticalBudgetStillTerminates) {
  // A budget that can never leave the critical band (external charge the
  // emergency reductions cannot touch — the CLI equivalent is a
  // --memory-budget smaller than the base formula). Lemma storage is
  // denied almost always, but the escape valve admits one lemma per
  // deny streak, so even an UNSAT refutation must terminate and agree.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Cnf cnf = gen::pigeonhole(4);  // UNSAT: needs real learning
    MemoryBudget budget(1000);
    budget.charge(990);  // critical, forever
    SolverOptions options;
    options.seed = seed;
    Solver solver(options);
    solver.set_memory_budget(&budget);
    solver.load(cnf);
    EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable) << "seed " << seed;
    EXPECT_GT(solver.stats().no_learn_restarts, 0u) << "seed " << seed;
    EXPECT_GT(budget.degrade_events(), 0u) << "seed " << seed;
    solver.set_memory_budget(nullptr);
  }

  // A refutation that genuinely needs accumulated lemmas: the ladder must
  // declare the pinned budget infeasible (emergency reductions can never
  // leave the critical band) and finish at full strength instead of
  // shedding the database forever.
  const Cnf hard = gen::pigeonhole(6);
  MemoryBudget budget(1000);
  budget.charge(990);
  SolverOptions options;
  options.restart_interval = 100;  // reach the declaration streak quickly
  Solver solver(options);
  solver.set_memory_budget(&budget);
  solver.load(hard);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  if (solver.stats().pressure_reductions >= 8) {
    EXPECT_EQ(solver.stats().budget_infeasible_solves, 1u);
  }
  solver.set_memory_budget(nullptr);
}

TEST(MemoryGovernor, UnlimitedBudgetChangesNothing) {
  const Cnf cnf = gen::random_ksat(20, 85, 3, 7);
  MemoryBudget budget;  // limit 0 = unlimited
  Solver governed;
  governed.set_memory_budget(&budget);
  governed.load(cnf);
  Solver plain;
  plain.load(cnf);
  EXPECT_EQ(governed.solve(), plain.solve());
  EXPECT_EQ(governed.stats().decisions, plain.stats().decisions);
  EXPECT_EQ(budget.degrade_events(), 0u);
  EXPECT_GT(budget.used(), 0u);  // bookkeeping ran, just never pressured
}

TEST(ServiceGovernor, CriticalPressureRefusesAdmission) {
  MemoryBudget budget(1000);
  budget.charge(960);  // ≥95% — critical
  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.memory_budget = &budget;
  service::SolverService service(sopts);

  service::JobRequest request;
  request.cnf = gen::random_ksat(8, 30, 3, 1);
  EXPECT_FALSE(service.submit(std::move(request)).has_value());
  EXPECT_FALSE(service.open_session({}).has_value());
  EXPECT_EQ(service.stats().rejected_pressure, 2u);
  EXPECT_GE(budget.degrade_events(), 2u);

  // Pressure receding reopens admission.
  budget.release(800);
  service::JobRequest retry;
  retry.cnf = gen::random_ksat(8, 30, 3, 1);
  const auto id = service.submit(std::move(retry));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(service.wait(*id).outcome, service::JobOutcome::completed);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST(ServiceGovernor, WatchdogPreemptsStalledSlice) {
  // The first slice stalls 200ms; a 20ms watchdog must fire, preempt it,
  // and let the rescheduled slice finish the job normally.
  FaultPlan plan;
  plan.seed = 3;
  plan.stall_ms = 200;
  plan.arm(FaultSite::worker_stall, 1.0, 1);
  FaultInjector injector(plan);
  ScopedInjector installed(&injector);

  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.watchdog_seconds = 0.02;
  service::SolverService service(sopts);
  service::JobRequest request;
  request.cnf = gen::random_ksat(12, 50, 3, 9);
  const auto id = service.submit(std::move(request));
  ASSERT_TRUE(id.has_value());
  const service::JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, service::JobOutcome::completed) << result.error;
  EXPECT_GE(service.stats().watchdog_fires, 1u);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST(ServiceGovernor, WatchdogFiresOnlyWhenItPreempts) {
  // 20,000 clauses of 50 positive literals over 1,000 variables take tens
  // of milliseconds to load. The first slice's load outlasts the 5ms
  // limit, so that slice is preempted before it solves, and later slices
  // solve on the loaded engine. Every fire counted must be a slice that
  // was preempted.
  Cnf cnf(1000);
  std::vector<Lit> clause;
  for (int i = 0; i < 20000; ++i) {
    clause.clear();
    for (int j = 0; j < 50; ++j) {
      clause.push_back(Lit::positive(static_cast<Var>((i * 7 + j * 13) % 1000)));
    }
    cnf.add_clause(clause);
  }

  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.watchdog_seconds = 0.005;
  service::SolverService service(sopts);
  service::JobRequest request;
  request.cnf = std::move(cnf);
  const auto id = service.submit(std::move(request));
  ASSERT_TRUE(id.has_value());
  const service::JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, service::JobOutcome::completed) << result.error;
  EXPECT_EQ(result.status, SolveStatus::satisfiable);
  const service::ServiceStats stats = service.stats();
  EXPECT_GE(stats.watchdog_fires, 1u);
  EXPECT_EQ(stats.watchdog_fires, result.preemptions);
  EXPECT_EQ(result.slices, result.preemptions + 1);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST(ServiceGovernor, WatchdogPreemptionKeepsRestartPacing) {
  // A watchdog-stopped slice ends on the resumable wall-clock stop, so the
  // next slice continues the restart countdown. hole(10) restarts every
  // 550 conflicts; chopped into 1ms slices of fewer conflicts than that,
  // the job must still restart exactly as often as an unpreempted run of
  // the same conflict budget. A slice that reset the countdown would never
  // reach it.
  constexpr std::uint64_t kBudget = 3000;
  const auto restarts = [&](double watchdog_seconds,
                            service::JobResult* result) {
    telemetry::Telemetry hub;
    service::ServiceOptions sopts;
    sopts.num_workers = 1;
    sopts.slice_conflicts = 0;
    sopts.watchdog_seconds = watchdog_seconds;
    sopts.telemetry = &hub;
    service::SolverService service(sopts);
    service::JobRequest request;
    request.cnf = gen::pigeonhole(10);
    request.limits.max_conflicts = kBudget;
    *result = service.wait(*service.submit(std::move(request)));
    EXPECT_EQ(service.stats().watchdog_fires, result->preemptions);
    return service.metrics_snapshot().counters.at("solver.restarts");
  };
  service::JobResult whole;
  service::JobResult sliced;
  const std::uint64_t whole_restarts = restarts(0.0, &whole);
  const std::uint64_t sliced_restarts = restarts(0.001, &sliced);
  ASSERT_EQ(whole.outcome, service::JobOutcome::budget_exhausted);
  ASSERT_EQ(sliced.outcome, service::JobOutcome::budget_exhausted);
  EXPECT_EQ(whole.preemptions, 0u);
  EXPECT_GE(sliced.preemptions, 2u);
  EXPECT_EQ(sliced.conflicts, kBudget);
  EXPECT_GE(whole_restarts, 5u);
  EXPECT_EQ(sliced_restarts, whole_restarts);
}

TEST(ServiceGovernor, WatchdogBelowAMillisecondStillFinishes) {
  // Nothing is left of a 1ns limit by the time a dispatched slice could
  // solve, so every slice would be preempted before solving; the service
  // raises the limit to 1ms and the job finishes.
  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.slice_conflicts = 0;
  sopts.watchdog_seconds = 1e-9;
  service::SolverService service(sopts);
  service::JobRequest request;
  request.cnf = gen::pigeonhole(7);
  const service::JobResult result =
      service.wait(*service.submit(std::move(request)));
  EXPECT_EQ(result.outcome, service::JobOutcome::completed) << result.error;
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST(ServiceGovernor, WatchdogStartsNoThreadOfItsOwn) {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no " << tasks;
  const auto threads = [&] {
    const std::filesystem::directory_iterator entries(tasks);
    return std::distance(begin(entries), end(entries));
  };
  const auto before = threads();
  service::ServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.watchdog_seconds = 0.05;
  service::SolverService service(sopts);
  EXPECT_EQ(threads() - before, 2);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST(ServiceGovernor, SliceDeathRetriesThenGivesUp) {
  // Every slice dies (rate 1, effectively unbounded fires); with one
  // allowed retry the job must come back as a structured error, not a
  // crash or a hang.
  FaultPlan plan;
  plan.seed = 11;
  plan.arm(FaultSite::slice_death, 1.0, 1000);
  FaultInjector injector(plan);
  ScopedInjector installed(&injector);

  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_slice_retries = 1;
  service::SolverService service(sopts);
  service::JobRequest request;
  request.cnf = gen::random_ksat(12, 50, 3, 2);
  const auto id = service.submit(std::move(request));
  ASSERT_TRUE(id.has_value());
  const service::JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, service::JobOutcome::error);
  EXPECT_NE(result.error.find("slice died"), std::string::npos)
      << result.error;
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.slice_deaths, 2u);   // initial attempt + one retry
  EXPECT_EQ(stats.slice_retries, 1u);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST(ServiceGovernor, SessionEngineDeathPoisonsTheSession) {
  FaultPlan plan;
  plan.seed = 5;
  plan.arm(FaultSite::slice_death, 1.0, 1000);
  FaultInjector injector(plan);

  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  service::SolverService service(sopts);
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  const std::vector<Lit> unit{Lit::positive(0)};
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(unit)));

  service::JobResult result;
  {
    ScopedInjector installed(&injector);
    ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
    EXPECT_EQ(result.outcome, service::JobOutcome::error);
    EXPECT_NE(result.error.find("session engine died"), std::string::npos)
        << result.error;
  }

  // The session stays poisoned even after injection stops: its engine
  // state is gone and silently rebuilding it could drop pushed groups.
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  EXPECT_EQ(result.outcome, service::JobOutcome::unsupported);
  EXPECT_NE(result.error.find("close and reopen"), std::string::npos)
      << result.error;
  service.close_session(*sid);
  service.shutdown(service::SolverService::Shutdown::drain);
}

}  // namespace
}  // namespace berkmin
