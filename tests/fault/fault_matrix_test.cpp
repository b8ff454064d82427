// The seeded fault matrix: hundreds of runs with deterministic fault
// schedules across the solver, portfolio and service layers. Every run
// must terminate (bounded injection guarantees the faults dry up), never
// crash, and — whenever it reaches a definitive answer — agree with the
// brute-force oracle. UNSAT answers produced under injected worker death
// stay DRAT-certifiable.
//
// When the environment variable BERKMIN_FAULT_JSONL names a file, each
// run appends one JSON line ({scenario, seed, status, agree, faults})
// so CI can archive the whole matrix as an artifact.
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cnf/cnf_formula.h"
#include "core/solver.h"
#include "gen/random_ksat.h"
#include "gen/registry.h"
#include "gtest/gtest.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "reference/brute_force.h"
#include "service/solver_service.h"
#include "util/fault.h"
#include "util/memory_budget.h"

namespace berkmin {
namespace {

using util::FaultInjector;
using util::FaultPlan;
using util::FaultSite;

// Installs an injector for one run and restores the previous one on
// scope exit, so runs cannot leak schedules into each other.
struct ScopedInjector {
  explicit ScopedInjector(FaultInjector* injector)
      : previous(util::install_fault_injector(injector)) {}
  ~ScopedInjector() { util::install_fault_injector(previous); }
  FaultInjector* previous;
};

void append_jsonl(const std::string& scenario, std::uint64_t seed,
                  SolveStatus status, bool agree, std::uint64_t faults) {
  const char* path = std::getenv("BERKMIN_FAULT_JSONL");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  out << "{\"scenario\":\"" << scenario << "\",\"seed\":" << seed
      << ",\"status\":\"" << to_string(status) << "\",\"agree\":"
      << (agree ? "true" : "false") << ",\"faults\":" << faults << "}\n";
}

// One matrix entry: run `solve` under the given plan, then check the
// answer against the brute-force oracle when it is definitive.
template <typename SolveFn>
void run_case(const std::string& scenario, std::uint64_t seed,
              const Cnf& cnf, FaultPlan plan, SolveFn solve) {
  plan.seed = seed;
  FaultInjector injector(plan);
  SolveStatus status = SolveStatus::unknown;
  {
    ScopedInjector installed(&injector);
    status = solve();
  }
  bool agree = true;
  if (status != SolveStatus::unknown) {
    const bool expected = reference::brute_force_satisfiable(cnf);
    agree = (status == SolveStatus::satisfiable) == expected;
    EXPECT_TRUE(agree) << scenario << " seed=" << seed << ": answered "
                       << to_string(status) << ", oracle disagrees";
  }
  append_jsonl(scenario, seed, status, agree, injector.total_fires());
}

// --- solver: learned-clause allocation failure --------------------------

TEST(FaultMatrix, SolverSurvivesAllocFaults) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const Cnf cnf = gen::random_ksat(14, 60, 3, seed);
    FaultPlan plan;
    plan.arm(FaultSite::alloc_clause, 0.5, 64);
    run_case("solver_alloc", seed, cnf, plan, [&] {
      Solver solver;
      solver.load(cnf);
      const SolveStatus status = solver.solve();
      // Denied allocations fall back to sound no-learn restarts; with
      // the fault bounded the search still finishes decisively.
      EXPECT_NE(status, SolveStatus::unknown);
      if (status == SolveStatus::satisfiable) {
        EXPECT_TRUE(cnf.is_satisfied_by(solver.model()));
      }
      return status;
    });
  }
}

// --- portfolio: worker death, stalls, exchange allocation failure -------

TEST(FaultMatrix, PortfolioSurvivesWorkerDeath) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Cnf cnf = gen::random_ksat(12, 50, 3, seed + 100);
    FaultPlan plan;
    // At most 2 of 3 workers may die: the race always keeps a survivor,
    // so the answer stays definitive.
    plan.arm(FaultSite::worker_death, 0.5, 2);
    run_case("portfolio_death", seed, cnf, plan, [&] {
      portfolio::PortfolioOptions popts;
      popts.num_threads = 3;
      popts.base_seed = seed;
      portfolio::PortfolioSolver race(popts);
      race.load(cnf);
      const SolveStatus status = race.solve();
      EXPECT_NE(status, SolveStatus::unknown);
      if (status == SolveStatus::satisfiable) {
        EXPECT_TRUE(cnf.is_satisfied_by(race.model()));
      }
      return status;
    });
  }
}

TEST(FaultMatrix, PortfolioSurvivesStallsAndExchangeFaults) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Cnf cnf = gen::random_ksat(12, 52, 3, seed + 200);
    FaultPlan plan;
    plan.stall_ms = 1;
    plan.arm(FaultSite::worker_stall, 0.2, 8);
    plan.arm(FaultSite::alloc_exchange, 0.5, 32);
    run_case("portfolio_stall_exchange", seed, cnf, plan, [&] {
      portfolio::PortfolioOptions popts;
      popts.num_threads = 3;
      popts.base_seed = seed;
      portfolio::PortfolioSolver race(popts);
      race.load(cnf);
      const SolveStatus status = race.solve();
      EXPECT_NE(status, SolveStatus::unknown);
      return status;
    });
  }
}

// --- service: slice death with retry, stalls, clock skew ----------------

TEST(FaultMatrix, ServiceSurvivesSliceDeath) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Cnf cnf = gen::random_ksat(12, 50, 3, seed + 300);
    FaultPlan plan;
    plan.arm(FaultSite::slice_death, 0.5, 2);
    run_case("service_slice_death", seed, cnf, plan, [&] {
      service::ServiceOptions sopts;
      sopts.num_workers = 2;
      sopts.slice_conflicts = 64;
      sopts.max_slice_retries = 3;
      service::SolverService service(sopts);
      service::JobRequest request;
      request.cnf = cnf;
      const auto id = service.submit(std::move(request));
      EXPECT_TRUE(id.has_value());
      const service::JobResult result = service.wait(*id);
      // With retries above the fire cap the job must still reach a
      // definitive answer on a fresh engine.
      EXPECT_EQ(result.outcome, service::JobOutcome::completed)
          << result.error;
      service.shutdown(service::SolverService::Shutdown::drain);
      return result.status;
    });
  }
}

TEST(FaultMatrix, ServiceSurvivesStallsAndClockSkew) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Cnf cnf = gen::random_ksat(12, 50, 3, seed + 400);
    FaultPlan plan;
    plan.stall_ms = 1;
    plan.skew_seconds = 30.0;
    plan.arm(FaultSite::worker_stall, 0.3, 4);
    plan.arm(FaultSite::clock_skew, 0.3, 4);
    run_case("service_stall_skew", seed, cnf, plan, [&] {
      service::ServiceOptions sopts;
      sopts.num_workers = 2;
      sopts.slice_conflicts = 64;
      service::SolverService service(sopts);
      service::JobRequest request;
      request.cnf = cnf;
      const auto id = service.submit(std::move(request));
      EXPECT_TRUE(id.has_value());
      const service::JobResult result = service.wait(*id);
      service.shutdown(service::SolverService::Shutdown::drain);
      // Clock skew may only degrade the run into an early deadline
      // verdict — never a hang or a wrong answer.
      return result.status;
    });
  }
}

// --- proof writers: short writes ----------------------------------------

TEST(FaultMatrix, ShortWritesLatchInsteadOfCorrupting) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Cnf cnf = gen::random_ksat(10, 44, 3, seed + 500);
    FaultPlan plan;
    plan.arm(FaultSite::io_short_write, 0.3, 4);
    std::ostringstream sink;
    proof::TextDratWriter writer(sink);
    run_case("proof_short_write", seed, cnf, plan, [&] {
      Solver solver;
      solver.set_proof(&writer);
      solver.load(cnf);
      const SolveStatus status = solver.solve();
      EXPECT_NE(status, SolveStatus::unknown);
      return status;
    });
    // Either the stream survived (no fault fired before the fire cap) or
    // the writer latched a structured reason; it never half-reports.
    if (!writer.ok()) {
      EXPECT_NE(writer.fail_reason().find("short write"), std::string::npos);
    }
  }
}

// --- certification: answers under worker death stay provable ------------

TEST(FaultMatrix, WorkerDeathAnswersStayCertifiable) {
  std::string gen_error;
  const auto instance = gen::generate_from_spec("hole:5", &gen_error);
  ASSERT_TRUE(instance) << gen_error;
  const Cnf& cnf = instance->cnf;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.arm(FaultSite::worker_death, 0.5, 2);
    FaultInjector injector(plan);
    portfolio::PortfolioOptions popts;
    popts.num_threads = 3;
    popts.base_seed = seed;
    portfolio::PortfolioSolver race(popts);
    proof::MemoryProofWriter writer;
    race.set_proof(&writer);
    race.load(cnf);
    SolveStatus status = SolveStatus::unknown;
    {
      ScopedInjector installed(&injector);
      status = race.solve();
    }
    ASSERT_EQ(status, SolveStatus::unsatisfiable) << "seed " << seed;
    const proof::Proof& trace = writer.proof();
    ASSERT_TRUE(trace.ends_with_empty()) << "seed " << seed;
    proof::DratChecker checker(cnf);
    const proof::CheckResult check = checker.check(trace);
    EXPECT_TRUE(check.valid)
        << "seed " << seed << ": " << check.error
        << " (deaths=" << injector.fires(FaultSite::worker_death) << ")";
    append_jsonl("portfolio_death_certified", seed, status, check.valid,
                 injector.total_fires());
  }
}

}  // namespace
}  // namespace berkmin
