// Per-job proof options through the SolverService: traces and cores must
// ride along in JobResult, survive preemption (slice-by-slice traces) and
// portfolio escalation, and never appear where they were not requested.
#include <gtest/gtest.h>

#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "proof/drat_checker.h"
#include "service/solver_service.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

service::JobRequest unsat_request(const Cnf& cnf) {
  service::JobRequest request;
  request.cnf = cnf;
  request.proof = {.log = true, .check = true, .core = true};
  return request;
}

TEST(ServiceProof, UnsatJobShipsVerifiedTraceAndCore) {
  const Cnf cnf = gen::pigeonhole(5);
  service::SolverService service({.num_workers = 2});
  const service::JobId id = *service.submit(unsat_request(cnf));
  const service::JobResult result = service.wait(id);

  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(result.proof_checked);
  EXPECT_TRUE(result.proof_valid);
  ASSERT_TRUE(result.proof.ends_with_empty());
  ASSERT_FALSE(result.unsat_core.empty());

  // The shipped artifacts re-verify from scratch.
  proof::DratChecker checker(cnf);
  EXPECT_TRUE(checker.check(result.proof).valid);
  Solver resolver;
  resolver.load(proof::DratChecker::core_formula(cnf, result.unsat_core));
  EXPECT_EQ(resolver.solve(), SolveStatus::unsatisfiable);
}

TEST(ServiceProof, PreemptedJobAccumulatesOneTraceAcrossSlices) {
  const Cnf cnf = gen::pigeonhole(6);
  service::SolverService service({.num_workers = 1, .slice_conflicts = 50});
  const service::JobId id = *service.submit(unsat_request(cnf));
  const service::JobResult result = service.wait(id);

  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_GT(result.preemptions, 0u) << "test wants a multi-slice job";
  EXPECT_TRUE(result.proof_valid);
  proof::DratChecker checker(cnf);
  EXPECT_TRUE(checker.check(result.proof).valid);
}

TEST(ServiceProof, PortfolioEscalatedJobShipsSplicedTrace) {
  const Cnf cnf = gen::pigeonhole(5);
  service::JobRequest request = unsat_request(cnf);
  request.limits.threads = 3;
  service::SolverService service({.num_workers = 1});
  const service::JobId id = *service.submit(std::move(request));
  const service::JobResult result = service.wait(id);

  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  ASSERT_TRUE(result.proof_valid);
}

TEST(ServiceProof, SatJobCarriesNoProof) {
  gen::ParityParams params;
  params.num_vars = 10;
  params.num_equations = 8;
  params.equation_size = 3;
  params.satisfiable = true;
  params.seed = 3;
  service::JobRequest request = unsat_request(gen::parity_instance(params));

  service::SolverService service({.num_workers = 1});
  const service::JobId id = *service.submit(std::move(request));
  const service::JobResult result = service.wait(id);
  ASSERT_EQ(result.status, SolveStatus::satisfiable);
  EXPECT_TRUE(result.proof.empty());
  EXPECT_FALSE(result.proof_checked);
  EXPECT_TRUE(result.unsat_core.empty());
}

TEST(ServiceProof, ProofOffByDefault) {
  service::JobRequest request;
  request.cnf = gen::pigeonhole(4);
  service::SolverService service({.num_workers = 1});
  const service::JobId id = *service.submit(std::move(request));
  const service::JobResult result = service.wait(id);
  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(result.proof.empty());
  EXPECT_FALSE(result.proof_checked);
}

TEST(ServiceProof, AssumptionUnsatShipsFailedAssumptionCoreInstead) {
  service::JobRequest request;
  request.cnf = make_cnf({{-1, 2}, {-2, 3}});
  request.assumptions = lits({1, -3});
  request.proof = {.log = true, .check = true, .core = false};
  service::SolverService service({.num_workers = 1});
  const service::JobId id = *service.submit(std::move(request));
  const service::JobResult result = service.wait(id);

  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  // UNSAT under assumptions, not of the formula: no refutation trace,
  // but the failed-assumption core certificate is present.
  EXPECT_TRUE(result.proof.empty());
  EXPECT_FALSE(result.proof_checked);
  EXPECT_FALSE(result.failed_assumptions.empty());
}

TEST(ServiceProof, DuplicateBinarySkipsSurfaceInResult) {
  // A portfolio-escalated job with clause sharing is where import dedupe
  // shows up; the counter must be plumbed through to the result. Sharing
  // is timing-dependent, so only the plumbing (not a positive count) can
  // be asserted deterministically.
  service::JobRequest request;
  request.cnf = gen::pigeonhole(6);
  request.limits.threads = 4;
  service::SolverService service({.num_workers = 1});
  const service::JobId id = *service.submit(std::move(request));
  const service::JobResult result = service.wait(id);
  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  SUCCEED() << "duplicate_binaries_skipped = "
            << result.duplicate_binaries_skipped;
}

}  // namespace
}  // namespace berkmin
