// The engines differential suite: seeded transition systems from the
// safety generator, each checked three ways — explicit-state BFS ground
// truth, BMC, and IC3 — with every SAT verdict replayed through circuit
// simulation and every safe verdict re-proved by certify() on a fresh,
// DRAT-checked solver (BMC: the monolithic bounded query; IC3: the
// invariant). A smaller sweep drives the same systems through
// SolverService sessions at 1 and 2 worker threads, through proof-checked
// sessions that certify every UNSAT answer, and through an in-process
// 2-worker PortfolioSolver.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>

#include "core/solver.h"
#include "engines/bmc.h"
#include "engines/ic3.h"
#include "gen/safety.h"
#include "portfolio/portfolio.h"
#include "service/solver_service.h"

namespace berkmin::engines {
namespace {

// Each engine runs over its own SatEngine from `make_engine`: a Solver by
// default.
void check_case(const gen::SafetyParams& params,
                const std::function<std::unique_ptr<SatEngine>()>&
                    make_engine = [] { return std::make_unique<Solver>(); }) {
  SCOPED_TRACE("seed=" + std::to_string(params.seed) +
               " safe=" + std::to_string(params.safe) +
               " latch_heavy=" + std::to_string(params.latch_heavy));
  const TransitionSystem ts = gen::safety_system(params);
  const std::optional<int> ground = ts.reachable_bad_step();

  const std::unique_ptr<SatEngine> bmc_engine = make_engine();
  SolverBackend bmc_backend(*bmc_engine);
  EngineResult bmc = BmcEngine(ts, bmc_backend, {.bound = params.cycles}).run();
  (void)certify(ts, bmc);

  const std::unique_ptr<SatEngine> ic3_engine = make_engine();
  SolverBackend ic3_backend(*ic3_engine);
  EngineResult ic3 = Ic3Engine(ts, ic3_backend).run();
  (void)certify(ts, ic3);

  if (ground.has_value()) {
    ASSERT_LT(*ground, params.cycles);  // generator contract
    EXPECT_EQ(bmc.verdict, Verdict::unsafe) << bmc.error;
    EXPECT_EQ(bmc.bound, *ground);  // BMC finds the shortest trace
    EXPECT_TRUE(bmc.cex_validated);
    EXPECT_EQ(ic3.verdict, Verdict::unsafe) << ic3.error;
    EXPECT_TRUE(ic3.cex_validated);
    ASSERT_TRUE(ic3.cex.has_value());
    EXPECT_GE(ic3.cex->depth(), *ground);
  } else {
    EXPECT_EQ(bmc.verdict, Verdict::safe_bounded) << bmc.error;
    EXPECT_TRUE(bmc.certified) << bmc.error;
    EXPECT_EQ(ic3.verdict, Verdict::safe_invariant) << ic3.error;
    EXPECT_TRUE(ic3.certified) << ic3.error;
  }
}

TEST(EnginesDifferential, FiftySeededSystemsAgreeAndCertify) {
  int cases = 0;
  for (std::uint64_t seed = 0; seed < 22; ++seed) {
    for (const bool safe : {false, true}) {
      gen::SafetyParams p;
      p.safe = safe;
      p.seed = seed;
      p.cycles = 8;
      p.num_gates = 25;
      p.num_latches = 5;
      p.num_inputs = 3;
      check_case(p);
      ++cases;
    }
  }
  // Latch-heavy, state-dominated variants (the IC3-friendly shape).
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const bool safe : {false, true}) {
      gen::SafetyParams p;
      p.latch_heavy = true;
      p.safe = safe;
      p.seed = seed;
      p.cycles = 10;
      p.num_latches = 8;
      p.num_inputs = 3;
      check_case(p);
      ++cases;
    }
  }
  EXPECT_GE(cases, 50);
}

TEST(EnginesDifferential, SessionBackendsAgreeAcrossThreadCounts) {
  service::SolverService service({.num_workers = 3, .slice_conflicts = 200});
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const bool safe : {false, true}) {
      gen::SafetyParams p;
      p.safe = safe;
      p.seed = seed;
      p.cycles = 8;
      p.num_gates = 25;
      p.num_latches = 5;
      p.num_inputs = 3;
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " safe=" + std::to_string(safe));
      const TransitionSystem ts = gen::safety_system(p);
      const std::optional<int> ground = ts.reachable_bad_step();

      for (const int threads : {1, 2}) {
        service::SessionRequest request;
        request.name = "diff";
        request.threads = threads;
        SessionBackend bmc_backend(service, request);
        ASSERT_TRUE(bmc_backend.alive());
        const EngineResult bmc =
            BmcEngine(ts, bmc_backend, {.bound = p.cycles}).run();

        SessionBackend ic3_backend(service, request);
        ASSERT_TRUE(ic3_backend.alive());
        const EngineResult ic3 = Ic3Engine(ts, ic3_backend).run();

        if (ground.has_value()) {
          EXPECT_EQ(bmc.verdict, Verdict::unsafe) << bmc.error;
          EXPECT_EQ(bmc.bound, *ground);
          EXPECT_TRUE(bmc.cex_validated);
          EXPECT_EQ(ic3.verdict, Verdict::unsafe) << ic3.error;
          EXPECT_TRUE(ic3.cex_validated);
        } else {
          EXPECT_EQ(bmc.verdict, Verdict::safe_bounded) << bmc.error;
          EXPECT_EQ(ic3.verdict, Verdict::safe_invariant) << ic3.error;
        }
      }
    }
  }
}

// Forwards to a SessionBackend and counts its UNSAT answers and those the
// session's live checker certified.
class CountingCertifiedAnswers final : public EngineBackend {
 public:
  explicit CountingCertifiedAnswers(SessionBackend& session)
      : session_(session) {}

  Var new_vars(int n) override { return session_.new_vars(n); }
  bool add_clause(std::span<const Lit> lits) override {
    return session_.add_clause(lits);
  }
  GroupId push() override { return session_.push(); }
  bool pop(GroupId id) override { return session_.pop(id); }
  bool pop() override { return session_.pop(); }
  bool add_clause_to(GroupId id, std::span<const Lit> lits) override {
    return session_.add_clause_to(id, lits);
  }
  bool set_group_active(GroupId id, bool active) override {
    return session_.set_group_active(id, active);
  }
  SolveStatus solve(std::span<const Lit> assumptions,
                    const Budget& budget) override {
    const SolveStatus status = session_.solve(assumptions, budget);
    if (status == SolveStatus::unsatisfiable) {
      ++unsat_answers;
      const service::JobResult& result = session_.last_result();
      if (result.proof_checked && result.proof_valid) ++certified_answers;
    }
    return status;
  }
  bool model_value(Lit l) const override { return session_.model_value(l); }
  const std::vector<Lit>& failed_assumptions() const override {
    return session_.failed_assumptions();
  }
  std::string name() const override { return session_.name(); }

  int unsat_answers = 0;
  int certified_answers = 0;

 private:
  SessionBackend& session_;
};

TEST(EnginesDifferential, ProofCheckedSessionsCertifyEveryUnsatAnswer) {
  // BMC and IC3 through proof-checked sessions, as in the certified-session
  // benchmark: every UNSAT answer must be certified by the session's live
  // checker, whose clause store follows every frame added, popped, parked
  // and revived over the session.
  service::SolverService service({.num_workers = 1});
  service::SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  int unsat_answers = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const bool safe : {false, true}) {
      gen::SafetyParams p;
      p.safe = safe;
      p.latch_heavy = seed % 2 == 1;
      p.seed = seed;
      p.cycles = 10;
      p.num_gates = 40;
      p.num_latches = 8;
      p.num_inputs = 3;
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " safe=" + std::to_string(safe));
      const TransitionSystem ts = gen::safety_system(p);
      const std::optional<int> ground = ts.reachable_bad_step();

      SessionBackend bmc_session(service, request);
      ASSERT_TRUE(bmc_session.alive());
      CountingCertifiedAnswers bmc_backend(bmc_session);
      const EngineResult bmc =
          BmcEngine(ts, bmc_backend, {.bound = 2 * p.cycles}).run();

      SessionBackend ic3_session(service, request);
      ASSERT_TRUE(ic3_session.alive());
      CountingCertifiedAnswers ic3_backend(ic3_session);
      const EngineResult ic3 = Ic3Engine(ts, ic3_backend).run();

      if (ground.has_value()) {
        EXPECT_EQ(bmc.verdict, Verdict::unsafe) << bmc.error;
        EXPECT_EQ(bmc.bound, *ground);
        EXPECT_EQ(ic3.verdict, Verdict::unsafe) << ic3.error;
      } else {
        EXPECT_EQ(bmc.verdict, Verdict::safe_bounded) << bmc.error;
        EXPECT_EQ(ic3.verdict, Verdict::safe_invariant) << ic3.error;
      }
      EXPECT_EQ(bmc_backend.certified_answers, bmc_backend.unsat_answers);
      EXPECT_EQ(ic3_backend.certified_answers, ic3_backend.unsat_answers);
      unsat_answers += bmc_backend.unsat_answers + ic3_backend.unsat_answers;
    }
  }
  EXPECT_GT(unsat_answers, 100);
}

TEST(EnginesDifferential, PortfolioBackendAgreesAndCertifies) {
  // SolverBackend drives any SatEngine: here a racing 2-worker portfolio
  // answers every BMC bound and IC3 query.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const bool safe : {false, true}) {
      gen::SafetyParams p;
      p.safe = safe;
      p.seed = seed;
      p.cycles = 8;
      p.num_gates = 25;
      p.num_latches = 5;
      p.num_inputs = 3;
      check_case(p, [] {
        return std::make_unique<portfolio::PortfolioSolver>(
            portfolio::PortfolioOptions{.num_threads = 2});
      });
    }
  }
}

}  // namespace
}  // namespace berkmin::engines
