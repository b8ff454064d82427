// Incremental job sessions in SolverService: API semantics (busy
// discipline, close, result plumbing), differential correctness of
// session answers, per-answer proof delivery, and a concurrency stress
// test driving many sessions — single-solver and portfolio-escalated —
// through one worker pool at once (run under TSan via the "service"
// label).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cnf/icnf.h"
#include "core/solver.h"
#include "engines/backend.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "service/solver_service.h"
#include "service_test_util.h"
#include "test_util.h"
#include "util/memory_budget.h"
#include "util/rng.h"

namespace berkmin::service {
namespace {

using berkmin::testing::ask;
using berkmin::testing::lits;
using berkmin::testing::make_cnf;

TEST(ServiceSession, PushPopSolveLifecycle) {
  SolverService service({.num_workers = 2, .slice_conflicts = 100});
  const auto sid = service.open_session({.name = "inc"});
  ASSERT_TRUE(sid.has_value());
  EXPECT_EQ(service.open_sessions(), 1u);

  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({-1}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({-2}))));

  JobResult result;
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_EQ(result.session, *sid);
  EXPECT_EQ(result.name, "inc#1");

  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  EXPECT_EQ(result.status, SolveStatus::satisfiable);
  EXPECT_EQ(result.name, "inc#2");

  // A solve op is not a mutation: session_query asks.
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::solve()));

  EXPECT_TRUE(service.close_session(*sid));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::push()));  // closed
  EXPECT_EQ(service.open_sessions(), 0u);
  EXPECT_EQ(service.stats().sessions_opened, 1u);
  EXPECT_EQ(service.stats().session_solves, 2u);
}

// What a session answer reports of its search and its certificate.
struct SessionAnswer {
  SolveStatus status;
  std::uint64_t propagations;
  std::uint64_t conflicts;
  std::uint64_t decisions;
  bool proof_valid;
  friend bool operator==(const SessionAnswer&, const SessionAnswer&) = default;
};

TEST(ServiceSession, SessionAfterACloseAnswersAsInANewService) {
  // A closed single-solver session's solver and checker storage serves the
  // next session: its answers, search counters and certificates must
  // match the same session on a service that never ran one.
  SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  const auto run = [&request](SolverService& service, const Cnf& cnf) {
    std::vector<SessionAnswer> answers;
    const auto sid = service.open_session(request);
    EXPECT_TRUE(sid.has_value());
    if (!sid) return answers;
    const auto solve = [&](std::vector<Lit> assumptions) {
      JobResult r;
      EXPECT_TRUE(service.session_query(*sid, assumptions, {}, r));
      answers.push_back({r.status, r.propagations, r.conflicts, r.decisions,
                         r.proof_valid});
    };
    for (const auto& clause : cnf.clauses()) {
      EXPECT_TRUE(service.session_apply(*sid, icnf::Op::clause(clause)));
    }
    solve({});
    EXPECT_TRUE(service.session_apply(*sid, icnf::Op::push()).has_value());
    for (const auto& clause :
         {lits({1, 2}), lits({1, -2}), lits({-1, 2}), lits({-1, -2})}) {
      EXPECT_TRUE(service.session_apply(*sid, icnf::Op::clause(clause)));
    }
    solve({});
    EXPECT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
    solve(lits({-3, -4}));
    EXPECT_TRUE(service.close_session(*sid));
    return answers;
  };

  SolverService shared({.num_workers = 1});
  ASSERT_EQ(run(shared, gen::random_ksat(40, 120, 3, 11)).size(), 3u);
  EXPECT_EQ(shared.stats().sessions_reused, 0u);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Cnf cnf = gen::random_ksat(12 + 4 * static_cast<int>(seed),
                                     40 + 10 * static_cast<int>(seed), 3, seed);
    SolverService fresh({.num_workers = 1});
    const std::vector<SessionAnswer> expected = run(fresh, cnf);
    ASSERT_EQ(expected.size(), 3u);
    EXPECT_EQ(expected[1].status, SolveStatus::unsatisfiable);
    EXPECT_TRUE(expected[1].proof_valid);
    EXPECT_EQ(run(shared, cnf), expected) << "seed " << seed;
    EXPECT_EQ(shared.stats().sessions_reused, seed);
    EXPECT_EQ(fresh.stats().sessions_reused, 0u);
  }

  // A portfolio session is never built in a solver's storage, and a
  // service under a memory budget keeps no closed session's storage.
  const Cnf cnf = gen::random_ksat(20, 60, 3, 8);
  request.threads = 2;
  request.proof = {};
  run(shared, cnf);
  EXPECT_EQ(shared.stats().sessions_reused, 4u);
  request.threads = 1;
  util::MemoryBudget budget;
  SolverService budgeted({.num_workers = 1, .memory_budget = &budget});
  run(budgeted, cnf);
  run(budgeted, cnf);
  EXPECT_EQ(budgeted.stats().sessions_opened, 2u);
  EXPECT_EQ(budgeted.stats().sessions_reused, 0u);
}

TEST(ServiceSession, BusyDisciplineRejectsOverlap) {
  SolverService service({.num_workers = 1, .slice_conflicts = 5});
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  // An instance far beyond the deadline, so the query is in flight for the
  // whole deadline: it runs on its own thread, and the checks below start
  // once the service has admitted it.
  const Cnf hole = gen::pigeonhole(10);
  for (const auto& clause : hole.clauses()) {
    ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(clause)));
  }
  JobResult result;
  std::thread owner([&] {
    EXPECT_TRUE(service.session_query(
        *sid, {}, JobLimits{.deadline_seconds = 0.3}, result));
  });
  while (service.stats().submitted == 0) std::this_thread::yield();
  // While the query is in flight, mutations, a second query and close are
  // all rejected.
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::push()));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::clause(lits({1}))));
  EXPECT_FALSE(ask(service, *sid).has_value());
  EXPECT_FALSE(service.close_session(*sid));
  owner.join();
  EXPECT_EQ(result.outcome, JobOutcome::deadline_expired);
  EXPECT_EQ(result.status, SolveStatus::unknown);
  // Released: the session is usable again.
  EXPECT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  EXPECT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_TRUE(service.close_session(*sid));
}

// A claim holds the session across a run of adds: while the owner streams
// clauses under one claim, every session_apply, session_query,
// close_session and claim_session another thread makes on the session is
// refused as busy and disturbs nothing. Once the claim ends, the session
// answers and closes as usual, and every streamed add is counted.
TEST(ServiceSessionClaim, OtherCallersAreRefusedWhileTheOwnerStreamsAdds) {
  SolverService service({.num_workers = 1});
  SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  const auto sid = service.open_session(request);
  ASSERT_TRUE(sid.has_value());
  std::atomic<bool> claimed{false};
  std::atomic<bool> probed{false};
  std::atomic<int> refused_adds{0};
  std::uint64_t streamed = 0;
  std::thread owner([&] {
    SolverService::SessionClaim claim = service.claim_session(*sid);
    claimed.store(claim ? true : false);
    if (!claim) return;
    for (int i = 0; !probed.load() || i < 2000; ++i) {
      const Lit clause[] = {Lit::positive(2 * i), Lit::negative(2 * i + 1)};
      if (claim.apply(icnf::Op::clause(clause)).has_value()) {
        ++streamed;
      } else {
        ++refused_adds;
      }
    }
  });
  while (!claimed.load()) std::this_thread::yield();
  for (int i = 0; i < 200; ++i) {
    const Lit unit[] = {Lit::positive(0)};
    EXPECT_FALSE(service.session_apply(*sid, icnf::Op::clause(unit)));
    EXPECT_FALSE(service.session_apply(*sid, icnf::Op::push()));
    EXPECT_FALSE(ask(service, *sid).has_value());
    EXPECT_FALSE(service.close_session(*sid));
    EXPECT_FALSE(service.claim_session(*sid));
  }
  probed.store(true);
  owner.join();
  EXPECT_EQ(refused_adds.load(), 0);
  EXPECT_GE(streamed, 2000u);
  EXPECT_EQ(service.stats().session_clauses_added, streamed);
  const std::optional<JobResult> answer = ask(service, *sid);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->status, SolveStatus::satisfiable);
  EXPECT_TRUE(service.close_session(*sid));
  EXPECT_EQ(service.stats().session_clauses_added, streamed);
}

// SessionBackend takes its claim with its first operation after a solve
// and keeps it until the next solve: in between, the session is busy to
// everyone else.
TEST(ServiceSessionClaim, SessionBackendHoldsItsClaimUntilItSolves) {
  SolverService service({.num_workers = 1});
  engines::SessionBackend backend(service, {});
  ASSERT_TRUE(backend.alive());
  EXPECT_TRUE(backend.add_binary(Lit::positive(0), Lit::positive(1)));
  EXPECT_EQ(backend.solve({}, Budget::unlimited()), SolveStatus::satisfiable);
  const SessionId id = backend.last_result().session;
  // Solved: the claim has ended.
  EXPECT_TRUE(service.session_apply(id, icnf::Op::clause(lits({1, 2}))));

  EXPECT_TRUE(backend.add_unit(Lit::negative(0)));
  EXPECT_FALSE(service.session_apply(id, icnf::Op::clause(lits({3}))));
  EXPECT_FALSE(service.close_session(id));
  const GroupId group = backend.push();
  ASSERT_NE(group, no_group);
  EXPECT_TRUE(backend.add_clause_to(group, lits({-2})));
  EXPECT_FALSE(ask(service, id).has_value());
  EXPECT_EQ(backend.solve({}, Budget::unlimited()),
            SolveStatus::unsatisfiable);
  EXPECT_TRUE(ask(service, id).has_value());
  EXPECT_EQ(service.stats().session_clauses_added, 4u);
}

TEST(ServiceSession, PopWithoutGroupRejected) {
  SolverService service(ServiceOptions{});
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  EXPECT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::pop()));
}

TEST(ServiceSession, ProofPerAnswerIncludingAfterPop) {
  SolverService service({.num_workers = 2});
  SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  const auto sid = service.open_session(request);
  ASSERT_TRUE(sid.has_value());

  const Cnf base = gen::random_ksat(10, 25, 3, 21);
  for (const auto& clause : base.clauses()) {
    ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(clause)));
  }
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  for (const auto& clause :
       {lits({1, 2}), lits({1, -2}), lits({-1, 2}), lits({-1, -2})}) {
    ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(clause)));
  }
  JobResult result;
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(result.proof_checked);
  EXPECT_TRUE(result.proof_valid);
  // The answer carries the verdict, not a copy of the session's trace.
  EXPECT_TRUE(result.proof.empty());

  // After the pop, an assumption-driven UNSAT must also certify.
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({3, 4}))));
  ASSERT_TRUE(service.session_query(*sid, lits({-3, -4}), {}, result));
  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(result.proof_checked);
  EXPECT_TRUE(result.proof_valid);
  EXPECT_TRUE(result.proof.empty());
  EXPECT_FALSE(result.failed_assumptions.empty());
}

TEST(ServiceSession, NamedHandlesOnCheckedSession) {
  // On a proof-checked session, every named-handle mutation refuses a
  // popped or never-pushed handle and counts nothing; parking and reviving
  // a live group keeps each answer certified.
  SolverService service({.num_workers = 1});
  SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  const auto sid = service.open_session(request);
  ASSERT_TRUE(sid.has_value());

  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
  const std::optional<GroupId> popped =
      service.session_apply(*sid, icnf::Op::push());
  ASSERT_TRUE(popped.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({3}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop(*popped)));
  const std::optional<GroupId> group =
      service.session_apply(*sid, icnf::Op::push());
  ASSERT_TRUE(group.has_value());
  ASSERT_TRUE(
      service.session_apply(*sid, icnf::Op::clause_to(*group, lits({-1}))));
  ASSERT_TRUE(
      service.session_apply(*sid, icnf::Op::clause_to(*group, lits({-2}))));

  const std::uint64_t added = service.stats().session_clauses_added;
  const GroupId never_pushed = *group + 1;
  for (const GroupId dead : {*popped, never_pushed}) {
    EXPECT_FALSE(
        service.session_apply(*sid, icnf::Op::pop(dead))) << "group " << dead;
    EXPECT_FALSE(
        service.session_apply(*sid, icnf::Op::clause_to(dead, lits({4}))))
        << "group " << dead;
    EXPECT_FALSE(service.session_apply(*sid, icnf::Op::set_active(dead, false)))
        << "group " << dead;
  }
  EXPECT_EQ(service.stats().session_clauses_added, added);

  // Parked, the group no longer refutes the formula; the assumptions do.
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::set_active(*group, false)));
  JobResult result;
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  ASSERT_EQ(result.status, SolveStatus::satisfiable);
  ASSERT_TRUE(service.session_query(*sid, lits({-1, -2}), {}, result));
  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(result.proof_checked && result.proof_valid);

  // Revived, it refutes the formula on its own again.
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::set_active(*group, true)));
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  ASSERT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(result.failed_assumptions.empty());
  EXPECT_TRUE(result.proof_checked && result.proof_valid);
  EXPECT_TRUE(service.close_session(*sid));
}

TEST(ServiceSession, WaitReleasesSessionAnswer) {
  // Every result is collected once. A session answer goes to its caller
  // and never enters the job table: its id is unknown to state(), wait()
  // and cancel(). A one-shot job's record stays until wait() or wait_all()
  // collects it, then its id is unknown too.
  SolverService service({.num_workers = 1});
  JobRequest oneshot;
  oneshot.cnf = make_cnf({{1, 2}});
  const std::optional<JobId> kept = service.submit(std::move(oneshot));
  ASSERT_TRUE(kept.has_value());
  JobRequest waited;
  waited.cnf = make_cnf({{1}, {-1}});
  const std::optional<JobId> collected = service.submit(std::move(waited));
  ASSERT_TRUE(collected.has_value());
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));

  const std::optional<JobResult> result = ask(service, *sid);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SolveStatus::satisfiable);
  EXPECT_FALSE(result->model.empty());
  EXPECT_THROW((void)service.state(result->id), std::out_of_range);
  EXPECT_THROW((void)service.wait(result->id), std::out_of_range);
  EXPECT_FALSE(service.cancel(result->id));

  EXPECT_EQ(service.wait(*collected).status, SolveStatus::unsatisfiable);
  EXPECT_THROW((void)service.state(*collected), std::out_of_range);
  EXPECT_THROW((void)service.wait(*collected), std::out_of_range);
  EXPECT_FALSE(service.cancel(*collected));

  EXPECT_EQ(service.state(*kept), JobState::done);
  const std::vector<JobResult> all = service.wait_all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].id, *kept);
  EXPECT_EQ(all[0].status, SolveStatus::satisfiable);
  EXPECT_THROW((void)service.state(*kept), std::out_of_range);
  EXPECT_TRUE(service.wait_all().empty());
  EXPECT_TRUE(service.close_session(*sid));
}

TEST(ServiceSession, PortfolioSessionProofIsStructurallyUnsupported) {
  // Proof logging on a multi-threaded session cannot be served yet; the
  // session opens, but each solve reports a structured unsupported outcome
  // (with the reason in `error`) instead of an uncertified answer.
  SolverService service(ServiceOptions{});
  SessionRequest request;
  request.threads = 2;
  request.proof.log = true;
  const auto sid = service.open_session(request);
  ASSERT_TRUE(sid.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({-1}))));
  JobResult result;
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  EXPECT_EQ(result.outcome, JobOutcome::unsupported);
  EXPECT_EQ(result.status, SolveStatus::unknown);
  EXPECT_FALSE(result.error.empty());
  EXPECT_STREQ(to_string(result.outcome), "unsupported");
  EXPECT_EQ(service.stats().unsupported, 1u);
  // The session stays open and closable; the same request without proof
  // options is fully served.
  EXPECT_TRUE(service.close_session(*sid));
  request.proof = {};
  EXPECT_TRUE(service.open_session(request).has_value());
}

TEST(ServiceSession, DeadlineMidSolveKeepsSessionUsable) {
  SolverService service({.num_workers = 1, .slice_conflicts = 0});
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  const Cnf hole = gen::pigeonhole(9);  // far beyond the deadline
  for (const auto& clause : hole.clauses()) {
    ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(clause)));
  }
  JobResult result;
  ASSERT_TRUE(service.session_query(
      *sid, {}, JobLimits{.deadline_seconds = 0.05}, result));
  EXPECT_EQ(result.outcome, JobOutcome::deadline_expired);
  EXPECT_EQ(result.status, SolveStatus::unknown);
  EXPECT_GE(result.slices, 1u);
  // The session keeps answering: a follow-up query that can be answered
  // quickly is, the mutations around it are accepted, and then the first
  // query's formula is answered again under a conflict limit.
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({100}))));
  ASSERT_TRUE(service.session_query(*sid, lits({-100}), {}, result));
  EXPECT_EQ(result.outcome, JobOutcome::completed);
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  ASSERT_TRUE(service.session_query(
      *sid, {}, JobLimits{.max_conflicts = 50}, result));
  EXPECT_EQ(result.outcome, JobOutcome::budget_exhausted);
  EXPECT_TRUE(service.close_session(*sid));
}

// --- misuse hardening -------------------------------------------------------
// Every out-of-contract call on a session must be a structured refusal
// (false / nullopt), never UB — these are exactly the sequences the
// model-checking engines can emit when a backend races a shutdown.

TEST(ServiceSessionMisuse, EveryOperationAfterCloseIsRefused) {
  SolverService service({.num_workers = 1});
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  EXPECT_TRUE(service.close_session(*sid));

  EXPECT_FALSE(ask(service, *sid).has_value());
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::clause(lits({3}))));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::push()));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_FALSE(service.close_session(*sid));  // double close
  EXPECT_EQ(service.open_sessions(), 0u);
  // The service itself is unharmed: a fresh session works.
  EXPECT_TRUE(service.open_session({}).has_value());
}

TEST(ServiceSessionMisuse, InvalidSessionIdNamesNoSession) {
  // A backend whose open was refused keeps invalid_session and sends every
  // later operation with it. However many sessions were opened, used and
  // closed before, that id claims nothing, and later sessions claim as
  // usual.
  util::MemoryBudget budget(std::uint64_t{1} << 30);
  SolverService service({.num_workers = 1, .memory_budget = &budget});
  const auto use_and_close = [&service] {
    const auto sid = service.open_session({});
    ASSERT_TRUE(sid.has_value());
    ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
    const std::optional<JobResult> result = ask(service, *sid);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, SolveStatus::satisfiable);
    ASSERT_TRUE(service.close_session(*sid));
  };
  for (int i = 0; i < 17; ++i) use_and_close();  // ids 1..17

  EXPECT_FALSE(
      service.session_apply(invalid_session, icnf::Op::clause(lits({3}))));
  EXPECT_FALSE(
      service.session_apply(invalid_session, icnf::Op::push()).has_value());
  EXPECT_FALSE(service.session_apply(invalid_session, icnf::Op::pop()));
  EXPECT_FALSE(ask(service, invalid_session).has_value());
  EXPECT_FALSE(service.close_session(invalid_session));

  budget.charge(budget.limit());  // critical pressure refuses the open
  {
    engines::SessionBackend refused(service, {});
    EXPECT_FALSE(refused.alive());
    EXPECT_FALSE(refused.add_clause(lits({1})));
    EXPECT_EQ(refused.push(), no_group);
    EXPECT_EQ(refused.solve({}, Budget{}), SolveStatus::unknown);
  }
  budget.release(budget.limit());

  for (int i = 0; i < 17; ++i) use_and_close();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_opened, 34u);
  EXPECT_EQ(stats.session_clauses_added, 34u);
  EXPECT_EQ(stats.session_solves, 34u);
  EXPECT_EQ(service.open_sessions(), 0u);
}

TEST(ServiceSessionMisuse, InterleavedPopsBeyondStackDepth) {
  SolverService service({.num_workers = 1});
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
  // Drive the group stack up and down, overshooting the bottom twice;
  // each overshoot is refused and leaves the stack where it was.
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::pop()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({-1}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  EXPECT_FALSE(service.session_apply(*sid, icnf::Op::pop()));
  // The session still answers correctly: only the base clause remains.
  const std::optional<JobResult> result = ask(service, *sid, lits({-2}));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, SolveStatus::satisfiable);
  EXPECT_TRUE(service.close_session(*sid));
}

TEST(ServiceSessionMisuse, PopAfterAssumptionSolvesDoesNotLeakAssumptions) {
  SolverService service({.num_workers = 1});
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({1, 2}))));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::push()));
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::clause(lits({-1}))));

  // UNSAT under assumptions, with the failed subset reported.
  JobResult result;
  ASSERT_TRUE(service.session_query(*sid, lits({-2}), {}, result));
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_FALSE(result.failed_assumptions.empty());

  // Popping right after an assumption solve must retire only the group:
  // the assumptions from the previous query leave no residue.
  ASSERT_TRUE(service.session_apply(*sid, icnf::Op::pop()));
  ASSERT_TRUE(service.session_query(*sid, lits({-2}), {}, result));
  EXPECT_EQ(result.status, SolveStatus::satisfiable);
  EXPECT_TRUE(result.failed_assumptions.empty());
  // And with no assumptions at all, nothing constrains the query.
  ASSERT_TRUE(service.session_query(*sid, {}, {}, result));
  EXPECT_EQ(result.status, SolveStatus::satisfiable);
  EXPECT_TRUE(service.close_session(*sid));
}

// --- concurrency stress (TSan) ---------------------------------------------
// Many incremental sessions — a mix of plain and portfolio-escalated —
// driven concurrently through one small worker pool, interleaved with
// one-shot batch jobs, with tiny slices forcing preemption mid-session.
// Every answer is checked against a scratch solver.
TEST(ServiceSessionStress, ConcurrentSessionsWithEscalation) {
  SolverService service({.num_workers = 3, .slice_conflicts = 40});

  // Background one-shot traffic.
  std::vector<JobId> background;
  for (int i = 0; i < 6; ++i) {
    JobRequest request;
    request.cnf = gen::random_ksat(16, 60, 3, 500 + i);
    const auto id = service.submit(std::move(request));
    ASSERT_TRUE(id.has_value());
    background.push_back(*id);
  }

  constexpr int kSessions = 6;
  std::atomic<int> divergences{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    drivers.emplace_back([&, s] {
      SessionRequest request;
      request.name = "stress-" + std::to_string(s);
      request.threads = (s % 3 == 0) ? 2 : 1;  // portfolio escalation mix
      const auto sid = service.open_session(request);
      if (!sid.has_value()) {
        ++divergences;
        return;
      }
      Rng rng(static_cast<std::uint64_t>(s) + 91);
      icnf::ActiveFormula active;  // what the session's engine sees
      const auto apply = [&](const icnf::Op& op) {
        if (!service.session_apply(*sid, op)) ++divergences;
        (void)icnf::apply(active, op);
      };
      const int num_vars = 12;
      for (int op = 0; op < 30; ++op) {
        const std::uint64_t pick = rng.below(10);
        if (pick < 4) {
          std::vector<Lit> clause;
          const int len = 1 + static_cast<int>(rng.below(3));
          for (int k = 0; k < len; ++k) {
            clause.push_back(
                Lit(static_cast<Var>(rng.below(num_vars)), rng.coin()));
          }
          apply(icnf::Op::clause(clause));
        } else if (pick < 6) {
          apply(icnf::Op::push());
        } else if (pick < 7 && !active.live().empty()) {
          apply(icnf::Op::pop());
        } else {
          std::vector<Lit> assumptions;
          for (std::uint64_t i = rng.below(2); i > 0; --i) {
            assumptions.push_back(
                Lit(static_cast<Var>(rng.below(num_vars)), rng.coin()));
          }
          JobResult result;
          if (!service.session_query(*sid, assumptions, {}, result)) {
            ++divergences;
            continue;
          }
          if (result.status == SolveStatus::unknown) continue;
          Solver scratch;
          scratch.load(active.formula(num_vars));
          if (scratch.solve_with_assumptions(assumptions) != result.status) {
            ++divergences;
          }
        }
      }
      service.close_session(*sid);
    });
  }
  for (std::thread& driver : drivers) driver.join();
  EXPECT_EQ(divergences.load(), 0);
  for (const JobId id : background) {
    EXPECT_NE(service.wait(id).status, SolveStatus::unknown);
  }
  service.shutdown(SolverService::Shutdown::drain);
  EXPECT_EQ(service.open_sessions(), 0u);
}

TEST(ServiceSessionStress, ContendedOperationsOnOneSessionNeverOverlap) {
  // A session is meant for one owner, but every operation must stay safe
  // when several threads race on one: each claims the session or is
  // refused (an adder retries until its clause lands), clause counts stay
  // exact, and once a close succeeds nothing lands any more.
  SolverService service({.num_workers = 2});
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  constexpr int kAdds = 1000;
  std::atomic<std::uint64_t> added{0};
  const auto adder = [&](int first_var) {
    for (int i = 0; i < kAdds;) {
      const Lit clause[] = {Lit::positive(first_var + 2 * i),
                            Lit::negative(first_var + 2 * i + 1)};
      if (service.session_apply(*sid, icnf::Op::clause(clause))) {
        added.fetch_add(1);
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::atomic<int> wrong{0};
  std::thread querier([&] {
    JobResult result;
    for (int i = 0; i < 100; ++i) {
      if (service.session_query(*sid, {}, {}, result) &&
          result.status != SolveStatus::satisfiable) {
        ++wrong;
      }
    }
  });
  std::thread first(adder, 0);
  std::thread second(adder, 2 * kAdds);
  first.join();
  second.join();
  querier.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(added.load(), 2u * kAdds);
  EXPECT_EQ(service.stats().session_clauses_added, added.load());

  std::atomic<bool> closed{false};
  std::atomic<int> after_close{0};
  std::thread late_adder([&] {
    const Lit clause[] = {Lit::positive(0)};
    while (!closed.load()) {
      if (service.session_apply(*sid, icnf::Op::clause(clause))) {
        added.fetch_add(1);
      }
    }
    for (int i = 0; i < 100; ++i) {
      if (service.session_apply(*sid, icnf::Op::clause(clause))) ++after_close;
    }
  });
  while (!service.close_session(*sid)) std::this_thread::yield();
  closed.store(true);
  late_adder.join();
  EXPECT_EQ(after_close.load(), 0);
  EXPECT_EQ(service.stats().session_clauses_added, added.load());
  EXPECT_EQ(service.open_sessions(), 0u);
}

TEST(ServiceSessionStress, ShutdownCancelsPendingSessionSolves) {
  // A non-draining shutdown racing live session queries must terminate
  // every query exactly once, hand each answer to its caller and not
  // deadlock. Three queries share two slots, so one is queued when the
  // shutdown lands unless a query finished first.
  auto service = std::make_unique<SolverService>(
      ServiceOptions{.num_workers = 2, .slice_conflicts = 0});
  std::vector<SessionId> sessions;
  for (int s = 0; s < 3; ++s) {
    const auto sid = service->open_session({});
    ASSERT_TRUE(sid.has_value());
    const Cnf hole = gen::pigeonhole(8);
    for (const auto& clause : hole.clauses()) {
      ASSERT_TRUE(service->session_apply(*sid, icnf::Op::clause(clause)));
    }
    sessions.push_back(*sid);
  }
  std::vector<JobResult> results(sessions.size());
  std::vector<std::thread> owners;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    owners.emplace_back([&, s] {
      EXPECT_TRUE(service->session_query(sessions[s], {}, {}, results[s]));
    });
  }
  while (service->stats().submitted < sessions.size()) {
    std::this_thread::yield();
  }
  service->shutdown(SolverService::Shutdown::cancel_pending);
  for (std::thread& owner : owners) owner.join();
  for (const JobResult& result : results) {
    EXPECT_TRUE(result.outcome == JobOutcome::cancelled ||
                result.outcome == JobOutcome::completed);
  }
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.finished(), stats.submitted);
  // The sessions stay open and closable after the shutdown.
  for (const SessionId sid : sessions) EXPECT_TRUE(service->close_session(sid));
  service.reset();
}

}  // namespace
}  // namespace berkmin::service
