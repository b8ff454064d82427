// Shutdown/teardown races, written to run under ThreadSanitizer: a
// drain-or-cancel shutdown racing concurrent session closes and in-flight
// session queries, and mid-slice cancels of one-shot jobs racing a
// non-draining shutdown. Complements service_stress_test.cpp, which races
// one-shot submissions; here the contested resources are persistent
// sessions and their in-flight queries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
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
using service::JobResult;
using service::ServiceOptions;
using service::SessionId;
using service::SolverService;

TEST(ServiceShutdownRace, DrainShutdownRacesSessionClose) {
  for (int round = 0; round < 3; ++round) {
    ServiceOptions options;
    options.num_workers = 3;
    options.slice_conflicts = 25;
    SolverService solving(options);

    // Each driver runs a session workload — add, solve, wait, close —
    // while the main thread pulls the rug with a draining shutdown.
    constexpr int kDrivers = 4;
    std::atomic<int> clean_closes{0};
    std::vector<std::thread> drivers;
    for (int d = 0; d < kDrivers; ++d) {
      drivers.emplace_back([&, d] {
        const auto sid = solving.open_session({});
        if (!sid.has_value()) return;  // shutdown won the race: fine
        const Cnf cnf = gen::random_ksat(
            16, 65, 3, static_cast<std::uint64_t>(round * 10 + d));
        for (std::size_t i = 0; i < cnf.num_clauses(); ++i) {
          if (!solving.session_apply(*sid, icnf::Op::clause(cnf.clause(i)))) {
            break;
          }
        }
        JobResult result;
        for (int q = 0; q < 3; ++q) {
          // Refused mid-shutdown: fine.
          if (!solving.session_query(*sid, {}, {}, result)) break;
          EXPECT_TRUE(result.outcome == JobOutcome::completed ||
                      result.outcome == JobOutcome::cancelled)
              << to_string(result.outcome) << ": " << result.error;
        }
        // close_session must be safe whether it beats the shutdown or
        // loses to it.
        if (solving.close_session(*sid)) clean_closes.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    solving.shutdown(SolverService::Shutdown::drain);
    for (std::thread& t : drivers) t.join();

    const auto stats = solving.stats();
    EXPECT_EQ(stats.finished(), stats.submitted)
        << "round " << round
        << ": a session job vanished or finished twice during shutdown";
    // After shutdown everything is refused, never crashed.
    EXPECT_FALSE(solving.open_session({}).has_value());
  }
}

TEST(ServiceShutdownRace, MidSliceCancelRacesCancelPendingShutdown) {
  for (int round = 0; round < 3; ++round) {
    ServiceOptions options;
    options.num_workers = 2;
    options.slice_conflicts = 50;
    SolverService solving(options);

    // Hard instances guarantee multi-slice jobs, so cancels genuinely
    // land mid-solve rather than on finished work. The canceller targets
    // one-shot jobs; the session drivers' queries race only the shutdown.
    std::vector<JobId> ids;
    for (int j = 0; j < 4; ++j) {
      service::JobRequest request;
      request.cnf = gen::pigeonhole(8 + j % 2);
      ids.push_back(*solving.submit(std::move(request)));
    }
    std::vector<std::thread> drivers;
    for (int d = 0; d < 2; ++d) {
      drivers.emplace_back([&, d] {
        const auto sid = solving.open_session({});
        if (!sid.has_value()) return;
        const Cnf hard = gen::pigeonhole(8 + d);
        for (std::size_t i = 0; i < hard.num_clauses(); ++i) {
          if (!solving.session_apply(*sid, icnf::Op::clause(hard.clause(i)))) {
            break;
          }
        }
        JobResult result;
        for (int q = 0; q < 2; ++q) {
          if (!solving.session_query(*sid, {}, {}, result)) break;
          EXPECT_TRUE(result.outcome == JobOutcome::completed ||
                      result.outcome == JobOutcome::cancelled)
              << to_string(result.outcome) << ": " << result.error;
        }
        solving.close_session(*sid);
      });
    }
    std::thread canceller([&] {
      for (int i = 0; i < 40; ++i) {
        solving.cancel(ids[static_cast<std::size_t>(i) % ids.size()]);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    solving.shutdown(SolverService::Shutdown::cancel_pending);
    canceller.join();
    for (std::thread& t : drivers) t.join();

    for (const JobId id : ids) {
      const JobResult result = solving.wait(id);
      EXPECT_TRUE(result.outcome == JobOutcome::completed ||
                  result.outcome == JobOutcome::cancelled)
          << to_string(result.outcome) << ": " << result.error;
    }
    const auto stats = solving.stats();
    EXPECT_EQ(stats.finished(), stats.submitted) << "round " << round;
  }
}

}  // namespace
}  // namespace berkmin
