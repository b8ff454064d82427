// src/telemetry unit tests: histogram bucket math and percentiles, trace
// rings (ordering, drop-on-full, collector lanes), metrics registry and
// its serializations, phase accumulation, and the end-to-end solver
// wiring of the sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace berkmin {
namespace {

using telemetry::EventKind;
using telemetry::Histogram;
using telemetry::HistogramSnapshot;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::Phase;
using telemetry::TaggedEvent;
using telemetry::Telemetry;
using telemetry::TraceEvent;
using telemetry::TraceRing;

// ---- histogram bucket math -------------------------------------------------

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower_edge(v), v);
    EXPECT_EQ(Histogram::bucket_width(v), 1u);
  }
}

TEST(Histogram, BucketEdgesRoundTrip) {
  // Every probed value must land in a bucket whose [edge, edge+width)
  // interval contains it, across the whole uint64 range.
  const std::uint64_t probes[] = {8,    9,     15,     16,        17,
                                  100,  1023,  1024,   123456789, 1u << 30,
                                  ~std::uint64_t{0} / 3, ~std::uint64_t{0}};
  for (const std::uint64_t v : probes) {
    const std::size_t index = Histogram::bucket_index(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << v;
    const std::uint64_t edge = Histogram::bucket_lower_edge(index);
    const std::uint64_t width = Histogram::bucket_width(index);
    EXPECT_LE(edge, v) << v;
    // edge + width can overflow for the top bucket; compare via subtraction.
    EXPECT_LT(v - edge, width) << v;
  }
}

TEST(Histogram, BucketIndexIsMonotone) {
  std::size_t previous = 0;
  for (std::uint64_t v = 0; v < 5000; ++v) {
    const std::size_t index = Histogram::bucket_index(v);
    EXPECT_GE(index, previous) << v;
    previous = index;
  }
}

// ---- percentiles -----------------------------------------------------------

TEST(Histogram, ExactQuantilesOnSmallValues) {
  Histogram h;
  for (const std::uint64_t v : {1, 2, 3, 4, 5}) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 15u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 5u);
  EXPECT_EQ(snap.quantile(0.5), 3u);   // values < 8 are exact
  EXPECT_EQ(snap.quantile(0.0), 1u);
  EXPECT_EQ(snap.quantile(1.0), 5u);
}

TEST(Histogram, QuantilesOnUniformDistribution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  // Log buckets guarantee <= 12.5% relative error; allow a little slack
  // for the rank falling at a bucket boundary.
  EXPECT_NEAR(static_cast<double>(snap.quantile(0.5)), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(snap.quantile(0.9)), 900.0, 900.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(snap.quantile(0.99)), 990.0, 990.0 * 0.15);
  EXPECT_NEAR(snap.mean(), 500.5, 0.01);
}

TEST(Histogram, SingleValueClampsAllQuantiles) {
  Histogram h;
  h.record(123456789);
  const HistogramSnapshot snap = h.snapshot();
  // The bucket midpoint is clamped into [min, max] = [v, v].
  EXPECT_EQ(snap.quantile(0.5), 123456789u);
  EXPECT_EQ(snap.quantile(0.99), 123456789u);
}

TEST(Histogram, EmptySnapshotIsZero) {
  const HistogramSnapshot snap = Histogram{}.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.quantile(0.5), 0u);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(Histogram, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t) * 1000 + (i % 97));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, kThreads * kPerThread);
}

// ---- trace rings -----------------------------------------------------------

TraceEvent instant(std::int64_t ts, std::uint64_t a) {
  TraceEvent e;
  e.ts_ns = ts;
  e.kind = EventKind::restart;
  e.a = a;
  return e;
}

TEST(TraceRing, PreservesOrder) {
  TraceRing ring(0, 16);
  for (std::uint64_t i = 0; i < 10; ++i) ring.emit(instant(i, i));
  std::vector<TaggedEvent> out;
  EXPECT_EQ(ring.drain(&out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].event.a, i);
    EXPECT_EQ(out[i].ring, 0u);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, DropsWhenFullAndCounts) {
  TraceRing ring(1, 8);
  for (std::uint64_t i = 0; i < 20; ++i) ring.emit(instant(i, i));
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<TaggedEvent> out;
  EXPECT_EQ(ring.drain(&out), 8u);
  // The survivors are the oldest 8 (drop-on-full, not overwrite).
  EXPECT_EQ(out.front().event.a, 0u);
  EXPECT_EQ(out.back().event.a, 7u);
  // Once drained the ring accepts events again.
  ring.emit(instant(99, 99));
  out.clear();
  EXPECT_EQ(ring.drain(&out), 1u);
  EXPECT_EQ(out[0].event.a, 99u);
}

TEST(TraceCollector, NamedRingsAreStableLanes) {
  telemetry::TraceCollector collector(64);
  TraceRing* a = collector.ring("alpha");
  TraceRing* b = collector.ring("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(collector.ring("alpha"), a);  // get-or-create by name
  a->emit(instant(1, 11));
  b->emit(instant(2, 22));
  std::vector<TaggedEvent> out;
  collector.drain(&out);
  ASSERT_EQ(out.size(), 2u);
  const auto names = collector.ring_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[a->id()], "alpha");
  EXPECT_EQ(names[b->id()], "beta");
}

TEST(TraceCollector, ClockIsMonotone) {
  telemetry::TraceCollector collector;
  const std::int64_t t0 = collector.now_ns();
  const std::int64_t t1 = collector.now_ns();
  EXPECT_GE(t0, 0);
  EXPECT_GE(t1, t0);
}

// ---- writers ---------------------------------------------------------------

TEST(TraceWriters, JsonlEmitsOneObjectPerEvent) {
  std::vector<TaggedEvent> events;
  events.push_back({instant(10, 1), 0});
  TraceEvent span;
  span.ts_ns = 20;
  span.dur_ns = 5;
  span.kind = EventKind::reduce;
  span.a = 100;
  span.b = 60;
  events.push_back({span, 0});

  std::ostringstream out;
  telemetry::write_trace_jsonl(out, events, {"main"});
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"kind\":\"restart\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"reduce\""), std::string::npos);
  EXPECT_NE(text.find("\"ring\":\"main\""), std::string::npos);
}

TEST(TraceWriters, ChromeTraceHasLanesAndEvents) {
  std::vector<TaggedEvent> events;
  events.push_back({instant(1000, 7), 0});
  TraceEvent span;
  span.ts_ns = 2000;
  span.dur_ns = 500;
  span.kind = EventKind::solve;
  events.push_back({span, 1});

  std::ostringstream out;
  telemetry::write_chrome_trace(out, events, {"main", "svc-worker-0"});
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // the span
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  EXPECT_NE(text.find("svc-worker-0"), std::string::npos);
}

// ---- registry + serialization ---------------------------------------------

TEST(MetricsRegistry, GetOrCreateAndSnapshot) {
  MetricsRegistry registry;
  telemetry::Counter* c = registry.counter("solver.conflicts");
  EXPECT_EQ(registry.counter("solver.conflicts"), c);
  c->add(41);
  c->add();
  registry.gauge("service.pending_jobs")->set(-3);
  registry.histogram("service.slice_latency_ns")->record(1000);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("solver.conflicts"), 42u);
  EXPECT_EQ(snap.gauges.at("service.pending_jobs"), -3);
  EXPECT_EQ(snap.histograms.at("service.slice_latency_ns").count, 1u);
}

TEST(MetricsSnapshot, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("solver.conflicts")->add(7);
  registry.histogram("service.slice_latency_ns")->record(100);
  const std::string prom = registry.snapshot().to_prometheus();
  EXPECT_NE(prom.find("berkmin_solver_conflicts_total 7"), std::string::npos);
  EXPECT_NE(prom.find("berkmin_service_slice_latency_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("berkmin_service_slice_latency_ns_count 1"),
            std::string::npos);
}

TEST(MetricsSnapshot, JsonHasAllSections) {
  MetricsRegistry registry;
  registry.counter("a.b")->add(1);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"a.b\":1"), std::string::npos);
}

TEST(PhaseAccumulator, AccumulatesPerPhase) {
  telemetry::PhaseAccumulator phases;
  phases.add(Phase::bcp, 100);
  phases.add(Phase::bcp, 50);
  phases.add(Phase::analyze, 7);
  EXPECT_EQ(phases.totals(Phase::bcp).calls, 2u);
  EXPECT_EQ(phases.totals(Phase::bcp).ns, 150u);
  EXPECT_EQ(phases.totals(Phase::analyze).calls, 1u);
  EXPECT_EQ(phases.totals(Phase::decide).calls, 0u);
}

TEST(Telemetry, SnapshotExportsEveryPhase) {
  Telemetry hub;
  for (std::size_t i = 0; i < telemetry::kNumPhases; ++i) {
    hub.phases().add(static_cast<Phase>(i), 10 + i);
  }
  const MetricsSnapshot snap = hub.snapshot();
  ASSERT_EQ(snap.phases.size(), telemetry::kNumPhases);
  for (std::size_t i = 0; i < telemetry::kNumPhases; ++i) {
    const char* name = telemetry::to_string(static_cast<Phase>(i));
    ASSERT_EQ(snap.phases.count(name), 1u) << name;
    EXPECT_EQ(snap.phases.at(name).ns, 10 + i) << name;
  }
}

// ---- end-to-end solver wiring ---------------------------------------------

TEST(SolverTelemetry, SolveFlowsIntoHub) {
  Telemetry hub;
  telemetry::SolverTelemetry sink(hub, hub.trace().ring("main"));
  Solver solver;
  solver.set_telemetry(&sink);
  solver.load(gen::pigeonhole(5));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);

  const MetricsSnapshot snap = hub.snapshot();
  EXPECT_GT(snap.counters.at("solver.conflicts"), 0u);
  EXPECT_GT(snap.counters.at("solver.decisions"), 0u);
  EXPECT_GT(snap.counters.at("solver.propagations"), 0u);
  // Phase timers ran: BCP and analysis dominate any real solve.
  EXPECT_GT(snap.phases.at("bcp").calls, 0u);
  EXPECT_GT(snap.phases.at("analyze").calls, 0u);

  // The ring carries the solve span (and likely restarts before it).
  bool saw_solve = false;
  for (const TaggedEvent& e : hub.drain_trace()) {
    if (e.event.kind == EventKind::solve) saw_solve = true;
  }
  EXPECT_TRUE(saw_solve);
}

TEST(SolverTelemetry, PublishIsDeltaBased) {
  // Two solves through the same hub must not double-count: the counters
  // grow by each solve's work, not by cumulative totals re-added.
  Telemetry hub;
  telemetry::SolverTelemetry sink(hub, nullptr);
  Solver solver;
  solver.set_telemetry(&sink);
  solver.load(gen::pigeonhole(4));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  const std::uint64_t stats_total = solver.stats().conflicts;
  const std::uint64_t hub_total = hub.snapshot().counters.at("solver.conflicts");
  EXPECT_EQ(hub_total, stats_total);
}

TEST(SolverTelemetry, EveryListedCounterIsExported) {
  // BERKMIN_SOLVER_COUNTERS is the only list of exported counters: after a
  // solve, each entry is in the snapshot as "solver.<field>" with the
  // solver's own value (one solver, one hub, so the totals coincide).
  Telemetry hub;
  telemetry::SolverTelemetry sink(hub, nullptr);
  Solver solver;
  solver.set_telemetry(&sink);
  solver.load(gen::pigeonhole(5));
  const GroupId group = solver.push_group();
  EXPECT_TRUE(solver.pop_group(group));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);

  const MetricsSnapshot snap = hub.snapshot();
  ASSERT_EQ(std::size(kSolverCounters), kNumSolverCounters);
  for (const SolverCounter& counter : kSolverCounters) {
    const auto it = snap.counters.find(std::string("solver.") + counter.name);
    ASSERT_NE(it, snap.counters.end()) << counter.name;
    EXPECT_EQ(it->second, solver.stats().*counter.field) << counter.name;
  }
  // The fields the hand-kept export used to miss.
  for (const char* name :
       {"selectors_recycled", "budget_infeasible_solves", "global_decisions",
        "learned_literals"}) {
    EXPECT_TRUE(snap.counters.contains(std::string("solver.") + name)) << name;
  }
  EXPECT_GT(snap.counters.at("solver.learned_literals"), 0u);
  EXPECT_EQ(snap.counters.at("solver.groups_pushed"), 1u);
}

TEST(SolverTelemetry, DisabledSinkChangesNothing) {
  Solver solver;  // no set_telemetry: the null-sink fast path
  solver.load(gen::pigeonhole(4));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

}  // namespace
}  // namespace berkmin
