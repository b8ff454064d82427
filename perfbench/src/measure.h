// Measurement primitives of the stack benchmark: the percentile rules,
// an in-memory span recorder, and a timing EngineBackend decorator.
//
// Everything here observes the library from outside: spans are opened
// around the benchmark's own calls into the layers' public functions, and
// the decorator times the calls an engine makes into its backend without
// changing what reaches the backend.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "engines/backend.h"

namespace stackbench {

// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

// ---- percentiles ---------------------------------------------------------

// Percentile of `xs` (p in [0, 100]), interpolated linearly between the
// two nearest ranks; 0 for an empty set.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

// The benchmark's tail: the highest percentile that still has at least ten
// samples beyond it. With n samples that is the value of rank n - 10
// (percentile 100 * (n - 10) / n). Below 20 samples the rule cannot reach
// the median, so the tail falls back to the median (percentile 50).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> xs);

// ---- spans ---------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the recorder's spans, -1 for a root
  std::uint64_t request = 0;  // instance, system or job id
  std::uint32_t count = 1;    // coalesced calls (clause additions)
};

// Spans of one run, kept in memory and written out when the run ends.
// Single-threaded: every span is recorded on the benchmark's own thread.
class SpanRecorder {
 public:
  // Opens a span that starts now, nested under the innermost open span.
  int open(const char* name, std::uint64_t request);
  void close(int id);
  // Records a finished span under the innermost open span.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          std::uint64_t request, std::uint32_t count = 1);
  int innermost() const { return stack_.empty() ? -1 : stack_.back(); }
  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span — its duration minus the union of its
  // children's intervals — summed by span name, in seconds.
  std::map<std::string, double> self_seconds_by_name() const;
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null recorder makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, std::uint64_t request)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(name, request) : -1) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// ---- timing backend ------------------------------------------------------

// Per-call accounting of one engine's traffic into its backend.
struct BackendTotals {
  std::uint64_t solve_calls = 0;
  std::uint64_t group_ops = 0;  // push / pop / set_group_active
  double solve_s = 0.0;
  double group_s = 0.0;
  std::vector<double> solve_us;  // latency of every solve call
};

// Wraps any EngineBackend, forwarding every call unchanged, and times its
// solve and group operations. With a span recorder attached every call
// also becomes a span, each run of consecutive clause additions one
// coalesced span. Clause additions and new_vars are timed only then: an
// addition takes well under a microsecond, and two clock reads each would
// inflate the untraced run.
class TimingBackend final : public berkmin::engines::EngineBackend {
 public:
  TimingBackend(berkmin::engines::EngineBackend& inner, SpanRecorder* spans,
                std::uint64_t request)
      : inner_(inner), spans_(spans), request_(request) {}

  berkmin::Var new_vars(int n) override;
  bool add_clause(std::span<const berkmin::Lit> lits) override;
  berkmin::GroupId push() override;
  bool pop(berkmin::GroupId id) override;
  bool pop() override;
  bool add_clause_to(berkmin::GroupId id,
                     std::span<const berkmin::Lit> lits) override;
  bool set_group_active(berkmin::GroupId id, bool active) override;
  berkmin::SolveStatus solve(std::span<const berkmin::Lit> assumptions,
                             const berkmin::Budget& budget) override;
  bool model_value(berkmin::Lit l) const override {
    return inner_.model_value(l);
  }
  const std::vector<berkmin::Lit>& failed_assumptions() const override {
    return inner_.failed_assumptions();
  }
  std::string name() const override { return inner_.name(); }

  const BackendTotals& totals() const { return totals_; }

 private:
  // Closes the books on one timed call that started at `start`; returns
  // its duration in seconds.
  double finish(const char* span_name, std::int64_t start);
  // Start time of a call that is timed only when tracing.
  std::int64_t traced_start() const { return spans_ != nullptr ? now_ns() : 0; }
  void finish_new_vars(std::int64_t start);
  void finish_clause_add(std::int64_t start);

  berkmin::engines::EngineBackend& inner_;
  SpanRecorder* spans_;
  std::uint64_t request_;
  int open_add_span_ = -1;  // coalescing span of the current clause-add run
  BackendTotals totals_;
};

}  // namespace stackbench
