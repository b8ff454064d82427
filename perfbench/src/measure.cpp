#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

namespace stackbench {

using berkmin::Budget;
using berkmin::GroupId;
using berkmin::Lit;
using berkmin::SolveStatus;
using berkmin::Var;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double position =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, xs.size() - 1);
  return xs[below] + (xs[above] - xs[below]) * (position - static_cast<double>(below));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

Tail tail(std::vector<double> xs) {
  Tail out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  const std::size_t n = xs.size();
  if (n < 20) {
    out.value = median(std::move(xs));
    return out;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t rank = n - 10;  // ten samples lie beyond it
  out.value = xs[rank - 1];
  out.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

// ---- spans -----------------------------------------------------------------

int SpanRecorder::open(const char* name, std::uint64_t request) {
  const std::int64_t t = now_ns();
  const int id = add(name, t, t, request);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  at(id).end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int SpanRecorder::add(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t request,
                      std::uint32_t count) {
  spans_.push_back({name, start_ns, end_ns, innermost(), request, count});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_name() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [start, end] : kids) {
      if (run_end < start) {
        covered += std::max<std::int64_t>(0, run_end - run_start);
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    covered += std::max<std::int64_t>(0, run_end - run_start);
    const std::int64_t self = spans_[i].end_ns - spans_[i].start_ns - covered;
    out[spans_[i].name] += static_cast<double>(std::max<std::int64_t>(0, self)) * 1e-9;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << (s.start_ns - origin) / 1000
        << ",\"end_us\":" << (s.end_ns - origin) / 1000
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- timing backend --------------------------------------------------------

double TimingBackend::finish(const char* span_name, std::int64_t start) {
  const std::int64_t end = now_ns();
  error_ = inner_.last_error();
  open_add_span_ = -1;
  if (spans_ != nullptr) spans_->add(span_name, start, end, request_);
  return static_cast<double>(end - start) * 1e-9;
}

void TimingBackend::finish_new_vars(std::int64_t start) {
  error_ = inner_.last_error();
  open_add_span_ = -1;
  if (spans_ != nullptr) {
    spans_->add("backend.new_vars", start, now_ns(), request_);
  }
}

void TimingBackend::finish_clause_add(std::int64_t start) {
  error_ = inner_.last_error();
  if (spans_ == nullptr) return;
  const std::int64_t end = now_ns();
  // Consecutive additions under the same parent extend one span.
  const bool extend = open_add_span_ >= 0 &&
                      open_add_span_ + 1 ==
                          static_cast<int>(spans_->spans().size()) &&
                      spans_->at(open_add_span_).parent == spans_->innermost();
  if (extend) {
    Span& span = spans_->at(open_add_span_);
    span.end_ns = end;
    ++span.count;
  } else {
    open_add_span_ = spans_->add("backend.add_clauses", start, end, request_);
  }
}

Var TimingBackend::new_vars(int n) {
  const std::int64_t start = traced_start();
  const Var first = inner_.new_vars(n);
  finish_new_vars(start);
  return first;
}

bool TimingBackend::add_clause(std::span<const Lit> lits) {
  const std::int64_t start = traced_start();
  const bool ok = inner_.add_clause(lits);
  finish_clause_add(start);
  return ok;
}

bool TimingBackend::add_clause_to(GroupId id, std::span<const Lit> lits) {
  const std::int64_t start = traced_start();
  const bool ok = inner_.add_clause_to(id, lits);
  finish_clause_add(start);
  return ok;
}

GroupId TimingBackend::push() {
  const std::int64_t start = now_ns();
  const GroupId id = inner_.push();
  ++totals_.group_ops;
  totals_.group_s += finish("backend.push", start);
  return id;
}

bool TimingBackend::pop(GroupId id) {
  const std::int64_t start = now_ns();
  const bool ok = inner_.pop(id);
  ++totals_.group_ops;
  totals_.group_s += finish("backend.pop", start);
  return ok;
}

bool TimingBackend::pop() {
  const std::int64_t start = now_ns();
  const bool ok = inner_.pop();
  ++totals_.group_ops;
  totals_.group_s += finish("backend.pop", start);
  return ok;
}

bool TimingBackend::set_group_active(GroupId id, bool active) {
  const std::int64_t start = now_ns();
  const bool ok = inner_.set_group_active(id, active);
  ++totals_.group_ops;
  totals_.group_s += finish("backend.set_group_active", start);
  return ok;
}

SolveStatus TimingBackend::solve(std::span<const Lit> assumptions,
                                 const Budget& budget) {
  const std::int64_t start = now_ns();
  const SolveStatus status = inner_.solve(assumptions, budget);
  const double seconds = finish("backend.solve", start);
  ++totals_.solve_calls;
  totals_.solve_s += seconds;
  totals_.solve_us.push_back(seconds * 1e6);
  return status;
}

}  // namespace stackbench
