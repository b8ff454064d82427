#include "telemetry/trace.h"

#include <chrono>

namespace berkmin::telemetry {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::restart: return "restart";
    case EventKind::reduce: return "reduce";
    case EventKind::garbage_collect: return "garbage_collect";
    case EventKind::inprocess: return "inprocess";
    case EventKind::conflict_sample: return "conflict_sample";
    case EventKind::solve: return "solve";
    case EventKind::import_batch: return "import_batch";
    case EventKind::export_batch: return "export_batch";
    case EventKind::slice: return "slice";
    case EventKind::job_queued: return "job_queued";
    case EventKind::job_dispatch: return "job_dispatch";
    case EventKind::job_preempted: return "job_preempted";
    case EventKind::job_complete: return "job_complete";
    case EventKind::session_push: return "session_push";
    case EventKind::session_pop: return "session_pop";
    case EventKind::check_verify: return "check_verify";
    case EventKind::check_trim: return "check_trim";
  }
  return "unknown";
}

const char* arg_a_name(EventKind kind) {
  switch (kind) {
    case EventKind::restart: return "conflicts";
    case EventKind::reduce: return "learned_before";
    case EventKind::garbage_collect: return "arena_words_before";
    case EventKind::inprocess: return "derived";
    case EventKind::conflict_sample: return "conflicts";
    case EventKind::solve: return "conflicts";
    case EventKind::import_batch: return "batch_size";
    case EventKind::export_batch: return "exported";
    case EventKind::slice: return "job";
    case EventKind::job_queued: return "job";
    case EventKind::job_dispatch: return "job";
    case EventKind::job_preempted: return "job";
    case EventKind::job_complete: return "job";
    case EventKind::session_push: return "session";
    case EventKind::session_pop: return "session";
    case EventKind::check_verify: return "additions";
    case EventKind::check_trim: return "trimmed_length";
  }
  return "a";
}

const char* arg_b_name(EventKind kind) {
  switch (kind) {
    case EventKind::restart: return "learned";
    case EventKind::reduce: return "learned_after";
    case EventKind::garbage_collect: return "arena_words_after";
    case EventKind::inprocess: return "removed";
    case EventKind::conflict_sample: return "learned";
    case EventKind::solve: return "status";
    case EventKind::import_batch: return "imported";
    case EventKind::export_batch: return "unused";
    case EventKind::slice: return "conflicts";
    case EventKind::job_queued: return "priority";
    case EventKind::job_dispatch: return "slice_index";
    case EventKind::job_preempted: return "slices";
    case EventKind::job_complete: return "outcome";
    case EventKind::session_push: return "depth";
    case EventKind::session_pop: return "depth";
    case EventKind::check_verify: return "valid";
    case EventKind::check_trim: return "core_clauses";
  }
  return "b";
}

TraceRing::TraceRing(std::uint32_t id, std::size_t capacity)
    : slots_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      mask_(slots_.size() - 1),
      id_(id) {}

void TraceRing::emit(const TraceEvent& event) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slots_[head & mask_] = event;
  head_.store(head + 1, std::memory_order_release);
}

std::size_t TraceRing::drain(std::vector<TaggedEvent>* out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  std::size_t drained = 0;
  for (; tail != head; ++tail, ++drained) {
    out->push_back({slots_[tail & mask_], id_});
  }
  tail_.store(tail, std::memory_order_release);
  return drained;
}

TraceCollector::TraceCollector(std::size_t default_capacity)
    : epoch_ns_(steady_now_ns()),
      default_capacity_(default_capacity == 0 ? 8192 : default_capacity) {}

TraceRing* TraceCollector::ring(const std::string& name, std::size_t capacity) {
  std::lock_guard<std::mutex> guard(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return rings_[i].get();
  }
  const std::uint32_t id = static_cast<std::uint32_t>(rings_.size());
  rings_.push_back(std::make_unique<TraceRing>(
      id, capacity == 0 ? default_capacity_ : capacity));
  names_.push_back(name);
  return rings_.back().get();
}

std::int64_t TraceCollector::now_ns() const {
  return steady_now_ns() - epoch_ns_;
}

void TraceCollector::drain(std::vector<TaggedEvent>* out) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& ring : rings_) ring->drain(out);
}

std::vector<std::string> TraceCollector::ring_names() const {
  std::lock_guard<std::mutex> guard(mu_);
  return names_;
}

void write_json_escaped(std::ostream& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
          << "0123456789abcdef"[c & 0xf];
    } else {
      out << c;
    }
  }
}

namespace {

std::string ring_label(const std::vector<std::string>& names, std::uint32_t id) {
  if (id < names.size()) return names[id];
  return "ring-" + std::to_string(id);
}

}  // namespace

void write_trace_jsonl(std::ostream& out, const std::vector<TaggedEvent>& events,
                       const std::vector<std::string>& ring_names) {
  for (const TaggedEvent& tagged : events) {
    const TraceEvent& e = tagged.event;
    out << "{\"ts_ns\":" << e.ts_ns << ",\"dur_ns\":" << e.dur_ns
        << ",\"ring\":\"";
    write_json_escaped(out, ring_label(ring_names, tagged.ring));
    out << "\",\"kind\":\"" << to_string(e.kind) << "\",\"args\":{\""
        << arg_a_name(e.kind) << "\":" << e.a << ",\"" << arg_b_name(e.kind)
        << "\":" << e.b << "}}\n";
  }
}

void write_chrome_trace(std::ostream& out, const std::vector<TaggedEvent>& events,
                        const std::vector<std::string>& ring_names) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < ring_names.size(); ++i) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i + 1
        << ",\"args\":{\"name\":\"";
    write_json_escaped(out, ring_names[i]);
    out << "\"}}";
  }
  for (const TaggedEvent& tagged : events) {
    const TraceEvent& e = tagged.event;
    if (!first) out << ",";
    first = false;
    // Chrome trace timestamps are microseconds (doubles keep sub-µs info).
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    out << "{\"name\":\"" << to_string(e.kind) << "\",\"pid\":1,\"tid\":"
        << tagged.ring + 1 << ",\"ts\":" << ts_us;
    if (e.dur_ns > 0) {
      out << ",\"ph\":\"X\",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out << ",\"args\":{\"" << arg_a_name(e.kind) << "\":" << e.a << ",\""
        << arg_b_name(e.kind) << "\":" << e.b << "}}";
  }
  out << "]}\n";
}

}  // namespace berkmin::telemetry
