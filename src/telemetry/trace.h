// Event tracing: bounded lock-free rings of timestamped solver events.
//
// Each producer thread owns a TraceRing (single-producer); a ring may also
// be shared by several threads when every emit happens under one external
// mutex (the service emits its job-lifecycle events while holding its
// scheduler lock, which serializes producers and publishes their writes).
// The consumer side (TraceCollector::drain) is serialized by the collector
// mutex, so the ring is SPSC by construction. Full rings drop new events
// and count the drops rather than blocking a solver thread.
//
// Timestamps are nanoseconds on the steady clock relative to the owning
// TraceCollector's construction; events may carry an explicit earlier
// timestamp (e.g. a job_queued instant stamped with its submit time even
// though it is emitted at dispatch).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace berkmin::telemetry {

enum class EventKind : std::uint8_t {
  restart,          // a=total conflicts, b=total learned clauses
  reduce,           // span; a=learned clauses before, b=after
  garbage_collect,  // span; a=arena words before, b=after
  inprocess,        // span; a=units+strengthenings derived, b=clauses removed
  conflict_sample,  // a=total conflicts, b=total learned clauses
  solve,            // span; a=conflicts this solve, b=SolveStatus
  import_batch,     // a=batch size, b=clauses actually imported
  export_batch,     // a=clauses exported since previous restart
  slice,            // span; a=job id, b=conflicts this slice
  job_queued,       // a=job id, b=priority (signed, cast)
  job_dispatch,     // a=job id, b=slice index (0-based)
  job_preempted,    // a=job id, b=slices so far
  job_complete,     // a=job id, b=JobOutcome
  session_push,     // a=session id, b=assumption-group depth
  session_pop,      // a=session id, b=assumption-group depth
  check_verify,     // span; a=clause additions checked, b=valid (0/1)
  check_trim,       // span; a=trimmed proof length, b=core clause count
};

const char* to_string(EventKind kind);
// Names for the generic a/b payload slots of each kind (for writers).
const char* arg_a_name(EventKind kind);
const char* arg_b_name(EventKind kind);

struct TraceEvent {
  std::int64_t ts_ns = 0;   // start time, relative to collector epoch
  std::int64_t dur_ns = 0;  // 0 for instant events
  EventKind kind = EventKind::restart;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

// A drained event tagged with the id of the ring it came from.
struct TaggedEvent {
  TraceEvent event;
  std::uint32_t ring = 0;
};

class TraceRing {
 public:
  TraceRing(std::uint32_t id, std::size_t capacity);

  std::uint32_t id() const { return id_; }
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Producer side: lock-free, wait-free, drops when full. Only one thread
  // may emit at a time (own the ring, or hold the agreed external lock).
  void emit(const TraceEvent& event);

  // Consumer side: appends all pending events to `out`, tagged with this
  // ring's id. Only called via TraceCollector (which serializes drains).
  std::size_t drain(std::vector<TaggedEvent>* out);

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_;
  std::uint32_t id_;
  std::atomic<std::uint64_t> head_{0};  // next write index (producer)
  std::atomic<std::uint64_t> tail_{0};  // next read index (consumer)
  std::atomic<std::uint64_t> dropped_{0};
};

// Owns the rings and the trace epoch. ring() hands out stable pointers;
// rings are never destroyed before the collector.
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t default_capacity = 8192);

  // Get-or-create a named ring. Returns the existing ring when the name is
  // already taken (so a restarted worker reuses its lane). capacity 0 uses
  // the collector default; capacities round up to a power of two.
  TraceRing* ring(const std::string& name, std::size_t capacity = 0);

  // Nanoseconds since collector construction (steady clock).
  std::int64_t now_ns() const;

  // Drains every ring, appending to `out`. Safe concurrently with
  // producers; serialized against other drains.
  void drain(std::vector<TaggedEvent>* out);

  std::vector<std::string> ring_names() const;

 private:
  mutable std::mutex mu_;
  std::int64_t epoch_ns_;  // steady_clock time at construction
  std::size_t default_capacity_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<std::string> names_;
};

// Writes `s` as the body of a JSON string: quotes and backslashes are
// escaped, control characters written as \u00XX. Every JSON writer of the
// project escapes its strings here.
void write_json_escaped(std::ostream& out, std::string_view s);

// One JSON object per line:
//   {"ts_ns":..,"dur_ns":..,"ring":"..","kind":"..","args":{..}}
void write_trace_jsonl(std::ostream& out, const std::vector<TaggedEvent>& events,
                       const std::vector<std::string>& ring_names);

// Chrome trace_event JSON (loadable in chrome://tracing and Perfetto):
// spans become "X" complete events, instants become "i"; each ring is a
// named thread lane.
void write_chrome_trace(std::ostream& out, const std::vector<TaggedEvent>& events,
                        const std::vector<std::string>& ring_names);

}  // namespace berkmin::telemetry
