#include "util/memory_budget.h"

#include <cctype>
#include <cstdlib>

#include "telemetry/metrics.h"

namespace berkmin::util {

void MemoryBudget::publish() {
  if (used_gauge_)
    used_gauge_->set(
        static_cast<std::int64_t>(used_.load(std::memory_order_relaxed)));
}

void MemoryBudget::counter_add(telemetry::Counter* c) { c->add(1); }

bool parse_size_bytes(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0) return false;
  double scale = 1.0;
  if (*end != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k': scale = 1024.0; break;
      case 'm': scale = 1024.0 * 1024.0; break;
      case 'g': scale = 1024.0 * 1024.0 * 1024.0; break;
      default: return false;
    }
    ++end;
    // Accept an optional trailing 'b'/'B' ("64MB").
    if (*end == 'b' || *end == 'B') ++end;
    if (*end != '\0') return false;
  }
  *out = static_cast<std::uint64_t>(value * scale);
  return true;
}

}  // namespace berkmin::util
