// Shared helper for tests that query service sessions.
#pragma once

#include <optional>
#include <span>

#include "service/solver_service.h"

namespace berkmin::testing {

// One SolverService::session_query into a fresh result; nullopt for a
// refusal.
inline std::optional<service::JobResult> ask(
    service::SolverService& service, service::SessionId id,
    std::span<const Lit> assumptions = {}, service::JobLimits limits = {}) {
  service::JobResult result;
  if (!service.session_query(id, assumptions, limits, result)) {
    return std::nullopt;
  }
  return result;
}

}  // namespace berkmin::testing
