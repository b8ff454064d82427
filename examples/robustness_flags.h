// Shared CLI surface for the robustness features: --memory-budget and the
// --fault-* flags, used by dimacs_solver and batch_solver.
//
// The helpers translate flag values into a util::MemoryBudget (graceful
// degradation tiers instead of bad_alloc) and an installed
// util::FaultInjector (deterministic, seeded, bounded fault schedules for
// robustness drills). Both are optional: absent flags yield null and the
// binaries behave exactly as before.
#pragma once

#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "util/cli.h"
#include "util/fault.h"
#include "util/memory_budget.h"

namespace berkmin::robustness {

inline void add_flags(ArgParser* args) {
  args->add_option("memory-budget", "", "cap the bytes charged by clause "
                   "storage (e.g. 64M, 1G); under pressure the solvers "
                   "degrade in tiers (aggressive reduction, inprocessing "
                   "off, no-learn restarts) instead of dying on bad_alloc");
  args->add_option("fault-sites", "", "arm deterministic fault injection at "
                   "these comma-separated sites (alloc_clause, "
                   "alloc_exchange, worker_stall, worker_death, slice_death, "
                   "clock_skew, io_short_write, or 'all')");
  args->add_option("fault-rate", "0.05", "per-consultation firing "
                   "probability for armed fault sites", {.min = 0, .max = 1});
  args->add_option("fault-seed", "1", "seed of the fault schedule (the same "
                   "seed replays the same faults)");
  args->add_option("fault-fires", "8", "cap on fires per armed site; bounded "
                   "injection keeps every run terminating with a checkable "
                   "answer",
                   {.min = 0, .max = std::numeric_limits<std::uint32_t>::max()});
}

// --memory-budget → a MemoryBudget, or nullptr when the flag is absent.
// Returns false (with a message on stderr) on a malformed size.
inline bool budget_from_args(const ArgParser& args,
                             std::unique_ptr<util::MemoryBudget>* out) {
  const std::string text = args.get_string("memory-budget");
  if (text.empty()) return true;
  std::uint64_t bytes = 0;
  if (!util::parse_size_bytes(text, &bytes)) {
    std::cerr << "error: malformed --memory-budget '" << text
              << "' (want e.g. 64M, 1G, 1048576)\n";
    return false;
  }
  *out = std::make_unique<util::MemoryBudget>(bytes);
  return true;
}

// --fault-* → an injector (not yet installed), or nullptr when no site is
// armed. Returns false (with a message on stderr) on an unknown site.
inline bool injector_from_args(const ArgParser& args,
                               std::unique_ptr<util::FaultInjector>* out) {
  const std::string sites = args.get_string("fault-sites");
  if (sites.empty()) return true;
  util::FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(args.get_int("fault-seed"));
  const double rate = args.get_double("fault-rate");
  const auto fires = static_cast<std::uint32_t>(args.get_int("fault-fires"));
  std::istringstream list(sites);
  std::string name;
  while (std::getline(list, name, ',')) {
    if (name.empty()) continue;
    if (name == "all") {
      for (int s = 0; s < static_cast<int>(util::FaultSite::kCount); ++s) {
        plan.arm(static_cast<util::FaultSite>(s), rate, fires);
      }
      continue;
    }
    util::FaultSite site;
    if (!util::parse_fault_site(name, &site)) {
      std::cerr << "error: unknown fault site '" << name
                << "' (alloc_clause, alloc_exchange, worker_stall, "
                   "worker_death, slice_death, clock_skew, io_short_write, "
                   "all)\n";
      return false;
    }
    plan.arm(site, rate, fires);
  }
#ifndef BERKMIN_FAULTS
  std::cerr << "warning: built without BERKMIN_FAULTS; --fault-sites is "
               "inert (fault points compile to no-ops)\n";
#endif
  *out = std::make_unique<util::FaultInjector>(plan);
  return true;
}

// Installs the injector for the process lifetime and restores the prior
// one on destruction (the CLIs hold it for the whole run).
struct InstalledInjector {
  util::FaultInjector* previous = nullptr;
  bool active = false;

  void install(util::FaultInjector* injector) {
    if (injector == nullptr) return;
    previous = util::install_fault_injector(injector);
    active = true;
  }
  ~InstalledInjector() {
    if (active) util::install_fault_injector(previous);
  }
};

}  // namespace berkmin::robustness
