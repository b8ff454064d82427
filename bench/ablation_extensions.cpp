// Ablation bench for the beyond-paper extensions SolverOptions offers
// (core/options.h): learned-clause minimization, Luby restarts, and the
// widened top-clause window (the paper's Remark 2). Compares each against
// stock BerkMin on the full class suite — the same protocol as the
// paper's own ablations.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace berkmin;
  using namespace berkmin::bench;

  const BenchArgs args = parse_bench_args(argc, argv);

  SolverOptions minimize = SolverOptions::berkmin();
  minimize.minimize_learned = true;

  SolverOptions luby = SolverOptions::berkmin();
  luby.restart_policy = RestartPolicy::luby;

  SolverOptions window = SolverOptions::berkmin();
  window.top_clause_window = 4;

  const int violations = run_class_comparison(
      "Extensions ablation: minimization / Luby restarts / top-clause window",
      {{"BerkMin", SolverOptions::berkmin()},
       {"Minimize", minimize},
       {"Luby", luby},
       {"Window4", window}},
      args);
  return violations == 0 ? 0 : 1;
}
