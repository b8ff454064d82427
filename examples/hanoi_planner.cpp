// Planning as satisfiability: solve Towers of Hanoi by SAT (the paper's
// Hanoi benchmark class), decode the plan from the model, and print it.
//
//   ./build/examples/hanoi_planner [--disks 4] [--moves 15] [--preset chaff]
#include <iostream>

#include "core/solver.h"
#include "gen/hanoi.h"
#include "util/cli.h"
#include "util/timer.h"

using namespace berkmin;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.add_option("disks", "4", "number of disks",
                  {.min = 1, .max = gen::HanoiEncoding::kMaxDisks});
  args.add_option("moves", "-1", "plan horizon (-1 = optimal 2^n - 1)",
                  {.min = -1, .max = kMaxInt});
  args.add_option("preset", "berkmin", "solver preset: " + preset_list());
  args.add_flag("help", "show this help");
  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n";
    return 1;
  }
  if (args.has_flag("help")) {
    std::cout << args.help("hanoi_planner — Towers of Hanoi planning by SAT");
    return 0;
  }
  const std::optional<SolverOptions> preset =
      preset_by_name(args.get_string("preset"));
  if (!preset) {
    std::cerr << "error: unknown preset '" << args.get_string("preset")
              << "' (" << preset_list() << ")\n";
    return 1;
  }
  const int disks = static_cast<int>(args.get_int("disks"));
  int moves = static_cast<int>(args.get_int("moves"));
  if (moves < 0) moves = gen::HanoiEncoding::optimal_moves(disks);

  std::cout << "Towers of Hanoi: " << disks << " disks, horizon " << moves
            << " moves (optimal is " << gen::HanoiEncoding::optimal_moves(disks)
            << ")\n";

  const gen::HanoiEncoding encoding(disks, moves);
  std::cout << "encoded as " << encoding.cnf().num_vars() << " variables, "
            << encoding.cnf().num_clauses() << " clauses\n";

  Solver solver(*preset);
  solver.load(encoding.cnf());

  WallTimer timer;
  const SolveStatus status = solver.solve();
  std::cout << "solve: " << to_string(status) << " in " << timer.seconds()
            << " s (" << solver.stats().decisions << " decisions, "
            << solver.stats().conflicts << " conflicts)\n";

  if (status == SolveStatus::unsatisfiable) {
    std::cout << "no plan with " << moves << " moves exists\n";
    return 20;
  }
  if (status != SolveStatus::satisfiable) return 0;

  const auto plan = encoding.decode(solver.model());
  if (plan.empty()) {
    std::cerr << "error: model did not decode to a legal plan (bug)\n";
    return 1;
  }
  std::cout << "plan (disk: from -> to):\n";
  for (std::size_t step = 0; step < plan.size(); ++step) {
    std::cout << "  " << (step + 1) << ". disk " << plan[step].disk << ": peg "
              << plan[step].from << " -> peg " << plan[step].to << "\n";
  }
  std::cout << "plan verified legal; all " << disks << " disks on peg 2\n";
  return 10;
}
