// The paper scorecard: Tables 1-10 of the BerkMin paper and the
// extensions ablation, driven by one table (kTables below).
//
// `scorecard --table N` prints table N as measured here, the paper's
// numbers, and a verdict on each claim the table makes. Without --table it
// prints every claim's verdict with the counters it read, as markdown
// (bench/SCORECARD.md is `scorecard --scale 1`). Each run is solved once
// per process, however many tables read it.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/options.h"
#include "harness/runner.h"
#include "harness/suites.h"
#include "util/cli.h"
#include "util/table.h"

namespace berkmin::bench {
namespace {

using harness::ClassResult;
using harness::RunResult;

// A table column: one solver configuration, named by its label.
struct Column {
  std::string label;
  SolverOptions options;
};

// What a table solves: paper classes (all twelve, or the ones it names),
// or the instance list of Table 3, Tables 8/9 or Table 10.
enum class Workload { classes, skin_effect, detail, competition };

// What a table prints for each column, per class or instance.
enum class Cell {
  time,           // finished seconds, or "> S (k)" with k aborted
  aborted,        // instances that timed out
  time_or_bound,  // seconds, or "> timeout"
  time_or_star,   // seconds, or "*" for a timeout
  decisions,
  db_generated,  // (conflict clauses + initial)/initial
  db_peak,       // peak live database/initial, for the last column only
};

// A table's solves: results[c][r] is column c on row r (a class, or one
// instance of an instance list).
struct Solved {
  std::vector<harness::Suite> rows;
  std::vector<std::vector<ClassResult>> results;
};

// One pair of numbers a claim compares: it says `larger` exceeds
// `smaller` (for a comparability claim, that the two are close).
struct Comparison {
  std::string label;
  double larger = 0;
  double smaller = 0;
  bool cut_short = false;  // read from a run that timed out
};

using Compare = std::function<std::vector<Comparison>(
    const std::vector<Column>&, const Solved&)>;

struct Claim {
  std::string text;     // the claim, as the paper makes it
  std::string reading;  // the numbers it compares
  Compare compare;
  bool comparable = false;  // a tie is the claim, not a win
};

// One paper table: what it runs, what it prints, what the paper says.
struct PaperTable {
  std::string id;  // the --table value
  std::string title;
  std::vector<Column> columns;
  Workload workload;
  std::vector<std::string> classes;  // Workload::classes; empty = all
  double timeout;                    // default seconds per instance
  std::vector<std::pair<Cell, std::string>> cells;  // and header suffixes
  std::string reference_caption;
  const char* reference;  // the paper's numbers; nullptr for none
  std::vector<Claim> claims;
};

// ---- claims and verdicts -----------------------------------------------

// The verdict rule, stated once; verdict() applies it.
constexpr double kTieLow = 0.9;
constexpr double kTieHigh = 1.1;
constexpr const char* kVerdictRule =
    "Per compared class or instance, a counter ratio inside [0.9, 1.1] is a "
    "tie. A claim is *reproduced* when it holds beyond that band everywhere "
    "it is stated, *not reproduced* when it fails beyond the band anywhere, "
    "and *inconclusive* otherwise, or when any number it reads comes from a "
    "run that timed out. A claim that two solvers are comparable (Table 6) "
    "holds inside the band and fails outside it.";

double ratio(const Comparison& c) {
  if (c.smaller == 0) return c.larger == 0 ? 1.0 : INFINITY;
  return c.larger / c.smaller;
}

const char* verdict(const Claim& claim, const std::vector<Comparison>& all) {
  bool all_hold = true;
  bool any_fails = false;
  for (const Comparison& c : all) {
    if (c.cut_short) return "inconclusive";
    const double r = ratio(c);
    const bool tie = r >= kTieLow && r <= kTieHigh;
    all_hold = all_hold && (claim.comparable ? tie : r > kTieHigh);
    any_fails = any_fails || (claim.comparable ? !tie : r < kTieLow);
  }
  if (any_fails) return "not reproduced";
  return all_hold ? "reproduced" : "inconclusive";
}

std::string format_number(double value) {
  if (value != std::floor(value)) return format_ratio(value);
  return format_count(static_cast<std::uint64_t>(value));
}

// "- Table N: <verdict> — <claim>. <reading>: <label> a/b = r; ..."
std::string verdict_line(const PaperTable& t, const Claim& claim,
                         const Solved& solved) {
  const std::vector<Comparison> all = claim.compare(t.columns, solved);
  std::string line = "- Table " + t.id + ": " + verdict(claim, all) + " — " +
                     claim.text + ". " + claim.reading + ":";
  for (const Comparison& c : all) {
    line += (&c == &all[0] ? " " : "; ") + c.label + " " +
            format_number(c.larger) + "/" + format_number(c.smaller) + " = " +
            format_ratio(ratio(c));
    if (c.cut_short) line += " (timed out)";
  }
  return line;
}

using Count = double (*)(const RunResult&);

double conflicts(const RunResult& r) { return double(r.stats.conflicts); }
double decisions(const RunResult& r) { return double(r.stats.decisions); }
double db_generated(const RunResult& r) { return r.stats.db_generated_ratio(); }
double db_peak(const RunResult& r) { return r.stats.db_peak_ratio(); }
double timed_out(const RunResult& r) { return r.timed_out; }
double finished(const RunResult& r) { return !r.timed_out; }
double satisfiable(const RunResult& r) {
  return r.status == SolveStatus::satisfiable;
}

// `count` summed over every run of `rows`.
double sum(const std::vector<ClassResult>& rows, Count count) {
  double total = 0;
  for (const ClassResult& row : rows) {
    for (const RunResult& run : row.runs) total += count(run);
  }
  return total;
}

// The `larger` rows against the `smaller` ones: cut short when a run timed
// out, unless timeouts are what `count` counts.
Comparison compare(std::string label, const std::vector<ClassResult>& larger,
                   const std::vector<ClassResult>& smaller, Count count) {
  const bool timeouts = sum(larger, timed_out) + sum(smaller, timed_out) > 0;
  return {std::move(label), sum(larger, count), sum(smaller, count),
          timeouts && count != finished};
}

// Column `larger` against column `smaller` on each named row (on every
// row when `names` is empty).
Compare per_row(Count count, int larger, int smaller,
                std::vector<std::string> names = {}) {
  return [=](const std::vector<Column>&, const Solved& solved) {
    std::vector<Comparison> out;
    for (std::size_t r = 0; r < solved.rows.size(); ++r) {
      const std::string& name = solved.rows[r].name;
      if (names.empty() || std::ranges::count(names, name) > 0) {
        out.push_back(compare(name, {solved.results[larger][r]},
                              {solved.results[smaller][r]}, count));
      }
    }
    return out;
  };
}

// Each column of `larger` against each of `smaller`, over all rows.
Compare totals(Count count, std::vector<int> larger, std::vector<int> smaller) {
  return [=](const std::vector<Column>& columns, const Solved& solved) {
    std::vector<Comparison> out;
    for (const int s : smaller) {
      for (const int l : larger) {
        out.push_back(compare(columns[l].label + "/" + columns[s].label,
                              solved.results[l], solved.results[s], count));
      }
    }
    return out;
  };
}

// `bound` against column `column` on each instance: the count stays
// below it.
Compare below(Count count, int column, double bound) {
  return [=](const std::vector<Column>&, const Solved& solved) {
    std::vector<Comparison> out;
    for (const ClassResult& row : solved.results[column]) {
      const RunResult& run = row.runs[0];
      out.push_back({run.name, bound, count(run), run.timed_out});
    }
    return out;
  };
}

// Table 3 on each instance: f(1) above f(0), and f(r) falling over
// decades of r.
Compare skin_falls() {
  return [](const std::vector<Column>&, const Solved& solved) {
    std::vector<Comparison> out;
    for (const ClassResult& row : solved.results[0]) {
      const RunResult& run = row.runs[0];
      for (const auto& [high, low] : {std::pair{1, 0}, {1, 10}, {10, 100}}) {
        out.push_back({run.name + " f(" + std::to_string(high) + ")/f(" +
                           std::to_string(low) + ")",
                       double(run.stats.skin_at(high)),
                       double(run.stats.skin_at(low)), run.timed_out});
      }
    }
    return out;
  };
}

// ---- how a table prints -------------------------------------------------

// Table 3: the f(r) histogram, one column per instance.
void print_skin(const Solved& solved) {
  std::cout << "instances: ";
  std::vector<std::string> headers{"Distance"};
  for (std::size_t i = 0; i < solved.rows.size(); ++i) {
    std::cout << "(" << i + 1 << ") " << solved.rows[i].name << "  ";
    headers.push_back(std::to_string(i + 1));
  }
  std::cout << "\n";
  Table table(headers);
  for (const std::size_t r :
       {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 50, 100, 500, 1000, 2000}) {
    std::vector<std::string> row{"f(" + std::to_string(r) + ")"};
    for (const ClassResult& result : solved.results[0]) {
      row.push_back(format_count(result.runs[0].stats.skin_at(r)));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.to_string();
}

std::string format_cell(Cell cell, const ClassResult& result, double timeout) {
  const std::string seconds = format_seconds(result.finished_seconds);
  const SolverStats& stats = result.runs[0].stats;
  switch (cell) {
    case Cell::time: return result.format_time(timeout);
    case Cell::aborted: return std::to_string(result.aborted);
    case Cell::time_or_bound:
      return result.aborted ? "> " + format_seconds(timeout) : seconds;
    case Cell::time_or_star: return result.aborted ? "*" : seconds;
    case Cell::decisions: return format_count(stats.decisions);
    case Cell::db_generated: return format_ratio(stats.db_generated_ratio());
    case Cell::db_peak: return format_ratio(stats.db_peak_ratio());
  }
  return "";
}

// A row per class or instance: its name, then its instance count (named
// classes) or expected answer (instances), then each column's cells. All
// twelve classes add a Total row, and Table 10 its solved counts.
void print_table(const PaperTable& t, const Solved& solved, double timeout) {
  if (t.workload == Workload::skin_effect) return print_skin(solved);
  const bool all_classes = t.workload == Workload::classes && t.classes.empty();
  const bool named_classes = t.workload == Workload::classes && !all_classes;
  const bool detail = t.workload == Workload::detail;
  const bool competition = t.workload == Workload::competition;
  const auto shown = [&](Cell cell, std::size_t c) {
    return cell != Cell::db_peak || c + 1 == t.columns.size();
  };
  std::vector<std::string> headers{"Class of benchmarks"};
  if (named_classes) headers.push_back("Number of instances");
  if (detail) headers = {"Instance name", "Satisfiable"};
  if (competition) headers = {"Instance", "Sat/Unsat"};
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    if (all_classes) {
      std::cout << "  " << t.columns[c].label << ": "
                << t.columns[c].options.describe() << "\n";
    }
    for (const auto& [cell, suffix] : t.cells) {
      if (shown(cell, c)) headers.push_back(t.columns[c].label + suffix);
    }
  }
  Table table(headers);
  for (std::size_t r = 0; r < solved.rows.size(); ++r) {
    const harness::Suite& suite = solved.rows[r];
    const bool sat = suite.instances[0].expected == gen::Expectation::sat;
    std::vector<std::string> row{suite.name};
    if (named_classes) row.push_back(std::to_string(suite.instances.size()));
    if (detail) row.push_back(sat ? "Yes" : "No");
    if (competition) row.push_back(sat ? "Sat" : "Unsat");
    for (std::size_t c = 0; c < t.columns.size(); ++c) {
      for (const auto& [cell, suffix] : t.cells) {
        if (shown(cell, c)) {
          row.push_back(format_cell(cell, solved.results[c][r], timeout));
        }
      }
    }
    table.add_row(std::move(row));
  }
  if (all_classes) {
    std::vector<std::string> total{"Total"};
    for (const auto& column : solved.results) {
      total.push_back(harness::total_row(column).format_time(timeout));
    }
    table.add_row(std::move(total));
  }
  std::cout << table.to_string();
  if (!competition) return;
  for (const auto& [caption, count] :
       {std::pair<const char*, Count>{"Total solved:            ", finished},
        {"Total solved satisfiable: ", satisfiable}}) {
    std::cout << caption;
    for (std::size_t c = 0; c < t.columns.size(); ++c) {
      std::cout << t.columns[c].label << "=" << sum(solved.results[c], count)
                << "  ";
    }
    std::cout << "\n";
  }
}

// ---- the paper's tables -------------------------------------------------

// BerkMin with one extension turned on by `set`.
SolverOptions berkmin_with(void (*set)(SolverOptions&)) {
  SolverOptions options = SolverOptions::berkmin();
  set(options);
  return options;
}

const Column kBerkMin{"BerkMin", SolverOptions::berkmin()};
const Column kChaff{"zChaff", SolverOptions::chaff_like()};
const std::vector<std::string> kHard{"Hanoi", "Miters", "Fvp_unsat2.0"};
const std::vector<std::pair<Cell, std::string>> kTime{{Cell::time, " (s)"}};

const std::vector<PaperTable> kTables{
    {"1", "Table 1: sensitivity of decision-making",
     {kBerkMin, {"Less_sensitivity", SolverOptions::less_sensitivity()}},
     Workload::classes, {}, 10.0, kTime, "Table 1",
     "Class            BerkMin(s)  Less_sensitivity(s)\n"
     "Hole                  231.1                74.65\n"
     "Blocksworld           10.26                 8.18\n"
     "Par16                  8.83                11.31\n"
     "Sss1.0                  8.2                 10.5\n"
     "Sss1.0a               10.14                20.29\n"
     "Sss_sat1.0           235.02                256.5\n"
     "Fvp_unsat1.0         765.16               887.59\n"
     "Vliw_sat1.0         6199.52               7263.5\n"
     "Beijing              409.24               274.92\n"
     "Hanoi               1409.82              8814.16\n"
     "Miters              4584.72              8070.17\n"
     "Fvp_unsat2.0        6539.84            25,806.79\n"
     "Total              20411.85            51,498.26",
     {{"activity from every clause responsible for a conflict beats Chaff's "
       "final-clause-only rule on Hanoi, Miters and Fvp_unsat2.0",
       "Conflicts Less_sensitivity/BerkMin", per_row(conflicts, 1, 0, kHard)}}},
    {"2", "Table 2: mobility of decision-making",
     {kBerkMin, {"Less_mobility", SolverOptions::less_mobility()}},
     Workload::classes, {}, 10.0, kTime, "Table 2",
     "Class            BerkMin(s)  Less_mobility(s) (aborted)\n"
     "Hole                  231.1            121.89\n"
     "Blocksworld           10.26             14.93\n"
     "Par16                  8.83              6.65\n"
     "Sss1.0                  8.2             17.71\n"
     "Sss1.0a               10.14             16.93\n"
     "Sss_sat1.0           235.02            220.36\n"
     "Fvp_unsat1.0         765.16           4633.13\n"
     "Vliw_sat1.0         6199.52           9507.26\n"
     "Beijing              409.24         > 120,243 (2)\n"
     "Hanoi               1409.82           1072.12\n"
     "Miters              4584.72          28,452.88\n"
     "Fvp_unsat2.0        6539.84          > 94,653 (1)\n"
     "Total              20411.85         > 258,959 (3)",
     {{"branching inside the current top conflict clause beats branching on "
       "the globally most active variable, which loses dramatically on "
       "Beijing, Miters and Fvp_unsat2.0",
       "Conflicts Less_mobility/BerkMin",
       per_row(conflicts, 1, 0, {"Beijing", "Miters", "Fvp_unsat2.0"})}}},
    {"3", "Table 3: skin effect", {kBerkMin}, Workload::skin_effect, {}, 60.0,
     {}, "Table 3 (excerpt)",
     "Distance        1        2       3        4       5\n"
     "f(0)         2086     2235     585     3678     409\n"
     "f(1)      161,770  178,791  61,615  111,221  36,849\n"
     "f(2)       91,154   93,820  26,021   53,224  17,715\n"
     "f(5)       42,698   45,668  10,151   27,813   9485\n"
     "f(10)      21,551   25,700   5088   15,616    5706\n"
     "f(100)        964     3265     253     2155     596\n"
     "f(1000)        39      134       7      466     138\n"
     "f(2000)         4       21       3      252      39",
     {{"f(r), how often a decision came from the clause at distance r from "
       "the top of the conflict-clause stack, falls quickly in r, with f(0) "
       "small (BCP consumes the newest clause)",
       "BerkMin's f(r)", skin_falls()}}},
    {"4", "Table 4: branch selection",
     {kBerkMin,
      {"Sat_top", SolverOptions::with_polarity(PolarityPolicy::sat_top)},
      {"Unsat_top", SolverOptions::with_polarity(PolarityPolicy::unsat_top)},
      {"Take_0", SolverOptions::with_polarity(PolarityPolicy::take_0)},
      {"Take_1", SolverOptions::with_polarity(PolarityPolicy::take_1)},
      {"Take_rand", SolverOptions::with_polarity(PolarityPolicy::take_rand)}},
     Workload::classes, {}, 10.0, kTime, "Table 4 (totals row)",
     "            BerkMin   Sat_top   Unsat_top       Take_0      Take_1     Take_rand\n"
     "Total      20411.85  36,152.8  >155,393(2)   53,623.68  >213,808(3)   24,844.75",
     {{"BerkMin's database-symmetrizing polarity and Take_rand are clearly "
       "the best of the six branch selections",
       "Conflicts over all classes", totals(conflicts, {1, 2, 3, 4}, {0, 5})},
      {"BerkMin's polarity is slightly ahead of Take_rand",
       "Conflicts over all classes", totals(conflicts, {5}, {0})}}},
    {"5", "Table 5: clause database management",
     {kBerkMin, {"Limited_keeping", SolverOptions::limited_keeping()}},
     Workload::classes, {}, 10.0, kTime, "Table 5",
     "Class            BerkMin(s)  Limited_keeping(s)\n"
     "Hole                  231.1              696.79\n"
     "Blocksworld           10.26                7.52\n"
     "Par16                  8.83                7.95\n"
     "Sss1.0                  8.2                8.87\n"
     "Sss1.0a               10.14                 9.4\n"
     "Sss_sat1.0           235.02              235.42\n"
     "Fvp_unsat1.0         765.16              1328.1\n"
     "Vliw_sat1.0         6199.52              5858.0\n"
     "Beijing              409.24              388.52\n"
     "Hanoi               1409.82           17,566.16\n"
     "Miters              4584.72             9143.33\n"
     "Fvp_unsat2.0        6539.84           22,630.55\n"
     "Total              20411.85           57,880.71",
     {{"age-, activity- and length-aware clause retention beats the "
       "GRASP-style rule (drop clauses over 42 literals), which loses over 2x "
       "on Hanoi, Miters and Fvp_unsat2.0",
       "Conflicts Limited_keeping/BerkMin", per_row(conflicts, 1, 0, kHard)}}},
    {"6", "Table 6: classes where Chaff and BerkMin are comparable",
     {kChaff, kBerkMin}, Workload::classes,
     {"Blocksworld", "Hole", "Par16", "Sss1.0", "Sss1.0a", "Sss_sat1.0",
      "Fvp_unsat1.0", "Vliw_sat1.0"},
     10.0, kTime, "Table 6",
     "Class          #   zChaff(s)  BerkMin(s)\n"
     "Blocksworld    7        33.2         9.0\n"
     "Hole           5        38.0       339.0\n"
     "Par16         10        27.7        13.6\n"
     "Sss 1.0       48        85.3        13.4\n"
     "Sss 1.0a       8        32.2        17.9\n"
     "Sss-sat 1.0  100       593.9       254.4\n"
     "Fvp-unsat 1.0  4      1140.8      1637.4\n"
     "Vliw-sat 1.0 100    12,334.2      7305.0",
     {{"Chaff's and BerkMin's performances are comparable on these classes",
       "Conflicts zChaff/BerkMin", per_row(conflicts, 0, 1), true}}},
    {"7", "Table 7: classes where BerkMin dominates", {kChaff, kBerkMin},
     Workload::classes, {"Beijing", "Miters", "Hanoi", "Fvp_unsat2.0"}, 10.0,
     {{Cell::time, " time (s)"}, {Cell::aborted, " aborted"}}, "Table 7",
     "Class         #   zChaff time (aborted)    BerkMin time (aborted)\n"
     "Beijing      16   247.6 (>120,247.6)  (2)   494.0  (0)\n"
     "Miters        5   1917.4 (>121,917.4) (2)   3477.6 (0)\n"
     "Hanoi         3   50,832.1            (0)   1401.3 (0)\n"
     "Fvp-unsat2.0 22   26,944.7 (>146,944.7)(2)  6869.7 (0)",
     {{"BerkMin dominates Chaff on these classes (in the paper Chaff aborts "
       "on three of them, BerkMin on none)",
       "Conflicts zChaff/BerkMin", per_row(conflicts, 0, 1)}}},
    {"8", "Table 8: per-instance decisions and runtimes", {kChaff, kBerkMin},
     Workload::detail, {}, 30.0,
     {{Cell::decisions, " decisions"}, {Cell::time_or_bound, " time (s)"}},
     "Table 8",
     "Instance     Sat  zChaff decisions  time(s)    BerkMin decisions  time(s)\n"
     "9vliw_bp_mc  No   2,577,451         1116.2     2,384,485          1625.0\n"
     "Hanoi5       Yes  1,290,705         9517.6     194,672            71.2\n"
     "Hanoi6       Yes  4,977,866         41,313.1   1,948,717          1328.7\n"
     "4pipe        No   466,909           396.7      144,036            40.9\n"
     "5pipe        No   1,364,866         894.4      213,859            71.8\n"
     "6pipe        No   5,271,512         11,811.7   1,371,445          1015.6\n"
     "7pipe*       No   14,748,116        > 60,000   3,357,821          3673.2",
     {{"BerkMin wins by building smaller search trees (fewer decisions), not "
       "by faster per-decision code",
       "Decisions zChaff/BerkMin", per_row(decisions, 0, 1)}}},
    {"9", "Table 9: clause database sizes", {kChaff, kBerkMin},
     Workload::detail, {}, 30.0,
     {{Cell::db_generated, " DB/initial"}, {Cell::db_peak, " largest/initial"}},
     "Table 9",
     "Instance     Sat  zChaff DB/init  BerkMin DB/init  BerkMin largest/init\n"
     "9vliw_bp_mc  No   2.40            1.88             1.04\n"
     "Hanoi5       Yes  68.90           8.68             2.38\n"
     "Hanoi6       Yes  93.30           19.58            4.19\n"
     "4pipe        No   3.09            1.49             1.08\n"
     "5pipe        No   2.70            1.09             1.01\n"
     "6pipe        No   5.13            1.71             1.05\n"
     "7pipe*       No   7.21            1.95             1.05",
     {{"Chaff generates a larger clause database than BerkMin",
       "(Conflict clauses + initial)/initial, zChaff/BerkMin",
       per_row(db_generated, 0, 1)},
      {"BerkMin keeps at most ~4x the initial CNF in memory",
       "4 over BerkMin's peak live database/initial", below(db_peak, 1, 4.0)}}},
    {"10", "Table 10: competition-style robustness",
     {kBerkMin, {"Limmat", SolverOptions::limmat_like()}, kChaff},
     Workload::competition, {}, 20.0, {{Cell::time_or_star, " (s)"}},
     "Table 10 (summary)",
     "Out of 17 listed finals instances (timeout 6 h):\n"
     "  solved:              BerkMin 15, limmat 4, zChaff 7\n"
     "  solved satisfiable:  BerkMin 5,  limmat 2, zChaff 1",
     {{"BerkMin solves more competition instances than limmat and zChaff",
       "Instances solved", totals(finished, {0}, {1, 2})}}},
    {"extensions",
     "Extensions ablation: minimization / Luby restarts / top-clause window",
     {kBerkMin,
      {"Minimize", berkmin_with([](auto& o) { o.minimize_learned = true; })},
      {"Luby",
       berkmin_with([](auto& o) { o.restart_policy = RestartPolicy::luby; })},
      {"Window4", berkmin_with([](auto& o) { o.top_clause_window = 4; })}},
     Workload::classes, {}, 10.0, kTime, "", nullptr, {}},
};

// ---- solving ------------------------------------------------------------

// A table's rows: the paper classes it names, in its order (all twelve
// when it names none), or one suite per instance of its list.
std::vector<harness::Suite> table_rows(const PaperTable& t, int scale,
                                       std::uint64_t seed) {
  if (t.workload == Workload::classes && t.classes.empty()) {
    return harness::paper_classes(scale, seed);
  }
  std::vector<harness::Suite> rows;
  for (const std::string& name : t.classes) {
    rows.push_back(harness::suite_by_name(name, scale, seed));
  }
  if (t.workload == Workload::classes) return rows;
  const auto list = t.workload == Workload::skin_effect
                        ? harness::skin_effect_instances
                    : t.workload == Workload::detail
                        ? harness::detail_instances
                        : harness::competition_suite;
  for (harness::Instance& instance : list(scale, seed)) {
    rows.push_back({instance.name, {std::move(instance)}});
  }
  return rows;
}

// Every solve of the process, keyed by (configuration, workload, row,
// timeout): a run that several tables read is solved once.
struct Runs {
  int scale;
  std::uint64_t seed;
  int threads;
  int violations = 0;
  std::map<std::tuple<std::string, Workload, std::string, double>,
           ClassResult>
      done = {};

  Solved solve(const PaperTable& t, double timeout) {
    Solved solved{table_rows(t, scale, seed), {}};
    for (const Column& column : t.columns) {
      std::vector<ClassResult>& results = solved.results.emplace_back();
      for (const harness::Suite& row : solved.rows) {
        const auto [it, fresh] =
            done.try_emplace({column.label, t.workload, row.name, timeout});
        if (fresh) {
          it->second =
              harness::run_suite(row, column.options, timeout, threads);
          violations += it->second.wrong;
        }
        results.push_back(it->second);
      }
    }
    return solved;
  }
};

}  // namespace
}  // namespace berkmin::bench

int main(int argc, char** argv) {
  using namespace berkmin;
  using namespace berkmin::bench;

  ArgParser parser(argc, argv);
  parser.add_option("scale", "2",
                    "instance scale: 1 = smoke, 2 = default, 3+ = harder",
                    {.min = 1, .max = kMaxInt});
  parser.add_option("timeout", "10.0",
                    "per-instance timeout in seconds (default: the table's "
                    "own: 60 for 3, 30 for 8-9, 20 for 10, else 10)",
                    {.min = 0});
  parser.add_option("seed", "7", "generator seed");
  parser.add_option("threads", "1",
                    "portfolio workers per solve (clause sharing on)",
                    {.min = 1, .max = kMaxThreads});
  parser.add_option("table", "",
                    "print one table: 1-10 or extensions (default: verdicts)");
  parser.add_flag("help", "show this help");
  if (!parser.parse()) {
    std::cerr << "error: " << parser.error() << "\n";
    return 1;
  }
  if (parser.has_flag("help")) {
    std::cout << parser.help("BerkMin paper scorecard (Tables 1-10)");
    return 0;
  }
  const std::string id = parser.get_string("table");
  const auto only = std::ranges::find(kTables, id, &PaperTable::id);
  if (parser.provided("table") && only == kTables.end()) {
    std::cerr << "error: option --table must be 1-10 or extensions, got '"
              << id << "'\n";
    return 1;
  }
  const auto timeout_of = [&](const PaperTable& t) {
    return parser.provided("timeout") ? parser.get_double("timeout")
                                      : t.timeout;
  };
  Runs runs{static_cast<int>(parser.get_int("scale")),
            static_cast<std::uint64_t>(parser.get_int("seed")),
            static_cast<int>(parser.get_int("threads"))};

  if (only != kTables.end()) {
    const double timeout = timeout_of(*only);
    const Solved solved = runs.solve(*only, timeout);
    std::cout << "=== " << only->title << " ===\nscale " << runs.scale
              << ", timeout " << timeout << " s/instance, seed " << runs.seed;
    if (runs.threads > 1) std::cout << ", " << runs.threads << " threads";
    std::cout << "\n";
    print_table(*only, solved, timeout);
    if (only->reference != nullptr) {
      std::cout << "\n--- paper reference (" << only->reference_caption
                << ", PIII-700 / Ultra-80 wall clock; shapes, not absolute "
                   "numbers, are comparable) ---\n"
                << only->reference << "\n";
    }
    for (const Claim& claim : only->claims) {
      std::cout << "\n" << verdict_line(*only, claim, solved) << "\n";
    }
  } else {
    std::string command = "scorecard";
    for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
    std::cout << "# BerkMin paper scorecard\n\nGenerated by `" << command
              << "` (bench/scorecard.cpp) from deterministic counters; "
                 "`--table N` prints table N with wall-clock times and the "
                 "paper's numbers.\n\nVerdict rule: "
              << kVerdictRule << "\n\n";
    for (const PaperTable& t : kTables) {
      if (t.claims.empty()) continue;
      const Solved solved = runs.solve(t, timeout_of(t));
      for (const Claim& claim : t.claims) {
        std::cout << verdict_line(t, claim, solved) << "\n";
      }
    }
  }
  if (runs.violations > 0) {
    std::cout << "ERROR: " << runs.violations << " expectation violations!\n";
    return 1;
  }
  return 0;
}
