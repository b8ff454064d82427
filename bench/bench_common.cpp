#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "util/cli.h"
#include "util/table.h"

namespace berkmin::bench {

BenchArgs parse_bench_args(int argc, char** argv, double default_timeout,
                           int default_scale) {
  ArgParser parser(argc, argv);
  parser.add_option("scale", std::to_string(default_scale),
                    "instance scale: 1 = smoke, 2 = default, 3+ = closer to "
                    "paper hardness",
                    {.min = 1, .max = kMaxInt});
  parser.add_option("timeout", std::to_string(default_timeout),
                    "per-instance timeout in seconds (the paper used 60000)",
                    {.min = 0});
  parser.add_option("seed", "7", "generator seed");
  parser.add_option("threads", "1",
                    "portfolio workers per solve (clause sharing on)",
                    {.min = 1, .max = kMaxThreads});
  parser.add_flag("help", "show this help");
  if (!parser.parse()) {
    std::cerr << "error: " << parser.error() << "\n";
    std::exit(1);
  }
  if (parser.has_flag("help")) {
    std::cout << parser.help("BerkMin reproduction bench driver");
    std::exit(0);
  }
  BenchArgs args;
  args.scale = static_cast<int>(parser.get_int("scale"));
  args.timeout = parser.get_double("timeout");
  args.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  args.threads = static_cast<int>(parser.get_int("threads"));
  return args;
}

int run_class_comparison(const std::string& title,
                         const std::vector<Column>& columns,
                         const BenchArgs& args) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "scale " << args.scale << ", timeout " << args.timeout
            << " s/instance, seed " << args.seed;
  if (args.threads > 1) std::cout << ", " << args.threads << " threads";
  std::cout << "\n";
  for (const Column& column : columns) {
    std::cout << "  " << column.label << ": " << column.options.describe()
              << "\n";
  }

  std::vector<std::string> headers{"Class of benchmarks"};
  for (const Column& column : columns) headers.push_back(column.label + " (s)");
  Table table(headers);

  std::vector<std::vector<harness::ClassResult>> per_column(columns.size());
  int violations = 0;

  const std::vector<harness::Suite> suites =
      harness::paper_classes(args.scale, args.seed);
  for (const harness::Suite& suite : suites) {
    std::vector<std::string> row{suite.name};
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const harness::ClassResult result =
          harness::run_suite(suite, columns[c].options, args.timeout,
                             args.threads);
      violations += result.wrong;
      row.push_back(result.format_time(args.timeout));
      per_column[c].push_back(result);
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> total_row{"Total"};
  for (std::size_t c = 0; c < columns.size(); ++c) {
    total_row.push_back(
        harness::total_row(per_column[c]).format_time(args.timeout));
  }
  table.add_row(std::move(total_row));

  std::cout << table.to_string();
  if (violations > 0) {
    std::cout << "ERROR: " << violations << " expectation violations!\n";
  }
  return violations;
}

void print_paper_reference(const std::string& caption, const char* text) {
  std::cout << "\n--- paper reference (" << caption << ", PIII-700 / Ultra-80"
            << " wall clock; shapes, not absolute numbers, are comparable) ---\n"
            << text << "\n";
}

}  // namespace berkmin::bench
