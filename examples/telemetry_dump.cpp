// Pretty-prints a metrics dump written by dimacs_solver / batch_solver
// --metrics-out — JSON (MetricsSnapshot::to_json) or Prometheus text
// exposition (a .prom file, or any scrape of MetricsSnapshot's text
// exposition) — as aligned tables, in the style of the paper-table bench
// drivers. The format is detected from the first character.
//
//   ./build/examples/telemetry_dump run.json
//   ./build/examples/telemetry_dump run.prom
//
// Exit codes: 0 on success, 1 on unreadable input, malformed JSON or a
// malformed sample line.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/table.h"

using namespace berkmin;

namespace {

struct Sample {
  std::string name;
  std::string label_key;    // empty when unlabeled
  std::string label_value;
  double value = 0.0;
};

// One exposition line: `name[{key="value"}] value`. Comment and blank
// lines return true with *ok untouched; malformed sample lines set *ok to
// false.
bool parse_line(const std::string& line, Sample* sample) {
  std::size_t pos = 0;
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t')) {
    ++pos;
  }
  const std::size_t name_start = pos;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
  if (pos == name_start) return false;
  sample->name = line.substr(name_start, pos - name_start);
  sample->label_key.clear();
  sample->label_value.clear();

  if (pos < line.size() && line[pos] == '{') {
    const std::size_t eq = line.find('=', pos);
    const std::size_t open_quote = line.find('"', pos);
    const std::size_t close_quote =
        open_quote == std::string::npos ? std::string::npos
                                        : line.find('"', open_quote + 1);
    const std::size_t close = line.find('}', pos);
    if (eq == std::string::npos || open_quote == std::string::npos ||
        close_quote == std::string::npos || close == std::string::npos ||
        !(pos < eq && eq < open_quote && open_quote < close_quote &&
          close_quote < close)) {
      return false;
    }
    sample->label_key = line.substr(pos + 1, eq - pos - 1);
    sample->label_value =
        line.substr(open_quote + 1, close_quote - open_quote - 1);
    pos = close + 1;
  }

  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  try {
    sample->value = std::stod(line.substr(pos));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<std::uint64_t>(v)) && v >= 0.0) {
    return format_count(static_cast<std::uint64_t>(v));
  }
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

struct Summary {
  std::map<std::string, double> quantiles;  // by quantile label
  double sum = 0.0;
  double count = 0.0;
};

// Both dump formats, classified the same way.
struct Metrics {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Summary> summaries;
  std::map<std::string, double> phase_seconds;
  std::map<std::string, double> phase_calls;
};

// Prometheus text exposition. Returns false after printing an error.
bool read_prometheus(std::istream& in, const std::string& path,
                     Metrics* metrics) {
  std::vector<Sample> samples;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    Sample sample;
    if (!parse_line(line, &sample)) {
      std::cerr << "error: " << path << ":" << line_number
                << ": malformed sample line\n";
      return false;
    }
    samples.push_back(std::move(sample));
  }

  // Classify. Quantile-labeled samples define the summaries; their base
  // name then claims the matching _sum/_count. Phase counters carry a
  // phase label. Everything else: _total = counter, bare = gauge.
  auto& summaries = metrics->summaries;
  for (const Sample& s : samples) {
    if (s.label_key == "quantile") {
      summaries[s.name].quantiles[s.label_value] = s.value;
    }
  }
  for (const Sample& s : samples) {
    if (s.label_key == "quantile") continue;
    if (s.label_key == "phase") {
      (s.name == "berkmin_phase_seconds_total" ? metrics->phase_seconds
                                               : metrics->phase_calls)
          [s.label_value] = s.value;
      continue;
    }
    if (ends_with(s.name, "_sum") &&
        summaries.count(s.name.substr(0, s.name.size() - 4)) != 0) {
      summaries[s.name.substr(0, s.name.size() - 4)].sum = s.value;
      continue;
    }
    if (ends_with(s.name, "_count") &&
        summaries.count(s.name.substr(0, s.name.size() - 6)) != 0) {
      summaries[s.name.substr(0, s.name.size() - 6)].count = s.value;
      continue;
    }
    (ends_with(s.name, "_total") ? metrics->counters
                                 : metrics->gauges)[s.name] = s.value;
  }
  return true;
}

// Flattens a JSON document of nested objects with numeric leaves — the
// shape MetricsSnapshot::to_json writes — into (key path, value) pairs.
class JsonLeaves {
 public:
  using Leaf = std::pair<std::vector<std::string>, double>;

  explicit JsonLeaves(const std::string& text) : text_(text) {}

  bool read(std::vector<Leaf>* out) {
    std::vector<std::string> path;
    if (!value(&path, out)) return false;
    skip_space();
    return pos_ == text_.size();
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool value(std::vector<std::string>* path, std::vector<Leaf>* out) {
    if (eat('{')) return object(path, out);
    skip_space();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<std::size_t>(end - start);
    out->emplace_back(*path, v);
    return true;
  }
  bool object(std::vector<std::string>* path, std::vector<Leaf>* out) {
    if (eat('}')) return true;
    do {
      std::string key;
      if (!string(&key) || !eat(':')) return false;
      path->push_back(std::move(key));
      if (!value(path, out)) return false;
      path->pop_back();
    } while (eat(','));
    return eat('}');
  }
  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        c = text_[pos_++];
        if (c == 'u') {  // \u00XX: the only escape to_json emits besides \"
          if (pos_ + 4 > text_.size()) return false;
          c = static_cast<char>(
              std::strtol(text_.substr(pos_ + 2, 2).c_str(), nullptr, 16));
          pos_ += 4;
        }
      }
      out->push_back(c);
    }
    return eat('"');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// A MetricsSnapshot::to_json document. Returns false after printing an
// error.
bool read_json(const std::string& text, const std::string& path,
               Metrics* metrics) {
  std::vector<JsonLeaves::Leaf> leaves;
  if (!JsonLeaves(text).read(&leaves)) {
    std::cerr << "error: " << path << ": malformed JSON metrics dump\n";
    return false;
  }
  static const std::map<std::string, std::string> kQuantiles = {
      {"p50", "0.5"}, {"p90", "0.9"}, {"p99", "0.99"}};
  for (const auto& [keys, value] : leaves) {
    const std::string& section = keys.front();
    if (keys.size() == 2 && section == "counters") {
      metrics->counters[keys[1]] = value;
    } else if (keys.size() == 2 && section == "gauges") {
      metrics->gauges[keys[1]] = value;
    } else if (keys.size() == 3 && section == "histograms") {
      Summary& summary = metrics->summaries[keys[1]];
      if (keys[2] == "sum") summary.sum = value;
      if (keys[2] == "count") summary.count = value;
      const auto q = kQuantiles.find(keys[2]);
      if (q != kQuantiles.end()) summary.quantiles[q->second] = value;
    } else if (keys.size() == 3 && section == "phases") {
      if (keys[2] == "ns") metrics->phase_seconds[keys[1]] = value * 1e-9;
      if (keys[2] == "calls") metrics->phase_calls[keys[1]] = value;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.add_flag("help", "show this help");
  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n";
    return 1;
  }
  if (args.has_flag("help") || args.positional().empty()) {
    std::cout << args.help(
        "telemetry_dump — render a JSON or Prometheus metrics dump as "
        "tables");
    return args.has_flag("help") ? 0 : 1;
  }

  const std::string path = args.positional()[0];
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open '" << path << "'\n";
    return 1;
  }

  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  Metrics metrics;
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '{') {
    if (!read_json(text, path, &metrics)) return 1;
  } else {
    std::istringstream lines(text);
    if (!read_prometheus(lines, path, &metrics)) return 1;
  }
  const auto& [counters, gauges, summaries, phase_seconds, phase_calls] =
      metrics;

  if (!counters.empty()) {
    Table table({"counter", "value"});
    for (const auto& [name, value] : counters) {
      table.add_row({name, format_value(value)});
    }
    std::cout << table.to_string() << "\n";
  }
  if (!gauges.empty()) {
    Table table({"gauge", "value"});
    for (const auto& [name, value] : gauges) {
      table.add_row({name, format_value(value)});
    }
    std::cout << table.to_string() << "\n";
  }
  if (!summaries.empty()) {
    Table table({"latency", "count", "mean", "p50", "p90", "p99"});
    for (const auto& [name, summary] : summaries) {
      const double mean =
          summary.count > 0.0 ? summary.sum / summary.count : 0.0;
      const auto quantile = [&](const char* q) {
        const auto it = summary.quantiles.find(q);
        return it == summary.quantiles.end() ? std::string("-")
                                             : format_value(it->second);
      };
      table.add_row({name, format_value(summary.count), format_value(mean),
                     quantile("0.5"), quantile("0.9"), quantile("0.99")});
    }
    std::cout << table.to_string() << "\n";
  }
  if (!phase_seconds.empty() || !phase_calls.empty()) {
    Table table({"phase", "calls", "seconds"});
    for (const auto& [name, seconds] : phase_seconds) {
      const auto calls = phase_calls.find(name);
      table.add_row({name,
                     calls == phase_calls.end()
                         ? std::string("-")
                         : format_value(calls->second),
                     format_seconds(seconds)});
    }
    std::cout << table.to_string() << "\n";
  }
  if (counters.empty() && gauges.empty() && summaries.empty() &&
      phase_seconds.empty()) {
    std::cerr << "error: no metrics found in '" << path << "'\n";
    return 1;
  }
  return 0;
}
