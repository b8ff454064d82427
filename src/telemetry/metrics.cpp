#include "telemetry/metrics.h"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "telemetry/trace.h"

namespace berkmin::telemetry {

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> guard(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->snapshot();
  }
  return snap;
}

namespace {

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  write_json_escaped(out, s);
  out << '"';
}

std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots and any other
// odd characters become underscores.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ",";
    first = false;
    append_json_string(out, name);
    out << ":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out << ",";
    first = false;
    append_json_string(out, name);
    out << ":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out << ",";
    first = false;
    append_json_string(out, name);
    out << ":{\"count\":" << hist.count << ",\"sum\":" << hist.sum
        << ",\"min\":" << hist.min << ",\"max\":" << hist.max
        << ",\"mean\":" << json_double(hist.mean())
        << ",\"p50\":" << hist.quantile(0.5)
        << ",\"p90\":" << hist.quantile(0.9)
        << ",\"p99\":" << hist.quantile(0.99) << "}";
  }
  out << "},\"phases\":{";
  first = true;
  for (const auto& [name, totals] : phases) {
    if (!first) out << ",";
    first = false;
    append_json_string(out, name);
    out << ":{\"calls\":" << totals.calls << ",\"ns\":" << totals.ns << "}";
  }
  out << "}}";
  return out.str();
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    const std::string p = "berkmin_" + prom_name(name);
    out << "# TYPE " << p << "_total counter\n";
    out << p << "_total " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string p = "berkmin_" + prom_name(name);
    out << "# TYPE " << p << " gauge\n";
    out << p << " " << value << "\n";
  }
  for (const auto& [name, hist] : histograms) {
    const std::string p = "berkmin_" + prom_name(name);
    out << "# TYPE " << p << " summary\n";
    out << p << "{quantile=\"0.5\"} " << hist.quantile(0.5) << "\n";
    out << p << "{quantile=\"0.9\"} " << hist.quantile(0.9) << "\n";
    out << p << "{quantile=\"0.99\"} " << hist.quantile(0.99) << "\n";
    out << p << "_sum " << hist.sum << "\n";
    out << p << "_count " << hist.count << "\n";
  }
  if (!phases.empty()) {
    out << "# TYPE berkmin_phase_seconds_total counter\n";
    for (const auto& [name, totals] : phases) {
      out << "berkmin_phase_seconds_total{phase=\"" << prom_name(name) << "\"} "
          << json_double(static_cast<double>(totals.ns) / 1e9) << "\n";
    }
    out << "# TYPE berkmin_phase_calls_total counter\n";
    for (const auto& [name, totals] : phases) {
      out << "berkmin_phase_calls_total{phase=\"" << prom_name(name) << "\"} "
          << totals.calls << "\n";
    }
  }
  return out.str();
}

}  // namespace berkmin::telemetry
