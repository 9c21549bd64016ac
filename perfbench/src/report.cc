#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// All digits, as measured; JSON has no inf/nan, so they become null.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One timing of the calibration kernel.
double TimeKernel() {
  static volatile double sink = 0.0;
  // Buffers live across samples, so page faults stay out of the timing.
  static std::vector<double> values(20000);
  static std::vector<double> stream(1 << 19, 1.0);  // 4 MB
  return TimeS([] {
    std::mt19937_64 rng(42);
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        events;
    std::unordered_map<uint64_t, double> counts;
    std::map<uint64_t, double> ordered;
    double acc = 0.0;
    for (int i = 0; i < 20000; ++i) {
      const uint64_t x = rng();
      events.push(static_cast<double>(x >> 11));
      counts[x % 4096] += 1.0;
      if (i % 8 == 0) ordered[x] = static_cast<double>(i);
      if (events.size() > 512) {
        acc += events.top();
        events.pop();
      }
    }
    for (double& v : values) v = static_cast<double>(rng() >> 11);
    std::sort(values.begin(), values.end());
    for (int pass = 0; pass < 2; ++pass) {
      for (double v : stream) acc += v;
    }
    sink = acc + values[values.size() / 2] +
           static_cast<double>(counts.size() + ordered.size());
  });
}

}  // namespace

double HostSpeed::Sample() {
  // One timing varies by about 11% from the next; the median of three also
  // drops the first, cold-cache timing after the workload's own work.
  double t[3] = {TimeKernel(), TimeKernel(), TimeKernel()};
  std::sort(t, t + 3);
  kernel_s_.push_back(t[1]);
  return t[1];
}

double HostSpeed::Factor() const {
  if (kernel_s_.empty()) return 1.0;
  std::vector<double> sorted = kernel_s_;
  std::sort(sorted.begin(), sorted.end());
  return kReferenceS / sorted[(sorted.size() - 1) / 2];
}

void SetHostSpeed(const HostSpeed& host, Report* report) {
  report->Set("host.speed_factor", host.Factor(), "ratio");
  report->Set("host.samples", static_cast<double>(host.samples()), "count");
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [key, entry] : metrics_) {
    if (key == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

std::string Report::FullJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [key, entry] = metrics_[i];
    out << (i ? ", " : "") << Quote(key) << ": {\"value\": "
        << Number(entry.first) << ", \"unit\": " << Quote(entry.second)
        << "}";
  }
  out << "}, \"meta\": {";
  for (size_t i = 0; i < meta_.size(); ++i) {
    out << (i ? ", " : "") << Quote(meta_[i].first) << ": "
        << Quote(meta_[i].second);
  }
  out << "}, \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out << (i ? ", " : "") << Quote(errors_[i]);
  }
  out << "]}";
  return out.str();
}

std::string Report::Table() const {
  std::ostringstream out;
  char line[160];
  for (const auto& [key, entry] : metrics_) {
    std::snprintf(line, sizeof(line), "  %-40s %16.6g %s\n", key.c_str(),
                  entry.first, entry.second.c_str());
    out << line;
  }
  return out.str();
}

ads::telemetry::SpanId Spans::Start(const std::string& kind,
                                    const std::string& name,
                                    ads::telemetry::SpanId parent) {
  if (tracer_ == nullptr) return ads::telemetry::kNoSpan;
  return tracer_->StartSpan(kind, name, parent, NowS());
}

void Spans::End(ads::telemetry::SpanId id) {
  if (tracer_ != nullptr && id != ads::telemetry::kNoSpan) {
    tracer_->EndSpan(id, NowS());
  }
}

void Spans::Annotate(ads::telemetry::SpanId id, const std::string& key,
                     const std::string& value) {
  if (tracer_ != nullptr) tracer_->Annotate(id, key, value);
}

void Spans::Instant(const std::string& kind, const std::string& name,
                    ads::telemetry::SpanId parent) {
  if (tracer_ == nullptr) return;
  const double now = NowS();
  tracer_->EndSpan(tracer_->StartSpan(kind, name, parent, now), now);
}

}  // namespace perfbench
