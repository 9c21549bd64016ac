#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Plumbing shared by the workloads: run options, the result being built,
// wall-clock helpers and the benchmark-side span recorder.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/span.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the result file and the Chrome trace.
  std::string out_dir = ".bench_out";
};

/// Seconds on the steady clock since the process started measuring.
double NowS();

/// Seconds `fn` takes.
template <typename Fn>
double TimeS(Fn&& fn) {
  const double start = NowS();
  fn();
  return NowS() - start;
}

/// Peak resident set of this process in MB.
double PeakRssMb();

/// Host-speed calibration. On a shared host the same code runs up to 1.4x
/// slower for stretches of 5-10 s (other tenants on the same cores; the
/// thread's CPU time slows with its wall time, so it is not descheduling),
/// which moves a timing between runs far more than a change under test.
/// HostSpeed times a fixed kernel of the benchmark's own between the
/// workload's operations: heap push/pop, hash-map updates, node
/// allocations, a sort and a streaming sum over seeded data, about 4.5 ms
/// on a 4-vCPU Xeon VM. The library never runs the kernel, so no change to it
/// moves the scale.
class HostSpeed {
 public:
  /// Kernel seconds on the reference host (the typical time on a 4-vCPU
  /// Xeon VM), so scaled timings read in that host's seconds.
  static constexpr double kReferenceS = 0.005;

  /// Times the kernel three times, records the median and returns it.
  double Sample();

  /// kReferenceS over the median sample; 1 before any sample. A wall time
  /// times Factor() is the time on the reference host.
  double Factor() const;

  size_t samples() const { return kernel_s_.size(); }

 private:
  std::vector<double> kernel_s_;
};

/// One workload's result. Metrics keep insertion order; `Set` overwrites.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);

  /// One operation attempted; `ok` false counts it as failed.
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A correctness check the benchmark cannot attribute to one operation.
  void Check(bool ok, const std::string& what);

  void Meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  /// One JSON object: correct, attempted, failed, every metric with its
  /// unit, meta and errors.
  std::string FullJson() const;
  /// Human-readable table of every metric.
  std::string Table() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Records the calibration in the result: host.speed_factor (Factor()) and
/// host.samples.
void SetHostSpeed(const HostSpeed& host, Report* report);

/// Spans the benchmark records around its calls into the library. A null
/// tracer makes every call a no-op, so untraced runs pay one branch.
class Spans {
 public:
  explicit Spans(ads::telemetry::Tracer* tracer) : tracer_(tracer) {}

  bool on() const { return tracer_ != nullptr; }
  ads::telemetry::SpanId Start(const std::string& kind,
                               const std::string& name,
                               ads::telemetry::SpanId parent =
                                   ads::telemetry::kNoSpan);
  void End(ads::telemetry::SpanId id);
  void Annotate(ads::telemetry::SpanId id, const std::string& key,
                const std::string& value);
  /// A zero-length span marking an event.
  void Instant(const std::string& kind, const std::string& name,
               ads::telemetry::SpanId parent);

 private:
  ads::telemetry::Tracer* tracer_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& kind, const std::string& name,
             ads::telemetry::SpanId parent = ads::telemetry::kNoSpan)
      : spans_(spans), id_(spans.Start(kind, name, parent)) {}
  ~ScopedSpan() { spans_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ads::telemetry::SpanId id() const { return id_; }

 private:
  Spans& spans_;
  ads::telemetry::SpanId id_;
};

// Workloads. Each fills `report` with its end-to-end metrics, or with its
// per-layer metrics when options.trace is set.
void RunTpchMix(const RunOptions& options, Spans& spans, Report* report);
void RunFleetLive(const RunOptions& options, bool hedged, Spans& spans,
                  Report* report);
void RunScenarioPack(const RunOptions& options, Spans& spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
