#ifndef ADS_TELEMETRY_SPAN_H_
#define ADS_TELEMETRY_SPAN_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ads::telemetry {

/// Identifier of one span within a Tracer. 0 means "no span": every
/// tracing call site accepts it so untraced runs skip span bookkeeping
/// entirely.
using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One causal span: a named interval of (simulated or wall-clock) time
/// with a parent edge. The parent/child edges form the causal record —
/// which scheduler decision, stage execution, retry or fallback produced
/// an observed outcome. Attributes carry *identity* only (stage ids,
/// machine names, outcomes); measurements stay in the timestamps, which
/// keeps the structural serialization (goldens) free of numeric noise.
struct Span {
  SpanId id = kNoSpan;
  /// kNoSpan = root (a job, a container task, a request, a batch).
  SpanId parent = kNoSpan;
  /// Taxonomy bucket, e.g. "job" | "stage" | "attempt" | "recompute" |
  /// "retry" | "backup" | "outage" | "task" | "placement" | "request" |
  /// "admission" | "batch" | "backend" | "serve" | "fallback".
  std::string kind;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  bool ended = false;
  std::map<std::string, std::string> attributes;
};

/// Deterministic, thread-safe span collector.
///
/// Span ids come from a seeded monotonic counter: the first span gets
/// `seed * 2^20 + 1` and ids increase by one per StartSpan. Components
/// driven by a deterministic event loop (the engine job simulators, the
/// cluster scheduler, VirtualFleet) therefore produce byte-identical
/// span tables for a fixed seed, across runs and across ADS_THREADS —
/// none of them draw from the shared thread pool. Under the threaded
/// ServingRuntime the tracer is merely thread-safe: ids stay unique and
/// causality stays correct, but allocation order (and wall-clock
/// timestamps) vary run to run.
///
/// Timestamps are always supplied by the caller — there is no hidden
/// clock — which is what lets virtual-time components trace in simulated
/// seconds.
class Tracer {
 public:
  explicit Tracer(uint64_t seed = 0);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span. `parent` may be kNoSpan for a root span.
  SpanId StartSpan(const std::string& kind, const std::string& name,
                   SpanId parent, double start);

  /// Sets one attribute (last write wins). Valid on ended spans too, so
  /// outcomes learned late (e.g. which fallback tier served) can still be
  /// recorded. No-op when `id` is kNoSpan.
  void Annotate(SpanId id, const std::string& key, const std::string& value);

  /// Closes a span. Each span ends exactly once. No-op when `id` is
  /// kNoSpan.
  void EndSpan(SpanId id, double end);

  /// Copy of every span recorded so far, in id (creation) order.
  std::vector<Span> Snapshot() const;

  size_t size() const;
  /// Spans started but not yet ended.
  size_t open_count() const;

 private:
  Span* Find(SpanId id);  // requires mu_ held; checks the id is known

  mutable std::mutex mu_;
  const SpanId base_;
  std::vector<Span> spans_;
};

}  // namespace ads::telemetry

#endif  // ADS_TELEMETRY_SPAN_H_
