// tpch_mix: one closed-loop client cycling the six TPC-H-shaped templates.
// Each query is MakeQuery -> Optimizer::Optimize -> RealExecutor::Execute
// on data from TpchGenerator at generator knob 1.

#include <algorithm>
#include <array>
#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "engine/reference_exec.h"
#include "engine/rules.h"
#include "engine/table.h"
#include "report.h"
#include "stats.h"
#include "workload/tpch_gen.h"

namespace perfbench {

namespace {

using ads::engine::OpType;

/// TPC-H lineitem rows at scale factor 1.
constexpr double kTpchSf1LineitemRows = 6'000'000.0;
/// The generator's scale knob: lineitem is about knob * 60,000 rows.
constexpr double kGeneratorKnob = 1.0;

constexpr std::array<OpType, 6> kOps = {OpType::kScan,      OpType::kFilter,
                                        OpType::kProject,   OpType::kJoin,
                                        OpType::kAggregate, OpType::kSort};

struct Template {
  std::string name;
  uint64_t checksum = 0;
  size_t rows = 0;
  std::vector<double> exec_s;
};

/// Per-layer counters accumulated over the timed queries.
struct EngineTally {
  uint64_t queries = 0;
  double optimize_s = 0.0;
  std::map<OpType, double> op_s;
  std::map<OpType, uint64_t> op_rows;
  uint64_t rows_in = 0;
};

struct LoopResult {
  uint64_t queries = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_ms;  // in completion order
  /// Host-speed samples (see HostSpeed), each with the number of queries
  /// run before it.
  std::vector<std::pair<size_t, double>> kernel_s;
};

/// Throughput, p50 and p99 are medians over this many consecutive slices of
/// the run (see WindowedMedian).
constexpr size_t kWindows = 5;

/// The loop samples the host's speed after the query that ends each such
/// stretch of queries.
constexpr double kSampleEveryS = 0.25;

/// Runs the mix for `seconds` of queries; every answer must reproduce its
/// checksum.
LoopResult RunLoop(const ads::workload::TpchGenerator& gen,
                   std::vector<Template>& templates, double seconds,
                   Spans& spans, EngineTally* tally, HostSpeed* host,
                   Report* report) {
  ads::engine::Optimizer optimizer(&gen.catalog());
  ads::engine::RealExecutor executor(&gen.store());
  LoopResult loop;
  const double start = NowS();
  double sampling_s = 0.0;
  double next_sample = start + kSampleEveryS;
  for (size_t i = 0; NowS() - start - sampling_s < seconds; ++i) {
    Template& t = templates[i % templates.size()];
    const double q0 = NowS();
    ScopedSpan query(spans, "query", t.name);
    std::unique_ptr<ads::engine::PlanNode> logical;
    {
      ScopedSpan s(spans, "workload", "MakeQuery", query.id());
      auto made = gen.MakeQuery(t.name);
      if (made.ok()) logical = std::move(made).value();
    }
    std::unique_ptr<ads::engine::PlanNode> plan;
    const double o0 = NowS();
    if (logical != nullptr) {
      ScopedSpan s(spans, "engine", "Optimize", query.id());
      plan = optimizer.Optimize(*logical,
                                ads::engine::RuleConfig::Default());
    }
    const double e0 = NowS();
    bool ok = false;
    if (plan != nullptr) {
      ScopedSpan s(spans, "engine", "Execute", query.id());
      auto result = executor.Execute(*plan);
      ok = result.ok() && result->table.Checksum() == t.checksum &&
           result->table.num_rows() == t.rows;
      if (result.ok() && tally != nullptr) {
        uint64_t rows_in = 0;
        std::string rows_attr;
        for (const ads::engine::OperatorStats& op : result->operators) {
          const uint64_t rows = op.op == OpType::kScan ? op.rows_out
                                                       : op.rows_in;
          tally->op_s[op.op] += op.seconds;
          tally->op_rows[op.op] += rows;
          rows_in += op.rows_in;
          rows_attr += std::string(rows_attr.empty() ? "" : " ") +
                       ads::engine::OpTypeName(op.op) + ":" +
                       std::to_string(rows);
        }
        tally->rows_in += rows_in;
        // One attribute per span keeps the tracer's footprint small.
        spans.Annotate(s.id(), "rows", rows_attr);
      }
    }
    const double q1 = NowS();
    report->Count(ok);
    loop.latency_ms.push_back((q1 - q0) * 1e3);
    t.exec_s.push_back(q1 - e0);
    if (tally != nullptr) {
      ++tally->queries;
      tally->optimize_s += e0 - o0;
    }
    ++loop.queries;
    if (q1 >= next_sample) {
      sampling_s += TimeS([&] {
        loop.kernel_s.emplace_back(loop.queries, host->Sample());
      });
      next_sample = NowS() + kSampleEveryS;
    }
  }
  loop.elapsed_s = NowS() - start - sampling_s;
  return loop;
}

/// The loop's latencies in reference-host time (see HostSpeed): each of the
/// kWindows slices WindowedMedian cuts is scaled by the median kernel
/// sample taken during it, or by `fallback` when it holds none.
std::vector<double> ReferenceLatencies(const LoopResult& loop,
                                       double fallback) {
  const std::vector<double>& lat = loop.latency_ms;
  std::vector<double> scaled(lat.size());
  for (size_t w = 0; w < kWindows; ++w) {
    const size_t begin = lat.size() * w / kWindows;
    const size_t end = lat.size() * (w + 1) / kWindows;
    std::vector<double> kernel_s;
    for (const auto& [queries, s] : loop.kernel_s) {
      if (queries > begin && queries <= end) kernel_s.push_back(s);
    }
    const double f = kernel_s.empty()
                         ? fallback
                         : HostSpeed::kReferenceS / Median(kernel_s);
    for (size_t i = begin; i < end; ++i) scaled[i] = lat[i] * f;
  }
  return scaled;
}

/// Throughput, p50 and tail of a latency series, each a median over
/// kWindows slices. A slice's throughput is its query count over its
/// summed latency: the client is closed-loop, so queries run back to back.
struct MixFigures {
  double qps = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
};

MixFigures Figures(const std::vector<double>& lat, double tail_level) {
  MixFigures m;
  m.qps = WindowedMedian(lat, kWindows, [](const auto& w) {
    double ms = 0.0;
    for (double v : w) ms += v;
    return static_cast<double>(w.size()) / ms * 1e3;
  });
  m.p50_ms = WindowedMedian(lat, kWindows, [](auto w) {
    return Quantile(std::move(w), 0.5);
  });
  m.tail_ms = WindowedMedian(lat, kWindows, [&](auto w) {
    return Quantile(std::move(w), tail_level);
  });
  return m;
}

/// Best-of-5 copy bandwidth over a lineitem-sized buffer.
double MemcpyGbps(size_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  double best = 1e30;
  for (int i = 0; i < 5; ++i) {
    best = std::min(best, TimeS([&] {
      std::memcpy(dst.data(), src.data(), bytes);
    }));
    src[i] = dst[bytes - 1 - i];  // keep the copies observable
  }
  return static_cast<double>(bytes) / best / 1e9;
}

}  // namespace

void RunTpchMix(const RunOptions& options, Spans& spans, Report* report) {
  ads::workload::TpchGenOptions gen_options;
  gen_options.scale_factor = kGeneratorKnob;
  gen_options.seed = options.seed;

  // Set-up: generation, repeated so setup_s is a median.
  std::vector<double> setup_s;
  std::unique_ptr<ads::workload::TpchGenerator> gen;
  HostSpeed host;
  const int setups = options.trace ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    gen.reset();
    ScopedSpan s(spans, "setup", "TpchGenerator");
    setup_s.push_back(TimeS([&] {
      gen = std::make_unique<ads::workload::TpchGenerator>(gen_options);
    }));
    host.Sample();
  }
  const ads::engine::ColumnTable* lineitem =
      gen->store().FindTable("lineitem");
  const double lineitem_rows = static_cast<double>(lineitem->num_rows());
  const double lineitem_bytes =
      static_cast<double>(lineitem->num_rows() * lineitem->num_columns() * 8);
  report->Meta("tpch_generator_knob", std::to_string(kGeneratorKnob));
  report->Meta("tpch_scale_factor",
               std::to_string(lineitem_rows / kTpchSf1LineitemRows));

  // Correctness gate: each template's answer must equal the reference
  // executor's; the timed loop then must reproduce its checksum.
  std::vector<Template> templates;
  {
    ads::engine::Optimizer optimizer(&gen->catalog());
    ads::engine::RealExecutor executor(&gen->store());
    ads::engine::ReferenceExecutor reference(&gen->store());
    for (const std::string& name : gen->QueryNames()) {
      auto logical = gen->MakeQuery(name);
      report->Check(logical.ok(), name + ": MakeQuery failed");
      if (!logical.ok()) continue;
      auto plan = optimizer.Optimize(*logical.value(),
                                     ads::engine::RuleConfig::Default());
      report->Check(plan != nullptr, name + ": Optimize returned no plan");
      if (plan == nullptr) continue;
      auto vec = executor.Execute(*plan);
      auto ref = reference.Execute(*plan);
      const bool same = vec.ok() && ref.ok() &&
                        vec->table.BitwiseEquals(ref.value());
      report->Check(same, name + ": vectorized answer differs from reference");
      if (!same) continue;
      Template t;
      t.name = name;
      t.checksum = vec->table.Checksum();
      t.rows = vec->table.num_rows();
      templates.push_back(t);
    }
  }
  if (templates.empty()) return;

  if (!options.trace) {
    const LoopResult loop = RunLoop(*gen, templates, options.seconds, spans,
                                    nullptr, &host, report);
    const std::vector<double>& lat = loop.latency_ms;
    const size_t per_window = lat.size() / kWindows;
    const double level = TailLevel(per_window);
    // Times in reference-host seconds (see HostSpeed), wall figures beside.
    const MixFigures wall = Figures(lat, level);
    const MixFigures ref =
        Figures(ReferenceLatencies(loop, host.Factor()), level);
    report->Set("setup_s", Median(setup_s) * host.Factor(), "s");
    report->Set("throughput_per_s", ref.qps, "1/s");
    report->Set("latency_p50_ms", ref.p50_ms, "ms");
    report->Set("latency_tail_ms", ref.tail_ms, "ms");
    report->Set("latency_tail_level", level, "quantile");
    report->Set("latency_samples", static_cast<double>(per_window), "count");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    // Whole-run figures under the names the workload's users know them by.
    report->Set("queries_per_s",
                static_cast<double>(loop.queries) / loop.elapsed_s, "1/s");
    report->Set("query_p50_ms", Quantile(lat, 0.5), "ms");
    report->Set("query_p99_ms", Quantile(lat, 0.99), "ms");
    SetHostSpeed(host, report);
    report->Set("wall.setup_s", Median(setup_s), "s");
    report->Set("wall.throughput_per_s", wall.qps, "1/s");
    report->Set("wall.latency_p50_ms", wall.p50_ms, "ms");
    report->Set("wall.latency_tail_ms", wall.tail_ms, "ms");
    return;
  }

  // Traced run: half the window untraced, half traced, for the overhead.
  Spans off(nullptr);
  LoopResult plain = RunLoop(*gen, templates, options.seconds / 2, off,
                             nullptr, &host, report);
  for (Template& t : templates) t.exec_s.clear();
  ads::common::ThreadPool& pool = ads::common::ThreadPool::Global();
  const uint64_t tasks0 = pool.Stats().executed;
  EngineTally tally;
  LoopResult traced = RunLoop(*gen, templates, options.seconds / 2, spans,
                              &tally, &host, report);
  const uint64_t tasks = pool.Stats().executed - tasks0;
  const double plain_qps = plain.queries / plain.elapsed_s;
  const double traced_qps = traced.queries / traced.elapsed_s;

  report->Set("workload.tpch_gen_s", setup_s[0], "s");
  report->Set("workload.lineitem_rows", lineitem_rows, "count");
  report->Set("workload.lineitem_mb", lineitem_bytes / 1e6, "MB");
  const double q = static_cast<double>(tally.queries);
  report->Set("engine.optimize_us", tally.optimize_s / q * 1e6, "us");
  for (Template& t : templates) {
    report->Set("engine." + t.name + ".p50_ms", Median(t.exec_s) * 1e3, "ms");
  }
  for (OpType op : kOps) {
    std::string kind = ads::engine::OpTypeName(op);
    for (char& c : kind) c = static_cast<char>(std::tolower(c));
    const double rows = static_cast<double>(tally.op_rows[op]);
    report->Set("engine.op." + kind + ".ms_per_query",
                tally.op_s[op] / q * 1e3, "ms");
    report->Set("engine.op." + kind + ".ns_per_row",
                rows > 0 ? tally.op_s[op] / rows * 1e9 : 0.0, "ns");
  }
  report->Set("engine.rows_in_per_query", tally.rows_in / q, "count");
  report->Set("engine.pool_tasks_per_query", tasks / q, "count");
  {
    ScopedSpan s(spans, "hw", "memcpy");
    report->Set("hw.memcpy_gbps",
                MemcpyGbps(static_cast<size_t>(lineitem_bytes)), "GB/s");
  }
  report->Set("telemetry.trace_overhead_frac", plain_qps / traced_qps - 1.0,
              "ratio");
}

}  // namespace perfbench
