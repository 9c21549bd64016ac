// P7 — real query execution: the vectorized columnar executor vs the
// row-at-a-time reference executor on the TPC-H-shaped templates, at a
// generator knob where the working set exceeds L2 (the regime the columnar
// layout is for), plus estimated-vs-actual cardinality grounding from the
// measured OperatorStats. Knob 1 is TPC-H SF ~0.01; the JSON records both.
//
// Before timing anything the bench ADS_CHECKs that the vectorized answer
// is bit-identical to the reference answer on every template — a wrong-
// but-fast executor fails loudly here.
//
// Output:
//   - a deterministic answer table on stdout (query, rows, checksum):
//     byte-identical across runs and across ADS_THREADS, which CI diffs
//     at ADS_THREADS=1 vs 4;
//   - timing and cardinality tables (suppressed under --smoke so the
//     deterministic stdout stays diffable);
//   - machine-readable metrics as JSON (--out=PATH, default
//     BENCH_p7.json), beside the generator knob, the true TPC-H SF, the
//     pool's worker count and nproc. A full run adds each template's self
//     time per operator kind in ns per row read, from the OperatorStats
//     of the timed runs, next to a measured memcpy bandwidth over
//     lineitem's bytes.
//
// `--smoke` shrinks the generator knob and repetitions for CI.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "engine/reference_exec.h"
#include "engine/rules.h"
#include "engine/table.h"
#include "workload/tpch_gen.h"

using namespace ads;  // NOLINT: bench brevity

namespace {

bool g_smoke = false;

/// Ordered so the JSON diffs cleanly run to run.
std::vector<std::pair<std::string, double>> g_metrics;

void Metric(const std::string& name, double value) {
  g_metrics.emplace_back(name, value);
}

double Seconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-reps wall time for `fn`, after one untimed warmup call.
double BestSeconds(int reps, const std::function<void()>& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) best = std::min(best, Seconds(fn));
  return best;
}

/// Best-of-5 copy bandwidth over a buffer of `bytes`, in GB/s.
double MemcpyGbps(size_t bytes) {
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 5; ++i) {
    best = std::min(best, Seconds([&] {
      std::memcpy(dst.data(), src.data(), bytes);
    }));
    src[i] = dst[bytes - 1 - i];  // keep the copies observable
  }
  return static_cast<double>(bytes) / best / 1e9;
}

/// Lower-case operator kind, as in the JSON metric names.
std::string OpKind(engine::OpType op) {
  std::string kind = engine::OpTypeName(op);
  for (char& c : kind) c = static_cast<char>(std::tolower(c));
  return kind;
}

double StoreBytes(const engine::TableStore& store, const std::string& name) {
  const engine::ColumnTable* t = store.FindTable(name);
  return static_cast<double>(t->num_rows() * t->num_columns() * 8);
}

/// TpchGenOptions::scale_factor is the generator's knob, not TPC-H's scale
/// factor: knob 1 makes ~60k lineitem rows, and TPC-H SF 1 has 6M. Both
/// are recorded, the true SF measured from the generated lineitem.
double g_generator_knob = 0.0;
double g_tpch_sf = 0.0;
constexpr double kTpchSf1LineitemRows = 6'000'000.0;

void WriteJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ADS_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n  \"bench\": \"bench_p7_execution\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
  std::fprintf(f, "  \"generator_knob\": %.17g,\n", g_generator_knob);
  std::fprintf(f, "  \"tpch_sf\": %.17g,\n", g_tpch_sf);
  // The pool that produced the timings: 0 workers runs inline (serial).
  std::fprintf(f, "  \"pool_workers\": %zu,\n",
               common::ThreadPool::Global().worker_count());
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"metrics\": {\n");
  for (size_t i = 0; i < g_metrics.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.17g%s\n", g_metrics[i].first.c_str(),
                 g_metrics[i].second, i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %zu metrics to %s\n", g_metrics.size(), path.c_str());
}

void Run() {
  workload::TpchGenOptions opts;
  // Full scale: lineitem ~60k rows x 8 columns x 8B ~ 3.8 MB — past L2 on
  // the CI machines, so the scan-dominated operators run out of L3/DRAM.
  opts.scale_factor = g_smoke ? 0.05 : 1.0;
  opts.seed = 42;
  workload::TpchGenerator gen(opts);
  g_generator_knob = opts.scale_factor;
  g_tpch_sf =
      static_cast<double>(gen.store().FindTable("lineitem")->num_rows()) /
      kTpchSf1LineitemRows;

  const double lineitem_bytes = StoreBytes(gen.store(), "lineitem");
  Metric("lineitem_bytes", lineitem_bytes);
  Metric("orders_bytes", StoreBytes(gen.store(), "orders"));
  Metric("customer_bytes", StoreBytes(gen.store(), "customer"));

  engine::Optimizer optimizer(&gen.catalog());
  engine::RealExecutor vectorized(&gen.store());
  engine::ReferenceExecutor reference(&gen.store());

  const int reps = g_smoke ? 1 : 5;

  std::printf("answers (deterministic: diffed across ADS_THREADS by CI)\n");
  std::printf("%-22s %10s %20s\n", "query", "rows", "checksum");

  struct Timing {
    std::string name;
    double ref_s = 0.0;
    double vec_s = 0.0;
    double est_card = 0.0;
    double actual = 0.0;
    double max_q_error = 0.0;
  };
  std::vector<Timing> timings;

  for (const std::string& name : gen.QueryNames()) {
    auto logical = gen.MakeQuery(name);
    ADS_CHECK(logical.ok()) << logical.status();
    auto plan = optimizer.Optimize(*logical.value(),
                                   engine::RuleConfig::Default());
    ADS_CHECK(plan != nullptr);

    // Correctness gate before any timing.
    auto vec = vectorized.Execute(*plan);
    ADS_CHECK(vec.ok()) << name << ": " << vec.status();
    auto ref = reference.Execute(*plan);
    ADS_CHECK(ref.ok()) << name << ": " << ref.status();
    ADS_CHECK(vec->table.BitwiseEquals(ref.value()))
        << name << ": vectorized answer diverged from reference";

    std::printf("%-22s %10zu %20llu\n", name.c_str(),
                vec->table.num_rows(),
                static_cast<unsigned long long>(vec->table.Checksum()));

    Timing t;
    t.name = name;
    t.ref_s = BestSeconds(reps, [&] {
      auto r = reference.Execute(*plan);
      ADS_CHECK(r.ok());
    });
    // Best of reps after one warmup, and each operator's least self time
    // over the same runs.
    std::vector<double> op_s(vec->operators.size(),
                             std::numeric_limits<double>::infinity());
    t.vec_s = BestSeconds(reps, [&] {
      auto r = vectorized.Execute(*plan);
      ADS_CHECK(r.ok());
      for (size_t i = 0; i < op_s.size(); ++i) {
        op_s[i] = std::min(op_s[i], r->operators[i].seconds);
      }
    });
    // Estimated-vs-actual from the measured operator stats: the root's
    // estimate vs its real output, and the worst per-operator q-error.
    const engine::OperatorStats& root = vec->operators.back();
    t.est_card = root.est_card;
    t.actual = static_cast<double>(root.rows_out);
    for (const engine::OperatorStats& op : vec->operators) {
      const double est = std::max(1.0, op.est_card);
      const double act = std::max(1.0, static_cast<double>(op.rows_out));
      t.max_q_error = std::max(t.max_q_error, std::max(est / act, act / est));
    }

    Metric(name + ".rows_out", t.actual);
    Metric(name + ".reference_seconds", t.ref_s);
    Metric(name + ".vectorized_seconds", t.vec_s);
    Metric(name + ".speedup", t.ref_s / t.vec_s);
    Metric(name + ".root_est_card", t.est_card);
    Metric(name + ".max_q_error", t.max_q_error);
    if (!g_smoke) {
      // Per operator kind: the least self times summed over the template's
      // operators of that kind, per row they read (a scan's output, else
      // its input). Full runs only, so the smoke output stays unchanged.
      std::map<std::string, std::pair<double, double>> kind_s_rows;
      for (size_t i = 0; i < op_s.size(); ++i) {
        const engine::OperatorStats& op = vec->operators[i];
        auto& [seconds, rows] = kind_s_rows[OpKind(op.op)];
        seconds += op_s[i];
        rows += static_cast<double>(
            op.op == engine::OpType::kScan ? op.rows_out : op.rows_in);
      }
      for (const auto& [kind, s_rows] : kind_s_rows) {
        Metric(name + ".op." + kind + ".ns_per_row",
               s_rows.second > 0 ? s_rows.first / s_rows.second * 1e9 : 0.0);
      }
    }
    timings.push_back(t);
  }

  if (!g_smoke) {
    std::printf(
        "\ntimings (best of %d, %zu pool workers, lineitem %.1f MB, "
        "generator knob %g = TPC-H SF %.4f)\n",
        reps, common::ThreadPool::Global().worker_count(),
        lineitem_bytes / 1048576.0, g_generator_knob, g_tpch_sf);
    std::printf("%-22s %12s %12s %9s %12s %12s %9s\n", "query", "ref_ms",
                "vec_ms", "speedup", "est_rows", "actual", "max_qerr");
    for (const Timing& t : timings) {
      std::printf("%-22s %12.3f %12.3f %8.1fx %12.0f %12.0f %9.1f\n",
                  t.name.c_str(), t.ref_s * 1e3, t.vec_s * 1e3,
                  t.ref_s / t.vec_s, t.est_card, t.actual, t.max_q_error);
    }
    Metric("memcpy_gbps", MemcpyGbps(static_cast<size_t>(lineitem_bytes)));
    // The headline claim: columnar + vectorized beats tuple-at-a-time on
    // the join+aggregate templates once the data outruns L2.
    double join_agg_speedup = std::numeric_limits<double>::infinity();
    for (const Timing& t : timings) {
      if (t.name == "q3_shipping_priority" ||
          t.name == "q5_volume_by_nation" ||
          t.name == "q10_returned_items") {
        join_agg_speedup = std::min(join_agg_speedup, t.ref_s / t.vec_s);
      }
    }
    Metric("join_agg_min_speedup", join_agg_speedup);
    std::printf("\njoin+aggregate min speedup: %.1fx (target >= 2x)\n",
                join_agg_speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_p7.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }
  std::printf("P7 | real execution bench%s\n\n", g_smoke ? " (smoke)" : "");
  Run();
  WriteJson(out);
  return 0;
}
