// Golden-answer fixtures: each TPC-H-shaped template at a tiny scale
// factor has a checked-in serialized result. The serialization prints
// doubles with 17 significant digits, so a byte-equal golden means a
// bit-equal answer — across runs, across ADS_THREADS (CI runs this
// binary at 1 and 4 threads), and across the two executors.
//
// Each template also pins its per-operator accounting (<template>.operators):
// the post-order (op, detail, rows_in, rows_out) list of OperatorStats for
// the logical plan and for its RuleConfig::Default() optimization — the
// identity half of EXPLAIN ANALYZE, which must not move when the executor's
// internals do.
//
// Regenerate after an intentional semantics change:
//   ADS_UPDATE_GOLDENS=1 ctest --test-dir build -R engine_exec_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/reference_exec.h"
#include "engine/rules.h"
#include "engine/table.h"
#include "workload/tpch_gen.h"

namespace ads::engine {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(ADS_ENGINE_GOLDEN_DIR) + "/" + name;
}

void CheckGolden(const std::string& name, const std::string& got) {
  const std::string path = GoldenPath(name);
  if (std::getenv("ADS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << got;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << "; create it with ADS_UPDATE_GOLDENS=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), got)
      << "query answer diverged from " << path
      << "; if intentional, regenerate with ADS_UPDATE_GOLDENS=1";
}

/// One line per operator, post-order, tab-separated. Timing is left out:
/// only the deterministic identity of each operator is pinned.
std::string OperatorLines(const ExecResult& result) {
  std::ostringstream os;
  for (const OperatorStats& op : result.operators) {
    os << OpTypeName(op.op) << "\t" << op.detail << "\t" << op.rows_in
       << "\t" << op.rows_out << "\n";
  }
  return os.str();
}

TEST(ExecGoldenTest, TpchTemplateAnswersAreByteStable) {
  workload::TpchGenOptions opts;
  opts.scale_factor = 0.02;
  opts.seed = 42;
  workload::TpchGenerator gen(opts);

  RealExecOptions serial_opts;
  serial_opts.pool = &common::ThreadPool::Serial();
  RealExecutor serial_exec(&gen.store(), serial_opts);
  RealExecutor global_exec(&gen.store());  // Global pool (ADS_THREADS)
  ReferenceExecutor reference(&gen.store());
  Optimizer optimizer(&gen.catalog());

  for (const std::string& name : gen.QueryNames()) {
    SCOPED_TRACE(name);
    auto plan = gen.MakeQuery(name);
    ASSERT_TRUE(plan.ok()) << plan.status();

    auto parallel = global_exec.Execute(*plan.value());
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    const std::string got = parallel->table.Serialize();

    // Thread-count invariance: serial bytes == parallel bytes.
    auto serial = serial_exec.Execute(*plan.value());
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_EQ(serial->table.Serialize(), got)
        << name << " differs between serial and global pools";

    // Executor equivalence on the exact fixture inputs.
    auto oracle = reference.Execute(*plan.value());
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(oracle->Serialize(), got)
        << name << " differs between executors";

    CheckGolden(name + ".golden", got);

    // Operator accounting, logical plan then Default-optimized plan; the
    // serial pool must count exactly what the global pool counts.
    const std::string ops = OperatorLines(parallel.value());
    EXPECT_EQ(OperatorLines(serial.value()), ops)
        << name << " operator stats differ between serial and global pools";
    auto optimized = optimizer.Optimize(*plan.value(), RuleConfig::Default());
    ASSERT_NE(optimized, nullptr);
    auto optimized_run = global_exec.Execute(*optimized);
    ASSERT_TRUE(optimized_run.ok()) << optimized_run.status();
    EXPECT_EQ(optimized_run->table.Serialize(), got)
        << name << " optimized answer differs from the logical answer";
    CheckGolden(name + ".operators",
                "# logical\n" + ops + "# optimized (RuleConfig::Default)\n" +
                    OperatorLines(optimized_run.value()));
  }
}

}  // namespace
}  // namespace ads::engine
