#ifndef ADS_ENGINE_EXEC_REAL_H_
#define ADS_ENGINE_EXEC_REAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/plan.h"
#include "engine/table.h"
#include "telemetry/span.h"

namespace ads::engine {

/// Measured execution of one operator: what the learned components can
/// now score against, instead of the simulated stage-cost model.
struct OperatorStats {
  OpType op = OpType::kScan;
  /// Identity: table name, join keys, group-key count — never timing.
  std::string detail;
  /// Sum of child output rows (0 for scans).
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Optimizer annotations copied from the plan node, so estimated vs
  /// actual cardinality lines up without re-walking the plan.
  double est_card = 0.0;
  double true_card = 0.0;
  /// Measured wall-clock seconds of this operator's own work, children
  /// excluded. Operators hand on views, not copies (see RealExecutor), so
  /// a scan reads ≈0 and the final gather of the result's values is not
  /// any operator's: it counts only in ExecResult::total_seconds.
  double seconds = 0.0;
};

/// Result of really executing a plan.
struct ExecResult {
  ColumnTable table;
  /// Post-order (children before parents), one entry per plan node.
  std::vector<OperatorStats> operators;
  double total_seconds = 0.0;
};

struct RealExecOptions {
  /// Pool for the parallel kernels; nullptr means ThreadPool::Global().
  common::ThreadPool* pool = nullptr;
};

/// Vectorized, late-materializing columnar executor over a TableStore.
///
/// Operators pass a relation *view*, not a materialized table: a list of
/// column pointers (borrowed from the TableStore, or owned by an aggregate
/// or union output) plus one shared uint32 row index per input side, null
/// meaning identity. Scan borrows the stored columns; Filter selects its
/// passing rows and composes each side's index with that selection; Project
/// narrows the pointer list; Join emits left_index∘probe_idx and
/// right_index∘build_idx; Sort composes its stable order; Aggregate reads
/// through the indexes and produces owned columns. Only Union and the
/// root gather values — the root only for the columns of its output
/// schema, so a column no operator above a scan needs is never copied.
///
/// Supported plan shapes: Scan (with optional ProjectIntoScan column
/// narrowing), Filter, Project, inner equi-Join on i64 keys, Aggregate
/// (group keys i64; sum/count/avg/min/max per AggSpec::aggs, bare
/// COUNT(*) when empty), Sort (ascending, stable), Union (same schema).
/// Unsupported shapes — the off-by-default EagerAggregation partial
/// aggregates and ContradictionToEmpty's "<empty>" relation — fail with
/// a clean Status instead of executing wrong.
///
/// Output order is fully defined (see DESIGN.md §15), so results are
/// exactly comparable against the row-at-a-time ReferenceExecutor.
///
/// With a tracer, records one "operator" span per plan node (children
/// nested under parents) with deterministic identity attributes
/// (rows_in/rows_out/detail); timestamps are measured seconds from the
/// start of Execute.
class RealExecutor {
 public:
  explicit RealExecutor(const TableStore* store,
                        RealExecOptions options = RealExecOptions());

  common::Result<ExecResult> Execute(
      const PlanNode& plan, telemetry::Tracer* tracer = nullptr,
      telemetry::SpanId parent = telemetry::kNoSpan) const;

 private:
  const TableStore* store_;
  RealExecOptions options_;
};

}  // namespace ads::engine

#endif  // ADS_ENGINE_EXEC_REAL_H_
