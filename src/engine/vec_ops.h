#ifndef ADS_ENGINE_VEC_OPS_H_
#define ADS_ENGINE_VEC_OPS_H_

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"
#include "engine/column.h"
#include "engine/expr.h"
#include "engine/plan.h"

namespace ads::engine {

/// Vectorized operator kernels: filter selections, row-index composition,
/// value gathers, a seeded hash-join table, a grouped-aggregation index
/// and per-group aggregates. All kernels are deterministic and
/// thread-count invariant: parallel sections use fixed grains on
/// ThreadPool::ParallelFor (whose chunk boundaries never depend on the
/// worker count), per-morsel outputs are concatenated in morsel order, and
/// every floating-point reduction happens sequentially in input row order.
/// The differential harness exploits this: vectorized output must equal
/// the row-at-a-time reference executor bit for bit.
///
/// Kernels read their inputs as (values, row index) pairs — a ColumnRef —
/// so an operator can work on a column it never copied: row r of the
/// relation is the column's row index[r].

/// Fixed grains (rows). The filter and the join probe read their input one
/// kMorselRows morsel at a time, each morsel into its own output.
inline constexpr size_t kMorselRows = 4096;
inline constexpr size_t kGatherGrain = 8192;

/// murmur3's fmix64 finalizer over key ^ seed, for avalanche on the low
/// bits (bucket indices are low-bit masks). The seed picks buckets only:
/// chains and groups keep a defined order whatever it is.
inline uint64_t HashJoinKey(int64_t key, uint64_t seed) {
  uint64_t h = static_cast<uint64_t>(key) ^ seed;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// A column read through a row index: row r is `column` row index[r], or
/// row r itself when `index` is nullptr (the identity — a stored column
/// read in place).
struct ColumnRef {
  const Column* column = nullptr;
  const uint32_t* index = nullptr;

  size_t Row(size_t r) const { return index == nullptr ? r : index[r]; }
  int64_t I64(size_t r) const { return column->I64At(Row(r)); }
  double F64(size_t r) const { return column->F64At(Row(r)); }
};

/// One conjunct of a filter: `value <op> literal`, the value widened to
/// double — the comparison the reference executor makes.
struct ColumnPredicate {
  ColumnRef col;
  CompareOp op = CompareOp::kEqual;
  double literal = 0.0;
};

/// Fills `sel` with the rows of [0, rows) where every predicate holds,
/// ascending and sized exactly; returns their number. Each kMorselRows
/// morsel writes the rows passing the first predicate into a morsel-local
/// selection, branch-free, and each later predicate re-tests only that
/// morsel's survivors; the morsels are then concatenated in order. An i64
/// column is compared as integers against the inclusive int64 range where
/// the double comparison holds (int64 -> double is monotone, so that set
/// is a range), found once per predicate by bisection: the selected rows
/// are exactly those of the double comparison, NaN and infinities
/// included. `preds` must not be empty.
size_t SelectRows(const std::vector<ColumnPredicate>& preds, size_t rows,
                  common::ThreadPool& pool,
                  common::AlignedBuffer<uint32_t>* sel);

/// out[i] = outer[sel[i]] for i in [0, n): composes a row index with a
/// selection of its rows. A uint32 gather; no column value moves.
void ComposeIndex(const uint32_t* outer, const uint32_t* sel, size_t n,
                  common::ThreadPool& pool,
                  common::AlignedBuffer<uint32_t>* out);

/// out[at + i] = src row i for i in [0, n): the value gather. `out` must
/// already have src's type and at least at + n rows.
void GatherColumn(const ColumnRef& src, size_t n, common::ThreadPool& pool,
                  Column* out, size_t at);

/// Hash-join build/probe over i64 keys, bucket-chained. Matches for one
/// probe row come out in ascending build-row order (the chains are built
/// back to front), which pins the operator's output order to the
/// nested-loop order the reference executor produces.
class JoinHashTable {
 public:
  /// Builds over `rows` rows of the build side's key column (i64). `seed`
  /// selects the hash stream — the executor's hashing seed policy is one
  /// fixed seed per executor, so rebuilding the same plan is bit-identical.
  void Build(const ColumnRef& keys, size_t rows, uint64_t seed);

  size_t build_rows() const { return keys_.size(); }

  /// Probes with `rows` rows of `probe_keys` in row order and appends
  /// every match as a (probe_row, build_row) pair, probe-major, build
  /// ascending within a probe row. One pass: each kMorselRows morsel
  /// appends its pairs to its own buffers, concatenated in morsel order.
  void Probe(const ColumnRef& probe_keys, size_t rows,
             common::ThreadPool& pool,
             common::AlignedBuffer<uint32_t>* probe_idx,
             common::AlignedBuffer<uint32_t>* build_idx) const;

 private:
  uint64_t seed_ = 0;
  size_t mask_ = 0;
  common::AlignedBuffer<int64_t> keys_;
  common::AlignedBuffer<int32_t> heads_;  // bucket -> first build row or -1
  common::AlignedBuffer<int32_t> next_;   // build row -> next in chain or -1
};

/// Grouped-aggregation index over i64 group-key columns: assigns each row
/// a dense group id in first-seen order. Sequential by design — group
/// discovery order is part of the operator's defined semantics (output
/// groups appear in first-seen input order).
class GroupIndex {
 public:
  /// `keys` may be empty: every row lands in group 0 (global aggregate).
  void Build(const std::vector<ColumnRef>& keys, size_t rows, uint64_t seed);

  size_t num_groups() const { return representative_row_.size(); }
  /// Dense group id per input row.
  const common::AlignedBuffer<uint32_t>& group_of_row() const {
    return group_of_row_;
  }
  /// First input row of each group, indexed by group id.
  const common::AlignedBuffer<uint32_t>& representative_row() const {
    return representative_row_;
  }
  /// Number of input rows in each group, indexed by group id.
  const std::vector<int64_t>& group_rows() const { return group_rows_; }

 private:
  common::AlignedBuffer<uint32_t> group_of_row_;
  common::AlignedBuffer<uint32_t> representative_row_;
  std::vector<int64_t> group_rows_;
};

/// One aggregate of a grouped relation: `fn` over `in`. COUNT(*) has no
/// input (`in.column` null).
struct GroupedAgg {
  AggFn fn = AggFn::kCount;
  ColumnRef in;
};

/// Every aggregate in `aggs` over the `rows` rows of a relation, row r in
/// group group_of_row[r]: one unnamed column per aggregate, one row per
/// group, of the aggregate's output type (COUNT i64, AVG f64, the others
/// their input's type). group_rows[g] is group g's row count; COUNT reads
/// only it. Each distinct SUM/AVG input (one column through one row index)
/// is summed once, sequentially in row order — f64 sums add in row order,
/// i64 sums wrap mod 2^64 — and SUM is that sum, AVG that sum over the
/// group's count (0 for an empty group). MIN and MAX take one pass each;
/// of an empty group they are 0.
std::vector<Column> AggregateByGroup(const std::vector<GroupedAgg>& aggs,
                                     size_t rows,
                                     const uint32_t* group_of_row,
                                     const std::vector<int64_t>& group_rows);

}  // namespace ads::engine

#endif  // ADS_ENGINE_VEC_OPS_H_
