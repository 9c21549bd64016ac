#include "engine/reference_exec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

namespace ads::engine {

namespace {

/// One cell: both representations live side by side; `type` in the schema
/// says which is meaningful. A row is a vector of cells — the classic
/// tuple-at-a-time layout this executor exists to embody.
struct Cell {
  int64_t i = 0;
  double f = 0.0;
};

struct RowBatch {
  std::vector<std::pair<std::string, ColumnType>> schema;
  std::vector<std::vector<Cell>> rows;

  int FindColumn(const std::string& name) const {
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema[i].first == name) return static_cast<int>(i);
    }
    return -1;
  }
};

common::Status MissingColumn(const std::string& column,
                             const std::string& where) {
  return common::Status::NotFound("column " + column + " not found in " +
                                  where);
}

double CellAsDouble(const Cell& c, ColumnType type) {
  return type == ColumnType::kI64 ? static_cast<double>(c.i) : c.f;
}

/// f64 sort order: numbers ascending, NaN after every number; NaNs, and
/// -0.0 with +0.0, tie (a strict weak order, as std::stable_sort needs).
bool SortsBefore(double a, double b) {
  return a < b || (!std::isnan(a) && std::isnan(b));
}

bool EvalPredicate(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kLess:
      return lhs < rhs;
    case CompareOp::kLessEqual:
      return lhs <= rhs;
    case CompareOp::kEqual:
      return lhs == rhs;
    case CompareOp::kGreater:
      return lhs > rhs;
    case CompareOp::kGreaterEqual:
      return lhs >= rhs;
  }
  return false;
}

common::Result<RowBatch> Exec(const TableStore& store, const PlanNode& node);

common::Result<RowBatch> ExecScan(const TableStore& store,
                                  const PlanNode& node) {
  const ColumnTable* table = store.FindTable(node.table);
  if (table == nullptr) {
    return common::Status::NotFound("no stored table named " + node.table +
                                    " (is this a simulated-only plan?)");
  }
  std::vector<const Column*> cols;
  if (node.columns.empty()) {
    for (const Column& c : table->columns()) cols.push_back(&c);
  } else {
    for (const std::string& name : node.columns) {
      const Column* c = table->FindColumn(name);
      if (c == nullptr) return MissingColumn(name, "scan of " + node.table);
      cols.push_back(c);
    }
  }
  RowBatch out;
  for (const Column* c : cols) out.schema.emplace_back(c->name(), c->type());
  const size_t rows = table->num_rows();
  out.rows.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Cell> row(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i]->type() == ColumnType::kI64) {
        row[i].i = cols[i]->I64At(r);
      } else {
        row[i].f = cols[i]->F64At(r);
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

common::Result<RowBatch> ExecFilter(const TableStore& store,
                                    const PlanNode& node) {
  auto in = Exec(store, *node.children[0]);
  if (!in.ok()) return in.status();
  RowBatch batch = std::move(in).value();
  if (node.predicates.empty()) return batch;
  std::vector<int> pred_col(node.predicates.size());
  for (size_t p = 0; p < node.predicates.size(); ++p) {
    pred_col[p] = batch.FindColumn(node.predicates[p].column);
    if (pred_col[p] < 0) {
      return MissingColumn(node.predicates[p].column, "filter input");
    }
  }
  RowBatch out;
  out.schema = batch.schema;
  for (std::vector<Cell>& row : batch.rows) {
    bool keep = true;
    for (size_t p = 0; p < node.predicates.size() && keep; ++p) {
      const Predicate& pred = node.predicates[p];
      const auto idx = static_cast<size_t>(pred_col[p]);
      keep = EvalPredicate(CellAsDouble(row[idx], batch.schema[idx].second),
                           pred.op, pred.value);
    }
    if (keep) out.rows.push_back(std::move(row));
  }
  return out;
}

common::Result<RowBatch> ExecProject(const TableStore& store,
                                     const PlanNode& node) {
  auto in = Exec(store, *node.children[0]);
  if (!in.ok()) return in.status();
  RowBatch batch = std::move(in).value();
  std::vector<int> keep;
  RowBatch out;
  for (const std::string& name : node.columns) {
    int idx = batch.FindColumn(name);
    if (idx < 0) return MissingColumn(name, "project input");
    keep.push_back(idx);
    out.schema.push_back(batch.schema[static_cast<size_t>(idx)]);
  }
  out.rows.reserve(batch.rows.size());
  for (const std::vector<Cell>& row : batch.rows) {
    std::vector<Cell> projected(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) {
      projected[i] = row[static_cast<size_t>(keep[i])];
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

common::Result<RowBatch> ExecJoin(const TableStore& store,
                                  const PlanNode& node) {
  auto l = Exec(store, *node.children[0]);
  if (!l.ok()) return l.status();
  auto r = Exec(store, *node.children[1]);
  if (!r.ok()) return r.status();
  RowBatch left = std::move(l).value();
  RowBatch right = std::move(r).value();

  int lkey = left.FindColumn(node.join.left_key);
  int rkey = right.FindColumn(node.join.right_key);
  if (lkey < 0 || rkey < 0) {
    lkey = left.FindColumn(node.join.right_key);
    rkey = right.FindColumn(node.join.left_key);
  }
  if (lkey < 0 || rkey < 0) {
    return common::Status::NotFound("join keys " + node.join.left_key + "/" +
                                    node.join.right_key +
                                    " not resolvable against inputs");
  }
  const auto lk = static_cast<size_t>(lkey);
  const auto rk = static_cast<size_t>(rkey);
  if (left.schema[lk].second != ColumnType::kI64 ||
      right.schema[rk].second != ColumnType::kI64) {
    return common::Status::Unimplemented("join keys must be i64 columns");
  }

  // Row-at-a-time hash join: key -> build rows in input (ascending) order.
  std::unordered_map<int64_t, std::vector<size_t>> build;
  build.reserve(right.rows.size());
  for (size_t i = 0; i < right.rows.size(); ++i) {
    build[right.rows[i][rk].i].push_back(i);
  }

  RowBatch out;
  out.schema = left.schema;
  out.schema.insert(out.schema.end(), right.schema.begin(),
                    right.schema.end());
  for (const std::vector<Cell>& lrow : left.rows) {
    auto it = build.find(lrow[lk].i);
    if (it == build.end()) continue;
    for (size_t ri : it->second) {
      std::vector<Cell> joined = lrow;
      joined.insert(joined.end(), right.rows[ri].begin(),
                    right.rows[ri].end());
      out.rows.push_back(std::move(joined));
    }
  }
  return out;
}

common::Result<RowBatch> ExecAggregate(const TableStore& store,
                                       const PlanNode& node) {
  auto in = Exec(store, *node.children[0]);
  if (!in.ok()) return in.status();
  RowBatch batch = std::move(in).value();

  std::vector<size_t> key_idx;
  for (const std::string& key : node.agg.group_keys) {
    int idx = batch.FindColumn(key);
    if (idx < 0) {
      return MissingColumn(key,
                           "aggregate input (eager-aggregation partials "
                           "are not executable)");
    }
    if (batch.schema[static_cast<size_t>(idx)].second != ColumnType::kI64) {
      return common::Status::Unimplemented("group keys must be i64 columns");
    }
    key_idx.push_back(static_cast<size_t>(idx));
  }

  std::vector<AggExpr> aggs = node.agg.aggs;
  if (aggs.empty()) aggs.push_back(AggExpr{AggFn::kCount, ""});
  std::vector<int> agg_idx(aggs.size(), -1);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].column.empty()) {
      if (aggs[a].fn != AggFn::kCount) {
        return common::Status::InvalidArgument(
            "aggregate without input column must be COUNT(*)");
      }
      continue;
    }
    agg_idx[a] = batch.FindColumn(aggs[a].column);
    if (agg_idx[a] < 0) {
      return MissingColumn(aggs[a].column, "aggregate input");
    }
  }

  struct Acc {
    int64_t count = 0;
    // Unsigned so overflow-adjacent sums wrap mod 2^64 (defined,
    // congruent to the signed sum) — same rule as the vectorized path.
    uint64_t i_sum = 0;
    double f_sum = 0.0;
    int64_t i_best = 0;
    double f_best = 0.0;
    bool seen = false;
  };

  struct VecHash {
    size_t operator()(const std::vector<int64_t>& v) const {
      uint64_t h = 1469598103934665603ull;
      for (int64_t x : v) {
        h ^= static_cast<uint64_t>(x);
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  // Group id by first-seen order; one accumulator per (group, agg).
  std::unordered_map<std::vector<int64_t>, size_t, VecHash> group_ids;
  std::vector<std::vector<int64_t>> group_keys;  // in first-seen order
  std::vector<std::vector<Acc>> accs;            // [group][agg]

  for (const std::vector<Cell>& row : batch.rows) {
    std::vector<int64_t> key(key_idx.size());
    for (size_t k = 0; k < key_idx.size(); ++k) key[k] = row[key_idx[k]].i;
    auto [it, inserted] = group_ids.try_emplace(key, group_keys.size());
    if (inserted) {
      group_keys.push_back(key);
      accs.emplace_back(aggs.size());
    }
    std::vector<Acc>& group_accs = accs[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = group_accs[a];
      ++acc.count;
      if (agg_idx[a] < 0) continue;
      const auto idx = static_cast<size_t>(agg_idx[a]);
      if (batch.schema[idx].second == ColumnType::kI64) {
        const int64_t v = row[idx].i;
        acc.i_sum += static_cast<uint64_t>(v);
        const bool better =
            aggs[a].fn == AggFn::kMin ? v < acc.i_best : v > acc.i_best;
        if (!acc.seen || better) acc.i_best = v;
      } else {
        const double v = row[idx].f;
        acc.f_sum += v;
        const bool better =
            aggs[a].fn == AggFn::kMin ? v < acc.f_best : v > acc.f_best;
        if (!acc.seen || better) acc.f_best = v;
      }
      acc.seen = true;
    }
  }

  // Global aggregate over zero rows: one identity row.
  if (key_idx.empty() && group_keys.empty()) {
    group_keys.emplace_back();
    accs.emplace_back(aggs.size());
  }

  RowBatch out;
  for (size_t k = 0; k < key_idx.size(); ++k) {
    out.schema.emplace_back(node.agg.group_keys[k], ColumnType::kI64);
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const ColumnType in_type = agg_idx[a] < 0
                                   ? ColumnType::kI64
                                   : batch.schema[static_cast<size_t>(
                                                      agg_idx[a])]
                                         .second;
    ColumnType out_type;
    switch (aggs[a].fn) {
      case AggFn::kCount:
        out_type = ColumnType::kI64;
        break;
      case AggFn::kAvg:
        out_type = ColumnType::kF64;
        break;
      default:
        out_type = in_type;
        break;
    }
    out.schema.emplace_back(aggs[a].OutputName(), out_type);
  }

  for (size_t g = 0; g < group_keys.size(); ++g) {
    std::vector<Cell> row;
    row.reserve(key_idx.size() + aggs.size());
    for (int64_t k : group_keys[g]) {
      Cell c;
      c.i = k;
      row.push_back(c);
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[g][a];
      const ColumnType in_type = agg_idx[a] < 0
                                     ? ColumnType::kI64
                                     : batch.schema[static_cast<size_t>(
                                                        agg_idx[a])]
                                           .second;
      Cell c;
      switch (aggs[a].fn) {
        case AggFn::kCount:
          c.i = acc.count;
          break;
        case AggFn::kSum:
          if (in_type == ColumnType::kI64) {
            c.i = static_cast<int64_t>(acc.i_sum);
          } else {
            c.f = acc.f_sum;
          }
          break;
        case AggFn::kAvg:
          if (acc.count == 0) {
            c.f = 0.0;
          } else if (in_type == ColumnType::kI64) {
            c.f = static_cast<double>(static_cast<int64_t>(acc.i_sum)) /
                  static_cast<double>(acc.count);
          } else {
            c.f = acc.f_sum / static_cast<double>(acc.count);
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          if (in_type == ColumnType::kI64) {
            c.i = acc.i_best;
          } else {
            c.f = acc.f_best;
          }
          break;
      }
      row.push_back(c);
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

common::Result<RowBatch> ExecSort(const TableStore& store,
                                  const PlanNode& node) {
  auto in = Exec(store, *node.children[0]);
  if (!in.ok()) return in.status();
  RowBatch batch = std::move(in).value();
  std::vector<size_t> sort_idx;
  for (const std::string& name : node.columns) {
    int idx = batch.FindColumn(name);
    if (idx < 0) return MissingColumn(name, "sort input");
    sort_idx.push_back(static_cast<size_t>(idx));
  }
  std::stable_sort(
      batch.rows.begin(), batch.rows.end(),
      [&](const std::vector<Cell>& a, const std::vector<Cell>& b) {
        for (size_t idx : sort_idx) {
          if (batch.schema[idx].second == ColumnType::kI64) {
            if (a[idx].i != b[idx].i) return a[idx].i < b[idx].i;
          } else {
            if (SortsBefore(a[idx].f, b[idx].f)) return true;
            if (SortsBefore(b[idx].f, a[idx].f)) return false;
          }
        }
        return false;
      });
  return batch;
}

common::Result<RowBatch> ExecUnion(const TableStore& store,
                                   const PlanNode& node) {
  auto l = Exec(store, *node.children[0]);
  if (!l.ok()) return l.status();
  auto r = Exec(store, *node.children[1]);
  if (!r.ok()) return r.status();
  RowBatch left = std::move(l).value();
  RowBatch right = std::move(r).value();
  if (left.schema != right.schema) {
    return common::Status::InvalidArgument("union schema mismatch");
  }
  for (std::vector<Cell>& row : right.rows) {
    left.rows.push_back(std::move(row));
  }
  return left;
}

common::Result<RowBatch> Exec(const TableStore& store, const PlanNode& node) {
  switch (node.op) {
    case OpType::kScan:
      return ExecScan(store, node);
    case OpType::kFilter:
      return ExecFilter(store, node);
    case OpType::kProject:
      return ExecProject(store, node);
    case OpType::kJoin:
      return ExecJoin(store, node);
    case OpType::kAggregate:
      return ExecAggregate(store, node);
    case OpType::kSort:
      return ExecSort(store, node);
    case OpType::kUnion:
      return ExecUnion(store, node);
  }
  return common::Status::Unimplemented("unknown operator");
}

}  // namespace

common::Result<ColumnTable> ReferenceExecutor::Execute(
    const PlanNode& plan) const {
  auto batch = Exec(*store_, plan);
  if (!batch.ok()) return batch.status();
  const RowBatch& rows = *batch;
  ColumnTable out("reference");
  for (size_t i = 0; i < rows.schema.size(); ++i) {
    Column c(rows.schema[i].first, rows.schema[i].second);
    c.Reserve(rows.rows.size());
    for (const std::vector<Cell>& row : rows.rows) {
      if (rows.schema[i].second == ColumnType::kI64) {
        c.AppendI64(row[i].i);
      } else {
        c.AppendF64(row[i].f);
      }
    }
    out.AddColumn(std::move(c));
  }
  return out;
}

}  // namespace ads::engine
