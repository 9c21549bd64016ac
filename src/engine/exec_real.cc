#include "engine/exec_real.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "engine/vec_ops.h"

namespace ads::engine {

namespace {

/// Seed for join/group hashing. Policy: one fixed seed — never derived
/// from data or time — so a plan re-executed on the same store is
/// bit-identical, across runs and across ADS_THREADS.
constexpr uint64_t kHashSeed = 0x8f3a96cd15ce1bd3ull;

/// The sort order of f64 keys, a strict weak order: numbers ascending,
/// NaN after every number; NaNs, and -0.0 with +0.0, tie.
bool SortsBefore(double a, double b) {
  return a < b || (!std::isnan(a) && std::isnan(b));
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

common::Status MissingColumn(const std::string& column,
                             const std::string& where) {
  return common::Status::NotFound("column " + column + " not found in " +
                                  where);
}

std::string NodeDetail(const PlanNode& node) {
  std::ostringstream os;
  switch (node.op) {
    case OpType::kScan:
      os << node.table;
      break;
    case OpType::kFilter:
      os << node.predicates.size() << " preds";
      break;
    case OpType::kProject:
      os << node.columns.size() << " cols";
      break;
    case OpType::kJoin:
      os << node.join.left_key << "=" << node.join.right_key;
      break;
    case OpType::kAggregate:
      os << node.agg.group_keys.size() << " keys, "
         << std::max<size_t>(1, node.agg.aggs.size()) << " aggs";
      break;
    case OpType::kSort:
      os << node.columns.size() << " cols";
      break;
    case OpType::kUnion:
      break;
  }
  return os.str();
}

using RowIndex = common::AlignedBuffer<uint32_t>;
using SharedIndex = std::shared_ptr<const RowIndex>;

/// A relation as operators hand it on: column pointers plus one row index
/// per input side. Row r of the relation reads column c at row
/// sides[c.side].index[r] — at row r itself when that index is null.
struct View {
  struct Side {
    /// Row index into this side's columns; null is the identity.
    SharedIndex index;
    /// Owns the side's columns when an operator produced them (aggregate,
    /// union); null when they are borrowed from the TableStore.
    std::shared_ptr<const ColumnTable> owner;
  };
  struct Col {
    const Column* values = nullptr;
    size_t side = 0;
  };

  std::vector<Side> sides;
  std::vector<Col> cols;
  size_t rows = 0;

  /// Position of the named column in `cols`, or -1.
  int Find(const std::string& name) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].values->name() == name) return static_cast<int>(i);
    }
    return -1;
  }

  ColumnRef Ref(size_t col) const {
    const SharedIndex& index = sides[cols[col].side].index;
    return ColumnRef{cols[col].values,
                     index == nullptr ? nullptr : index->data()};
  }
};

/// A view over columns an operator produced: one owned side, identity.
View OwnedView(std::shared_ptr<const ColumnTable> table, size_t rows) {
  View out;
  out.rows = rows;
  for (const Column& c : table->columns()) out.cols.push_back({&c, 0});
  out.sides.push_back(View::Side{nullptr, std::move(table)});
  return out;
}

/// Appends `in`'s sides and columns to `out`, each side's index composed
/// with `sel`, a selection of `in`'s rows. Sides that shared an index
/// share the composed one; an identity side takes `sel` itself.
void AppendComposed(const View& in, const SharedIndex& sel,
                    common::ThreadPool& pool, View* out) {
  const size_t base = out->sides.size();
  std::vector<std::pair<const RowIndex*, SharedIndex>> composed;
  for (const View::Side& side : in.sides) {
    SharedIndex index = sel;
    if (side.index != nullptr) {
      auto hit = std::find_if(composed.begin(), composed.end(),
                              [&](const auto& c) {
                                return c.first == side.index.get();
                              });
      if (hit != composed.end()) {
        index = hit->second;
      } else {
        auto fresh = std::make_shared<RowIndex>();
        ComposeIndex(side.index->data(), sel->data(), sel->size(), pool,
                     fresh.get());
        index = fresh;
        composed.emplace_back(side.index.get(), index);
      }
    }
    out->sides.push_back(View::Side{std::move(index), side.owner});
  }
  for (const View::Col& c : in.cols) {
    out->cols.push_back({c.values, base + c.side});
  }
}

/// The result table: the only value gather besides Union, and only for
/// the columns of the root's output schema.
ColumnTable Materialize(const View& view, common::ThreadPool& pool) {
  ColumnTable out("result");
  for (size_t i = 0; i < view.cols.size(); ++i) {
    const Column& src = *view.cols[i].values;
    Column c(src.name(), src.type());
    c.Resize(view.rows);
    GatherColumn(view.Ref(i), view.rows, pool, &c, 0);
    out.AddColumn(std::move(c));
  }
  return out;
}

struct ExecContext {
  const TableStore* store = nullptr;
  common::ThreadPool* pool = nullptr;
  telemetry::Tracer* tracer = nullptr;
  double start_time = 0.0;
  std::vector<OperatorStats>* operators = nullptr;
};

common::Result<View> ExecScan(const PlanNode& node, const ExecContext& ctx) {
  const ColumnTable* table = ctx.store->FindTable(node.table);
  if (table == nullptr) {
    return common::Status::NotFound("no stored table named " + node.table +
                                    " (is this a simulated-only plan?)");
  }
  View out;
  out.rows = table->num_rows();
  out.sides.emplace_back();
  if (node.columns.empty()) {
    for (const Column& c : table->columns()) out.cols.push_back({&c, 0});
    return out;
  }
  // ProjectIntoScan narrowing: borrow only the surviving columns.
  for (const std::string& name : node.columns) {
    const Column* c = table->FindColumn(name);
    if (c == nullptr) return MissingColumn(name, "scan of " + node.table);
    out.cols.push_back({c, 0});
  }
  return out;
}

common::Result<View> ExecFilter(const PlanNode& node, View input,
                                const ExecContext& ctx) {
  if (node.predicates.empty()) return input;
  std::vector<ColumnPredicate> preds;
  for (const Predicate& pred : node.predicates) {
    const int col = input.Find(pred.column);
    if (col < 0) return MissingColumn(pred.column, "filter input");
    preds.push_back(ColumnPredicate{input.Ref(static_cast<size_t>(col)),
                                    pred.op, pred.value});
  }
  auto sel = std::make_shared<RowIndex>();
  const size_t n = SelectRows(preds, input.rows, *ctx.pool, sel.get());
  if (n == input.rows) return input;  // every row survives
  View out;
  out.rows = n;
  AppendComposed(input, sel, *ctx.pool, &out);
  return out;
}

common::Result<View> ExecProject(const PlanNode& node, const View& input) {
  View out;
  out.rows = input.rows;
  // Narrow the pointer list; a side no surviving column reads is dropped,
  // so no operator above composes its index again.
  std::vector<int> side_of(input.sides.size(), -1);
  for (const std::string& name : node.columns) {
    const int col = input.Find(name);
    if (col < 0) return MissingColumn(name, "project input");
    const View::Col& c = input.cols[static_cast<size_t>(col)];
    if (side_of[c.side] < 0) {
      side_of[c.side] = static_cast<int>(out.sides.size());
      out.sides.push_back(input.sides[c.side]);
    }
    out.cols.push_back({c.values, static_cast<size_t>(side_of[c.side])});
  }
  return out;
}

common::Result<View> ExecJoin(const PlanNode& node, const View& left,
                              const View& right, const ExecContext& ctx) {
  // Resolve which side owns which key by schema, not by position: the
  // commute/associativity rules move keys freely.
  int lkey = left.Find(node.join.left_key);
  int rkey = right.Find(node.join.right_key);
  if (lkey < 0 || rkey < 0) {
    lkey = left.Find(node.join.right_key);
    rkey = right.Find(node.join.left_key);
  }
  if (lkey < 0 || rkey < 0) {
    return common::Status::NotFound("join keys " + node.join.left_key +
                                    "/" + node.join.right_key +
                                    " not resolvable against inputs");
  }
  const ColumnRef lk = left.Ref(static_cast<size_t>(lkey));
  const ColumnRef rk = right.Ref(static_cast<size_t>(rkey));
  if (lk.column->type() != ColumnType::kI64 ||
      rk.column->type() != ColumnType::kI64) {
    return common::Status::Unimplemented("join keys must be i64 columns");
  }

  // Build over the right input, probe with the left in row order: output
  // row order is (left row asc, right matches asc) — the defined order.
  JoinHashTable table;
  table.Build(rk, right.rows, kHashSeed);
  auto probe_idx = std::make_shared<RowIndex>();
  auto build_idx = std::make_shared<RowIndex>();
  table.Probe(lk, left.rows, *ctx.pool, probe_idx.get(), build_idx.get());

  View out;
  out.rows = probe_idx->size();
  AppendComposed(left, probe_idx, *ctx.pool, &out);
  AppendComposed(right, build_idx, *ctx.pool, &out);
  return out;
}

common::Result<View> ExecAggregate(const PlanNode& node, const View& input) {
  const size_t rows = input.rows;

  std::vector<ColumnRef> keys;
  for (const std::string& key : node.agg.group_keys) {
    const int col = input.Find(key);
    if (col < 0) {
      return MissingColumn(key,
                           "aggregate input (eager-aggregation partials "
                           "are not executable)");
    }
    keys.push_back(input.Ref(static_cast<size_t>(col)));
    if (keys.back().column->type() != ColumnType::kI64) {
      return common::Status::Unimplemented("group keys must be i64 columns");
    }
  }

  std::vector<AggExpr> aggs = node.agg.aggs;
  if (aggs.empty()) aggs.push_back(AggExpr{AggFn::kCount, ""});
  std::vector<GroupedAgg> grouped(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    grouped[a].fn = aggs[a].fn;
    if (aggs[a].column.empty()) {
      if (aggs[a].fn != AggFn::kCount) {
        return common::Status::InvalidArgument(
            "aggregate without input column must be COUNT(*)");
      }
      continue;
    }
    const int col = input.Find(aggs[a].column);
    if (col < 0) return MissingColumn(aggs[a].column, "aggregate input");
    grouped[a].in = input.Ref(static_cast<size_t>(col));
  }

  GroupIndex index;
  index.Build(keys, rows, kHashSeed);
  // A global aggregate (no keys) over zero rows still yields one row of
  // identities: count 0, sum 0, avg 0, min/max 0. This engine has no
  // NULLs; both executors implement exactly this convention.
  const bool global_empty = keys.empty() && rows == 0;
  const std::vector<int64_t> group_rows =
      global_empty ? std::vector<int64_t>{0} : index.group_rows();
  const size_t groups = group_rows.size();

  auto out = std::make_shared<ColumnTable>("aggregate");
  for (size_t k = 0; k < keys.size(); ++k) {
    Column key(node.agg.group_keys[k], ColumnType::kI64);
    key.Resize(groups);
    for (size_t g = 0; g < groups; ++g) {
      key.I64At(g) = keys[k].I64(index.representative_row()[g]);
    }
    out->AddColumn(std::move(key));
  }

  std::vector<Column> results = AggregateByGroup(
      grouped, rows, index.group_of_row().data(), group_rows);
  for (size_t a = 0; a < aggs.size(); ++a) {
    results[a].set_name(aggs[a].OutputName());
    out->AddColumn(std::move(results[a]));
  }
  return OwnedView(std::move(out), groups);
}

common::Result<View> ExecSort(const PlanNode& node, const View& input,
                              const ExecContext& ctx) {
  std::vector<ColumnRef> keys;
  for (const std::string& name : node.columns) {
    const int col = input.Find(name);
    if (col < 0) return MissingColumn(name, "sort input");
    keys.push_back(input.Ref(static_cast<size_t>(col)));
  }
  auto order = std::make_shared<RowIndex>();
  order->EnsureCapacity(input.rows);
  std::iota(order->begin(), order->end(), 0u);
  std::stable_sort(order->begin(), order->end(),
                   [&](uint32_t a, uint32_t b) {
                     for (const ColumnRef& k : keys) {
                       if (k.column->type() == ColumnType::kI64) {
                         if (k.I64(a) != k.I64(b)) return k.I64(a) < k.I64(b);
                       } else {
                         if (SortsBefore(k.F64(a), k.F64(b))) return true;
                         if (SortsBefore(k.F64(b), k.F64(a))) return false;
                       }
                     }
                     return false;
                   });
  View out;
  out.rows = input.rows;
  AppendComposed(input, order, *ctx.pool, &out);
  return out;
}

common::Result<View> ExecUnion(const View& left, const View& right,
                               const ExecContext& ctx) {
  if (left.cols.size() != right.cols.size()) {
    return common::Status::InvalidArgument("union schema mismatch");
  }
  for (size_t i = 0; i < left.cols.size(); ++i) {
    const Column& l = *left.cols[i].values;
    const Column& r = *right.cols[i].values;
    if (l.name() != r.name() || l.type() != r.type()) {
      return common::Status::InvalidArgument("union schema mismatch");
    }
  }
  // Two inputs, one output row space: the values are gathered here.
  const size_t rows = left.rows + right.rows;
  auto out = std::make_shared<ColumnTable>("union");
  for (size_t i = 0; i < left.cols.size(); ++i) {
    const Column& src = *left.cols[i].values;
    Column c(src.name(), src.type());
    c.Resize(rows);
    GatherColumn(left.Ref(i), left.rows, *ctx.pool, &c, 0);
    GatherColumn(right.Ref(i), right.rows, *ctx.pool, &c, left.rows);
    out->AddColumn(std::move(c));
  }
  return OwnedView(std::move(out), rows);
}

common::Result<View> Exec(const PlanNode& node, ExecContext& ctx,
                          telemetry::SpanId parent) {
  telemetry::SpanId span = telemetry::kNoSpan;
  if (ctx.tracer != nullptr) {
    span = ctx.tracer->StartSpan(
        "operator", std::string("exec.") + OpTypeName(node.op), parent,
        Now() - ctx.start_time);
    ctx.tracer->Annotate(span, "detail", NodeDetail(node));
  }

  uint64_t rows_in = 0;
  std::vector<View> inputs;
  inputs.reserve(node.children.size());
  for (const auto& child : node.children) {
    auto in = Exec(*child, ctx, span);
    if (!in.ok()) {
      if (ctx.tracer != nullptr) {
        ctx.tracer->Annotate(span, "outcome", "error");
        ctx.tracer->EndSpan(span, Now() - ctx.start_time);
      }
      return in.status();
    }
    rows_in += in->rows;
    inputs.push_back(std::move(in).value());
  }

  const double op_start = Now();
  common::Result<View> out = [&]() -> common::Result<View> {
    switch (node.op) {
      case OpType::kScan:
        return ExecScan(node, ctx);
      case OpType::kFilter:
        return ExecFilter(node, std::move(inputs[0]), ctx);
      case OpType::kProject:
        return ExecProject(node, inputs[0]);
      case OpType::kJoin:
        return ExecJoin(node, inputs[0], inputs[1], ctx);
      case OpType::kAggregate:
        return ExecAggregate(node, inputs[0]);
      case OpType::kSort:
        return ExecSort(node, inputs[0], ctx);
      case OpType::kUnion:
        return ExecUnion(inputs[0], inputs[1], ctx);
    }
    return common::Status::Unimplemented("unknown operator");
  }();
  const double op_seconds = Now() - op_start;

  if (!out.ok()) {
    if (ctx.tracer != nullptr) {
      ctx.tracer->Annotate(span, "outcome", "error");
      ctx.tracer->EndSpan(span, Now() - ctx.start_time);
    }
    return out.status();
  }

  OperatorStats stats;
  stats.op = node.op;
  stats.detail = NodeDetail(node);
  stats.rows_in = rows_in;
  stats.rows_out = out->rows;
  stats.est_card = node.est_card;
  stats.true_card = node.true_card;
  stats.seconds = op_seconds;
  ctx.operators->push_back(stats);

  if (ctx.tracer != nullptr) {
    ctx.tracer->Annotate(span, "rows_in", std::to_string(rows_in));
    ctx.tracer->Annotate(span, "rows_out", std::to_string(out->rows));
    ctx.tracer->EndSpan(span, Now() - ctx.start_time);
  }
  return out;
}

}  // namespace

RealExecutor::RealExecutor(const TableStore* store, RealExecOptions options)
    : store_(store), options_(options) {}

common::Result<ExecResult> RealExecutor::Execute(
    const PlanNode& plan, telemetry::Tracer* tracer,
    telemetry::SpanId parent) const {
  ExecResult result;
  ExecContext ctx;
  ctx.store = store_;
  ctx.pool =
      options_.pool != nullptr ? options_.pool : &common::ThreadPool::Global();
  ctx.tracer = tracer;
  ctx.start_time = Now();
  ctx.operators = &result.operators;
  auto view = Exec(plan, ctx, parent);
  if (!view.ok()) return view.status();
  result.table = Materialize(*view, *ctx.pool);
  result.total_seconds = Now() - ctx.start_time;
  return result;
}

}  // namespace ads::engine
