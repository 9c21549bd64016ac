#include "engine/vec_ops.h"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace ads::engine {

namespace {

/// Row accessors. Each kernel is instantiated once for a column read in
/// place and once for a column read through a row index, so the identity
/// case pays no index load.
struct DirectRows {
  size_t operator()(size_t r) const { return r; }
};
struct IndexedRows {
  const uint32_t* index;
  size_t operator()(size_t r) const { return index[r]; }
};

template <typename Fn>
void WithRows(const uint32_t* index, Fn&& fn) {
  if (index == nullptr) {
    fn(DirectRows{});
  } else {
    fn(IndexedRows{index});
  }
}

/// Multiply-shift hashing: the top 64 - `shift` bits of
/// (key ^ seed) * 2^64/phi, a slot in a table of 2^(64 - shift). One
/// multiply per key; the product's top bits depend on every key bit. The
/// seed picks slots only: join chains and group ids keep a defined order
/// whatever it is.
size_t HashSlot(int64_t key, uint64_t seed, unsigned shift) {
  return static_cast<size_t>(
      ((static_cast<uint64_t>(key) ^ seed) * 0x9E3779B97F4A7C15ull) >> shift);
}

/// The shift that makes HashSlot address a power-of-two table of `slots`.
unsigned ShiftFor(size_t slots) {
  return 64 - static_cast<unsigned>(std::countr_zero(slots));
}

/// The int64 values v for which cmp(double(v), literal) holds: an
/// inclusive range, since int64 -> double is monotone. A value is inside
/// when uint64(v) - lo <= span (unsigned wraparound: one compare).
struct I64Range {
  bool empty = false;
  uint64_t lo = 0;
  uint64_t span = 0;
};

/// Order-preserving map from [0, 2^64) onto int64, so bisection runs over
/// unsigned integers and never overflows.
int64_t FromBiased(uint64_t u) {
  return static_cast<int64_t>(u ^ (uint64_t{1} << 63));
}

/// Smallest biased u with holds(double(FromBiased(u))), for a test that
/// is false below some point and true from it on; false if it never
/// holds.
template <typename Holds>
bool FirstHolding(Holds holds, uint64_t* first) {
  auto at = [&](uint64_t u) {
    return holds(static_cast<double>(FromBiased(u)));
  };
  if (!at(UINT64_MAX)) return false;
  uint64_t lo = 0;
  uint64_t hi = at(lo) ? lo : UINT64_MAX;
  while (hi - lo > 1) {  // !at(lo) && at(hi)
    const uint64_t mid = lo + (hi - lo) / 2;
    (at(mid) ? hi : lo) = mid;
  }
  *first = hi;
  return true;
}

/// Bisects int64 with the predicate's own double comparisons: cmp holds
/// from the first value where `floor` holds to the last one before
/// `past_ceiling` does (== bounds both ends, < and <= only the top, > and
/// >= only the bottom). The range thus selects exactly where
/// cmp(double(v), literal) holds, for every value and literal; under a
/// NaN literal it is empty.
I64Range RangeOf(CompareOp op, double literal) {
  auto floor = [&](double x) {
    if (op == CompareOp::kGreater) return x > literal;
    if (op == CompareOp::kLess || op == CompareOp::kLessEqual) return true;
    return x >= literal;
  };
  auto past_ceiling = [&](double x) {
    if (op == CompareOp::kLess) return !(x < literal);
    if (op == CompareOp::kGreater || op == CompareOp::kGreaterEqual) {
      return false;
    }
    return !(x <= literal);
  };
  uint64_t first = 0;  // biased
  uint64_t past = 0;
  const bool floored = FirstHolding(floor, &first);
  const bool ceiled = FirstHolding(past_ceiling, &past);
  I64Range range;
  range.empty = !floored || (ceiled && past <= first);
  range.lo = static_cast<uint64_t>(FromBiased(first));
  range.span = (ceiled ? past - 1 : UINT64_MAX) - first;
  return range;
}

/// Calls kernel(values, row, test) with the predicate column's typed
/// values, its row accessor and `test` on one value: an integer range
/// test for i64, the comparison itself for f64. One instantiation per
/// (type, accessor, f64 op), so the row loops carry no dispatch.
template <typename Kernel>
void WithTest(const ColumnPredicate& pred, const I64Range& range,
              Kernel&& kernel) {
  WithRows(pred.col.index, [&](auto row) {
    if (pred.col.column->type() == ColumnType::kI64) {
      const uint64_t lo = range.lo;
      const uint64_t span = range.span;
      return kernel(pred.col.column->i64_data(), row, [=](int64_t v) {
        return static_cast<uint64_t>(v) - lo <= span;
      });
    }
    const double* values = pred.col.column->f64_data();
    const double lit = pred.literal;
    switch (pred.op) {
      case CompareOp::kLess:
        return kernel(values, row, [=](double v) { return v < lit; });
      case CompareOp::kLessEqual:
        return kernel(values, row, [=](double v) { return v <= lit; });
      case CompareOp::kEqual:
        return kernel(values, row, [=](double v) { return v == lit; });
      case CompareOp::kGreater:
        return kernel(values, row, [=](double v) { return v > lit; });
      case CompareOp::kGreaterEqual:
        return kernel(values, row, [=](double v) { return v >= lit; });
    }
  });
}

/// Writes the rows of [lo, hi) passing `pred` to out, branch-free: every
/// row is stored, and the cursor advances only past the passing ones.
/// This loop and RefineMorsel's are unrolled: rolled, their speed moved by
/// up to 17% with nothing but where the linker placed them.
size_t SelectMorsel(const ColumnPredicate& pred, const I64Range& range,
                    size_t lo, size_t hi, uint32_t* out) {
  size_t n = 0;
  WithTest(pred, range, [&](const auto* values, auto row, auto test) {
#pragma GCC unroll 4
    for (size_t r = lo; r < hi; ++r) {
      out[n] = static_cast<uint32_t>(r);
      n += test(values[row(r)]);
    }
  });
  return n;
}

/// Keeps the rows of sel[0, n) passing `pred`, in place, branch-free.
size_t RefineMorsel(const ColumnPredicate& pred, const I64Range& range,
                    uint32_t* sel, size_t n) {
  size_t kept = 0;
  WithTest(pred, range, [&](const auto* values, auto row, auto test) {
#pragma GCC unroll 4
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = sel[i];
      sel[kept] = r;
      kept += test(values[row(r)]);
    }
  });
  return kept;
}

/// Copies each morsel's buffer in morsel order into `out`, sized exactly.
void Concatenate(const std::vector<common::AlignedBuffer<uint32_t>>& parts,
                 common::AlignedBuffer<uint32_t>* out) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out->clear();
  out->EnsureCapacity(total);
  uint32_t* at = out->data();
  for (const auto& part : parts) at = std::copy(part.begin(), part.end(), at);
}

template <typename T>
void GatherTyped(const T* src, const uint32_t* index, size_t n,
                 common::ThreadPool& pool, T* dst) {
  if (index == nullptr) {
    std::copy(src, src + n, dst);
    return;
  }
  common::parallel_for(pool, 0, n, kGatherGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) dst[i] = src[index[i]];
  });
}

/// fn(group, value) for each of the `rows` input rows, in row order.
template <typename T, typename Fn>
void ForEachGroupedValue(const T* values, const uint32_t* index, size_t rows,
                         const uint32_t* group_of_row, Fn&& fn) {
  WithRows(index, [&](auto row) {
    for (size_t r = 0; r < rows; ++r) fn(group_of_row[r], values[row(r)]);
  });
}

/// Calls fn(values) with the column's typed values.
template <typename Fn>
void WithValues(const ColumnRef& in, Fn&& fn) {
  if (in.column->type() == ColumnType::kI64) {
    fn(in.column->i64_data());
  } else {
    fn(in.column->f64_data());
  }
}

template <typename T>
void Put(Column* c, size_t row, T value) {
  if constexpr (std::is_same_v<T, int64_t>) {
    c->I64At(row) = value;
  } else {
    c->F64At(row) = value;
  }
}

/// Per-group sums into `sums` (T's type, one row per group). i64 sums
/// accumulate unsigned: overflow-adjacent data wraps mod 2^64 (defined,
/// and congruent to the signed sum) instead of UB. f64 sums accumulate in
/// row order: the defined, bit-reproducible semantics.
template <typename T>
void SumTyped(const T* values, const uint32_t* index, size_t rows,
              const uint32_t* group_of_row, Column* sums) {
  using Sum = std::conditional_t<std::is_same_v<T, int64_t>, uint64_t, T>;
  std::vector<Sum> acc(sums->size(), Sum{0});
  ForEachGroupedValue(values, index, rows, group_of_row,
                      [&](uint32_t g, T v) { acc[g] += static_cast<Sum>(v); });
  for (size_t g = 0; g < acc.size(); ++g) {
    Put<T>(sums, g, static_cast<T>(acc[g]));
  }
}

/// Per-group MIN (or MAX) into `result`; 0 for a group without rows.
template <typename T>
void ExtremeTyped(bool is_min, const T* values, const uint32_t* index,
                  size_t rows, const uint32_t* group_of_row, Column* result) {
  std::vector<T> best(result->size(), T{0});
  std::vector<uint8_t> seen(result->size(), 0);
  ForEachGroupedValue(values, index, rows, group_of_row, [&](uint32_t g, T v) {
    if (!seen[g] || (is_min ? v < best[g] : v > best[g])) {
      best[g] = v;
      seen[g] = 1;
    }
  });
  for (size_t g = 0; g < best.size(); ++g) Put<T>(result, g, best[g]);
}

/// A group slot: its key beside its id (-1 marks an empty slot), so a
/// lookup reads one slot.
struct GroupSlot {
  int64_t key = 0;
  int32_t group = -1;
};

/// Numbers the `rows` values of one i64 key column, read through `row`,
/// with dense group ids in first-seen order: group_of_row[r] is row r's
/// id, representative gets each group's first row, group_rows its row
/// count. Open addressing with linear probing, at most a quarter full: the
/// table starts at 64 slots and doubles as groups arrive. Ids are handed
/// out in first-seen order, whatever slot a key hashes to.
template <typename Row>
void NumberGroups(const int64_t* values, Row row, size_t rows, uint64_t seed,
                  uint32_t* group_of_row,
                  common::AlignedBuffer<uint32_t>* representative,
                  std::vector<int64_t>* group_rows) {
  representative->clear();
  group_rows->clear();
  std::vector<GroupSlot> slots(64);
  unsigned shift = ShiftFor(slots.size());
  size_t mask = slots.size() - 1;
  for (size_t r = 0; r < rows; ++r) {
    const int64_t key = values[row(r)];
    size_t s = HashSlot(key, seed, shift);
    while (slots[s].group >= 0 && slots[s].key != key) s = (s + 1) & mask;
    if (slots[s].group >= 0) {
      const auto g = static_cast<uint32_t>(slots[s].group);
      group_of_row[r] = g;
      ++(*group_rows)[g];
      continue;
    }
    const auto g = static_cast<uint32_t>(group_rows->size());
    slots[s] = GroupSlot{key, static_cast<int32_t>(g)};
    group_of_row[r] = g;
    representative->push_back(static_cast<uint32_t>(r));
    group_rows->push_back(1);
    if (4 * group_rows->size() > slots.size()) {
      std::vector<GroupSlot> grown(2 * slots.size());
      shift = ShiftFor(grown.size());
      mask = grown.size() - 1;
      for (const GroupSlot& slot : slots) {
        if (slot.group < 0) continue;
        size_t at = HashSlot(slot.key, seed, shift);
        while (grown[at].group >= 0) at = (at + 1) & mask;
        grown[at] = slot;
      }
      slots = std::move(grown);
    }
  }
}

}  // namespace

size_t SelectRows(const std::vector<ColumnPredicate>& preds, size_t rows,
                  common::ThreadPool& pool,
                  common::AlignedBuffer<uint32_t>* sel) {
  ADS_CHECK(!preds.empty()) << "a selection needs a predicate";
  std::vector<I64Range> ranges(preds.size());
  for (size_t p = 0; p < preds.size(); ++p) {
    if (preds[p].col.column->type() != ColumnType::kI64) continue;
    ranges[p] = RangeOf(preds[p].op, preds[p].literal);
    if (ranges[p].empty) rows = 0;  // no int64 value can pass
  }
  std::vector<common::AlignedBuffer<uint32_t>> morsels(
      (rows + kMorselRows - 1) / kMorselRows);
  common::parallel_for(pool, 0, rows, kMorselRows, [&](size_t lo, size_t hi) {
    uint32_t local[kMorselRows];
    size_t n = SelectMorsel(preds[0], ranges[0], lo, hi, local);
    for (size_t p = 1; p < preds.size() && n > 0; ++p) {
      n = RefineMorsel(preds[p], ranges[p], local, n);
    }
    common::AlignedBuffer<uint32_t>& out = morsels[lo / kMorselRows];
    out.EnsureCapacity(n);
    std::copy(local, local + n, out.data());
  });
  Concatenate(morsels, sel);
  return sel->size();
}

void ComposeIndex(const uint32_t* outer, const uint32_t* sel, size_t n,
                  common::ThreadPool& pool,
                  common::AlignedBuffer<uint32_t>* out) {
  out->clear();
  out->EnsureCapacity(n);
  GatherTyped(outer, sel, n, pool, out->data());
}

void GatherColumn(const ColumnRef& src, size_t n, common::ThreadPool& pool,
                  Column* out, size_t at) {
  ADS_CHECK(out->type() == src.column->type() && out->size() >= at + n)
      << "gather target " << out->name() << " cannot take " << n
      << " rows at " << at;
  if (src.column->type() == ColumnType::kI64) {
    GatherTyped(src.column->i64_data(), src.index, n, pool,
                out->i64_data() + at);
  } else {
    GatherTyped(src.column->f64_data(), src.index, n, pool,
                out->f64_data() + at);
  }
}

void JoinHashTable::Build(const ColumnRef& keys, size_t rows, uint64_t seed) {
  ADS_CHECK(keys.column->type() == ColumnType::kI64)
      << "join keys must be i64: " << keys.column->name();
  seed_ = seed;
  keys_.clear();
  keys_.EnsureCapacity(rows);
  const int64_t* v = keys.column->i64_data();
  WithRows(keys.index, [&](auto row) {
    for (size_t i = 0; i < rows; ++i) keys_[i] = v[row(i)];
  });
  // Four to eight buckets per build row leave at most about a fifth of
  // them occupied, so few probe rows without a match pass the probe's
  // bucket pass.
  const size_t buckets = std::bit_ceil(std::max<size_t>(16, 4 * rows));
  shift_ = ShiftFor(buckets);
  heads_.clear();
  heads_.EnsureCapacity(buckets);
  std::fill(heads_.begin(), heads_.end(), -1);
  next_.clear();
  next_.EnsureCapacity(rows);
  // Insert back to front with push-front chaining, so every chain lists
  // build rows in ascending order — the probe then emits matches in the
  // same order a front-to-back nested loop would.
  for (size_t i = rows; i-- > 0;) {
    const size_t bucket = HashSlot(keys_[i], seed_, shift_);
    next_[i] = heads_[bucket];
    heads_[bucket] = static_cast<int32_t>(i);
  }
}

void JoinHashTable::Probe(const ColumnRef& probe_keys, size_t rows,
                          common::ThreadPool& pool,
                          common::AlignedBuffer<uint32_t>* probe_idx,
                          common::AlignedBuffer<uint32_t>* build_idx) const {
  ADS_CHECK(probe_keys.column->type() == ColumnType::kI64)
      << "join keys must be i64: " << probe_keys.column->name();
  const int64_t* probe = probe_keys.column->i64_data();
  if (keys_.empty()) rows = 0;
  const size_t num_morsels = (rows + kMorselRows - 1) / kMorselRows;
  std::vector<common::AlignedBuffer<uint32_t>> probe_parts(num_morsels);
  std::vector<common::AlignedBuffer<uint32_t>> build_parts(num_morsels);
  WithRows(probe_keys.index, [&](auto row) {
    common::parallel_for(
        pool, 0, rows, kMorselRows, [&](size_t lo, size_t hi) {
          // Bucket pass, branch-free: every row is stored with its
          // bucket's chain head, and the cursor advances only past rows
          // whose bucket is occupied.
          uint32_t cand_row[kMorselRows];
          int32_t cand_head[kMorselRows];
          size_t n = 0;
          for (size_t i = lo; i < hi; ++i) {
            const int32_t head =
                heads_[HashSlot(probe[row(i)], seed_, shift_)];
            cand_row[n] = static_cast<uint32_t>(i);
            cand_head[n] = head;
            n += head >= 0;
          }
          // Chain pass: only the candidates walk their chains, in row
          // order, so pairs stay probe-major and build-ascending. Each
          // chain entry is written as a pair and the cursor advances only
          // past matching ones, branch-free; the buffers double when full.
          common::AlignedBuffer<uint32_t>& out_probe =
              probe_parts[lo / kMorselRows];
          common::AlignedBuffer<uint32_t>& out_build =
              build_parts[lo / kMorselRows];
          size_t m = 0;
          for (size_t c = 0; c < n; ++c) {
            const uint32_t i = cand_row[c];
            const int64_t key = probe[row(i)];
            for (int32_t e = cand_head[c]; e >= 0;
                 e = next_[static_cast<size_t>(e)]) {
              if (m == out_probe.size()) {
                out_probe.resize(std::max<size_t>(16, 2 * m));
                out_build.resize(out_probe.size());
              }
              out_probe[m] = i;
              out_build[m] = static_cast<uint32_t>(e);
              m += keys_[static_cast<size_t>(e)] == key;
            }
          }
          out_probe.resize(m);
          out_build.resize(m);
        });
  });
  Concatenate(probe_parts, probe_idx);
  Concatenate(build_parts, build_idx);
}

void GroupIndex::Build(const std::vector<ColumnRef>& keys, size_t rows,
                       uint64_t seed) {
  group_of_row_.clear();
  group_of_row_.EnsureCapacity(rows);
  representative_row_.clear();
  group_rows_.clear();
  if (keys.empty()) {
    std::fill(group_of_row_.begin(), group_of_row_.end(), 0u);
    if (rows > 0) {
      representative_row_.push_back(0);
      group_rows_.push_back(static_cast<int64_t>(rows));
    }
    return;
  }
  for (const ColumnRef& key : keys) {
    ADS_CHECK(key.column->type() == ColumnType::kI64)
        << "group keys must be i64: " << key.column->name();
  }
  auto number = [&](const int64_t* values, const uint32_t* index) {
    WithRows(index, [&](auto row) {
      NumberGroups(values, row, rows, seed, group_of_row_.data(),
                   &representative_row_, &group_rows_);
    });
  };
  number(keys[0].column->i64_data(), keys[0].index);
  if (keys.size() == 1) return;
  // Fold each further key in: its own ids, packed below the ids so far.
  GroupIndex key_groups;
  common::AlignedBuffer<int64_t> packed(rows);
  for (size_t k = 1; k < keys.size(); ++k) {
    key_groups.Build({keys[k]}, rows, seed);
    for (size_t r = 0; r < rows; ++r) {
      packed[r] = static_cast<int64_t>((uint64_t{group_of_row_[r]} << 32) |
                                       key_groups.group_of_row()[r]);
    }
    number(packed.data(), nullptr);
  }
}

std::vector<Column> AggregateByGroup(const std::vector<GroupedAgg>& aggs,
                                     size_t rows,
                                     const uint32_t* group_of_row,
                                     const std::vector<int64_t>& group_rows) {
  const size_t groups = group_rows.size();
  // Each distinct SUM/AVG input's per-group sums, in the input's type,
  // summed the first time an aggregate asks for them.
  std::vector<std::pair<ColumnRef, Column>> sums;
  auto sum_of = [&](const ColumnRef& in) -> const Column& {
    for (const auto& [ref, sum] : sums) {
      if (ref.column == in.column && ref.index == in.index) return sum;
    }
    Column& sum = sums.emplace_back(in, Column("", in.column->type())).second;
    sum.Resize(groups);
    WithValues(in, [&](const auto* values) {
      SumTyped(values, in.index, rows, group_of_row, &sum);
    });
    return sum;
  };
  std::vector<Column> results;
  for (const GroupedAgg& agg : aggs) {
    switch (agg.fn) {
      case AggFn::kCount: {
        Column& count = results.emplace_back("", ColumnType::kI64);
        count.Resize(groups);
        std::copy(group_rows.begin(), group_rows.end(), count.i64_data());
        break;
      }
      case AggFn::kSum:
        results.push_back(sum_of(agg.in));
        break;
      case AggFn::kAvg: {
        const Column& sum = sum_of(agg.in);
        Column& avg = results.emplace_back("", ColumnType::kF64);
        avg.Resize(groups);
        for (size_t g = 0; g < groups; ++g) {
          avg.F64At(g) = group_rows[g] == 0
                             ? 0.0
                             : sum.AsDouble(g) /
                                   static_cast<double>(group_rows[g]);
        }
        break;
      }
      case AggFn::kMin:
      case AggFn::kMax: {
        Column& best = results.emplace_back("", agg.in.column->type());
        best.Resize(groups);
        WithValues(agg.in, [&](const auto* values) {
          ExtremeTyped(agg.fn == AggFn::kMin, values, agg.in.index, rows,
                       group_of_row, &best);
        });
        break;
      }
    }
  }
  return results;
}

}  // namespace ads::engine
