#include "engine/vec_ops.h"

#include <algorithm>
#include <type_traits>

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

/// Calls kernel(values, row, cmp) with the column's typed values, its row
/// accessor and `op` as a comparison on doubles: one instantiation per
/// (type, accessor, op), so the row loops carry no dispatch.
template <typename Kernel>
void WithPredicate(const ColumnRef& col, CompareOp op, Kernel&& kernel) {
  auto with_cmp = [&](auto cmp) {
    WithRows(col.index, [&](auto row) {
      if (col.column->type() == ColumnType::kI64) {
        kernel(col.column->i64_data(), row, cmp);
      } else {
        kernel(col.column->f64_data(), row, cmp);
      }
    });
  };
  switch (op) {
    case CompareOp::kLess:
      return with_cmp([](double a, double b) { return a < b; });
    case CompareOp::kLessEqual:
      return with_cmp([](double a, double b) { return a <= b; });
    case CompareOp::kEqual:
      return with_cmp([](double a, double b) { return a == b; });
    case CompareOp::kGreater:
      return with_cmp([](double a, double b) { return a > b; });
    case CompareOp::kGreaterEqual:
      return with_cmp([](double a, double b) { return a >= b; });
  }
}

/// One bit per row in [row0, row1): `value <cmp> literal`.
template <typename T, typename RowOf, typename Cmp>
uint64_t PredicateWord(const T* values, RowOf row, size_t row0, size_t row1,
                       double literal, Cmp cmp) {
  uint64_t word = 0;
  for (size_t r = row0; r < row1; ++r) {
    word |= static_cast<uint64_t>(
                cmp(static_cast<double>(values[row(r)]), literal))
            << (r - row0);
  }
  return word;
}

/// bits[w] = merge(bits[w], predicate word w) for every word of a bitmap
/// over `rows` rows of `col`, parallel over word-aligned chunks.
template <typename Merge>
void PredicateWords(const ColumnRef& col, size_t rows, CompareOp op,
                    double literal, common::ThreadPool& pool, uint64_t* bits,
                    Merge merge) {
  WithPredicate(col, op, [&](const auto* values, auto row, auto cmp) {
    common::parallel_for(
        pool, 0, BitmapWords(rows), kBitmapGrain / 64,
        [&](size_t w0, size_t w1) {
          for (size_t w = w0; w < w1; ++w) {
            merge(&bits[w], PredicateWord(values, row, w * 64,
                                          std::min(rows, w * 64 + 64),
                                          literal, cmp));
          }
        });
  });
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

/// Accumulator of SUM/AVG over T. i64 sums accumulate unsigned:
/// overflow-adjacent data wraps mod 2^64 (defined, and congruent to the
/// signed sum) instead of UB. f64 sums accumulate in row order: the
/// defined, bit-reproducible semantics.
template <typename T>
using SumOf =
    std::conditional_t<std::is_same_v<T, int64_t>, uint64_t, double>;

template <typename T>
void Put(Column* c, size_t row, T value) {
  if constexpr (std::is_same_v<T, int64_t>) {
    c->I64At(row) = value;
  } else {
    c->F64At(row) = value;
  }
}

template <typename T>
void AggregateTyped(AggFn fn, const T* values, const uint32_t* index,
                    size_t rows, const uint32_t* group_of_row,
                    const std::vector<int64_t>& group_rows, Column* result) {
  const size_t groups = group_rows.size();
  if (fn == AggFn::kSum || fn == AggFn::kAvg) {
    std::vector<SumOf<T>> sums(groups, SumOf<T>{0});
    ForEachGroupedValue(values, index, rows, group_of_row,
                        [&](uint32_t g, T v) {
                          sums[g] += static_cast<SumOf<T>>(v);
                        });
    for (size_t g = 0; g < groups; ++g) {
      if (fn == AggFn::kSum) {
        Put<T>(result, g, static_cast<T>(sums[g]));
      } else {
        result->F64At(g) =
            group_rows[g] == 0
                ? 0.0
                : static_cast<double>(static_cast<T>(sums[g])) /
                      static_cast<double>(group_rows[g]);
      }
    }
    return;
  }
  const bool is_min = fn == AggFn::kMin;
  std::vector<T> best(groups, T{0});
  std::vector<uint8_t> seen(groups, 0);
  ForEachGroupedValue(values, index, rows, group_of_row, [&](uint32_t g, T v) {
    if (!seen[g] || (is_min ? v < best[g] : v > best[g])) {
      best[g] = v;
      seen[g] = 1;
    }
  });
  for (size_t g = 0; g < groups; ++g) Put<T>(result, g, best[g]);
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void PredicateBitmap(const ColumnRef& col, size_t rows, CompareOp op,
                     double literal, common::ThreadPool& pool,
                     uint64_t* bits) {
  PredicateWords(col, rows, op, literal, pool, bits,
                 [](uint64_t* word, uint64_t pass) { *word = pass; });
}

void PredicateBitmapAnd(const ColumnRef& col, size_t rows, CompareOp op,
                        double literal, common::ThreadPool& pool,
                        uint64_t* bits) {
  PredicateWords(col, rows, op, literal, pool, bits,
                 [](uint64_t* word, uint64_t pass) { *word &= pass; });
}

size_t BitmapToSelection(const uint64_t* bits, size_t rows,
                         common::AlignedBuffer<uint32_t>* sel) {
  const size_t words = BitmapWords(rows);
  // Mask padding bits in the tail word: rows beyond `rows` never exist,
  // whatever a caller's AND/OR left in the high bits.
  auto word_at = [&](size_t w) {
    uint64_t word = bits[w];
    if (w == words - 1 && (rows % 64) != 0) {
      word &= (uint64_t{1} << (rows % 64)) - 1;
    }
    return word;
  };
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(word_at(w)));
  }
  sel->clear();
  sel->EnsureCapacity(count);
  uint32_t* out = sel->data();
  size_t at = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = word_at(w);
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      out[at++] = static_cast<uint32_t>(w * 64 + static_cast<size_t>(bit));
      word &= word - 1;
    }
  }
  return count;
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
  const size_t buckets = NextPow2(std::max<size_t>(16, 2 * rows));
  mask_ = buckets - 1;
  heads_.clear();
  heads_.EnsureCapacity(buckets);
  std::fill(heads_.begin(), heads_.end(), -1);
  next_.clear();
  next_.EnsureCapacity(rows);
  // Insert back to front with push-front chaining, so every chain lists
  // build rows in ascending order — the probe then emits matches in the
  // same order a front-to-back nested loop would.
  for (size_t i = rows; i-- > 0;) {
    const size_t bucket = HashJoinKey(keys_[i], seed_) & mask_;
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
  probe_idx->clear();
  build_idx->clear();
  if (rows == 0 || keys_.empty()) return;

  WithRows(probe_keys.index, [&](auto row) {
    // Pass 1: matches per fixed-grain chunk.
    const size_t num_chunks = (rows + kProbeGrain - 1) / kProbeGrain;
    std::vector<uint64_t> chunk_offset(num_chunks + 1, 0);
    common::parallel_for(
        pool, 0, rows, kProbeGrain, [&](size_t lo, size_t hi) {
          uint64_t count = 0;
          for (size_t i = lo; i < hi; ++i) {
            const int64_t key = probe[row(i)];
            for (int32_t e = heads_[HashJoinKey(key, seed_) & mask_]; e >= 0;
                 e = next_[static_cast<size_t>(e)]) {
              count += keys_[static_cast<size_t>(e)] == key;
            }
          }
          chunk_offset[lo / kProbeGrain + 1] = count;
        });

    // Inclusive prefix over chunks gives each chunk a disjoint output
    // range starting at chunk_offset[chunk].
    for (size_t c = 0; c < num_chunks; ++c) {
      chunk_offset[c + 1] += chunk_offset[c];
    }
    const auto total = static_cast<size_t>(chunk_offset[num_chunks]);
    probe_idx->EnsureCapacity(total);
    build_idx->EnsureCapacity(total);
    uint32_t* out_probe = probe_idx->data();
    uint32_t* out_build = build_idx->data();

    // Pass 2: fill.
    common::parallel_for(
        pool, 0, rows, kProbeGrain, [&](size_t lo, size_t hi) {
          auto at = static_cast<size_t>(chunk_offset[lo / kProbeGrain]);
          for (size_t i = lo; i < hi; ++i) {
            const int64_t key = probe[row(i)];
            for (int32_t e = heads_[HashJoinKey(key, seed_) & mask_]; e >= 0;
                 e = next_[static_cast<size_t>(e)]) {
              if (keys_[static_cast<size_t>(e)] == key) {
                out_probe[at] = static_cast<uint32_t>(i);
                out_build[at] = static_cast<uint32_t>(e);
                ++at;
              }
            }
          }
        });
  });
}

void GroupIndex::Build(const std::vector<ColumnRef>& keys, size_t rows,
                       uint64_t seed) {
  group_of_row_.clear();
  group_of_row_.EnsureCapacity(rows);
  representative_row_.clear();
  if (keys.empty()) {
    std::fill(group_of_row_.begin(), group_of_row_.end(), 0u);
    if (rows > 0) representative_row_.push_back(0);
    return;
  }
  for (const ColumnRef& k : keys) {
    ADS_CHECK(k.column->type() == ColumnType::kI64)
        << "group keys must be i64: " << k.column->name();
  }
  // Open-addressing table of group ids, linear probing, sized so that
  // every row could open its own group. Ids are handed out in first-seen
  // order, whatever bucket a key hashes to. Each group's key values sit in
  // one flat groups x keys array, so a probe compares the row's keys with
  // values at hand instead of reading its first row again.
  const size_t width = keys.size();
  const size_t buckets = NextPow2(std::max<size_t>(16, 2 * rows));
  const size_t mask = buckets - 1;
  std::vector<int32_t> slot_group(buckets, -1);
  std::vector<int64_t> group_keys;
  std::vector<int64_t> row_keys(width);
  int64_t* row_key = row_keys.data();
  for (size_t r = 0; r < rows; ++r) {
    uint64_t h = seed;
    for (size_t k = 0; k < width; ++k) {
      row_key[k] = keys[k].I64(r);
      h = HashJoinKey(row_key[k], h);
    }
    for (size_t slot = h & mask;; slot = (slot + 1) & mask) {
      const int32_t g = slot_group[slot];
      if (g < 0) {
        const auto group = static_cast<uint32_t>(representative_row_.size());
        slot_group[slot] = static_cast<int32_t>(group);
        representative_row_.push_back(static_cast<uint32_t>(r));
        group_keys.insert(group_keys.end(), row_key, row_key + width);
        group_of_row_[r] = group;
        break;
      }
      const int64_t* group_key =
          group_keys.data() + static_cast<size_t>(g) * width;
      size_t k = 0;
      while (k < width && group_key[k] == row_key[k]) ++k;
      if (k == width) {
        group_of_row_[r] = static_cast<uint32_t>(g);
        break;
      }
    }
  }
}

void AggregateByGroup(AggFn fn, const ColumnRef& in, size_t rows,
                      const uint32_t* group_of_row,
                      const std::vector<int64_t>& group_rows, Column* result) {
  ADS_CHECK(result->size() == group_rows.size())
      << "aggregate target " << result->name() << " needs "
      << group_rows.size() << " rows";
  if (fn == AggFn::kCount) {
    for (size_t g = 0; g < group_rows.size(); ++g) {
      result->I64At(g) = group_rows[g];
    }
  } else if (in.column->type() == ColumnType::kI64) {
    AggregateTyped(fn, in.column->i64_data(), in.index, rows, group_of_row,
                   group_rows, result);
  } else {
    AggregateTyped(fn, in.column->f64_data(), in.index, rows, group_of_row,
                   group_rows, result);
  }
}

}  // namespace ads::engine
