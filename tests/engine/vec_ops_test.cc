// Kernel-level tests for the vectorized primitives: bitmap shape and
// chunk-boundary behavior, selection expansion, row-index composition,
// gathers, join hash table chain order, group-index first-seen
// numbering and per-group aggregates — each checked on both the Serial
// (inline) and the Global pool, since serial/parallel bit-identity is the
// property everything above relies on, and each read both in place and
// through a row index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/thread_pool.h"
#include "engine/vec_ops.h"

namespace ads::engine {
namespace {

Column I64Column(const std::string& name, std::vector<int64_t> values) {
  Column c = Column::I64(name);
  for (int64_t v : values) c.AppendI64(v);
  return c;
}

TEST(VecOpsTest, PredicateBitmapMatchesScalarOnBothPools) {
  // Cross a chunk boundary: kBitmapGrain rows plus a ragged tail.
  const size_t rows = kBitmapGrain + 100;
  Column c = Column::I64("v");
  for (size_t r = 0; r < rows; ++r) {
    c.AppendI64(static_cast<int64_t>(r % 97));
  }
  common::AlignedBuffer<uint64_t> serial_bits;
  serial_bits.resize(BitmapWords(rows));
  common::AlignedBuffer<uint64_t> parallel_bits;
  parallel_bits.resize(BitmapWords(rows));
  PredicateBitmap(ColumnRef{&c}, rows, CompareOp::kLess, 40.0,
                  common::ThreadPool::Serial(), serial_bits.data());
  PredicateBitmap(ColumnRef{&c}, rows, CompareOp::kLess, 40.0,
                  common::ThreadPool::Global(), parallel_bits.data());
  for (size_t w = 0; w < serial_bits.size(); ++w) {
    EXPECT_EQ(serial_bits[w], parallel_bits[w]) << "word " << w;
  }
  for (size_t r = 0; r < rows; ++r) {
    const bool expected = (r % 97) < 40;
    const bool got = (serial_bits[r / 64] >> (r % 64)) & 1;
    ASSERT_EQ(got, expected) << "row " << r;
  }
}

TEST(VecOpsTest, PredicateBitmapReadsThroughRowIndex) {
  // Row r of the relation is column row index[r]: here the column read
  // backwards, over more than one bitmap chunk.
  const size_t rows = kBitmapGrain + 70;
  Column c = Column::F64("v");
  common::AlignedBuffer<uint32_t> index;
  for (size_t r = 0; r < rows; ++r) {
    c.AppendF64(static_cast<double>(r % 13));
    index.push_back(static_cast<uint32_t>(rows - 1 - r));
  }
  common::AlignedBuffer<uint64_t> bits;
  bits.resize(BitmapWords(rows));
  PredicateBitmap(ColumnRef{&c, index.data()}, rows, CompareOp::kEqual, 5.0,
                  common::ThreadPool::Global(), bits.data());
  for (size_t r = 0; r < rows; ++r) {
    const bool expected = ((rows - 1 - r) % 13) == 5;
    ASSERT_EQ(((bits[r / 64] >> (r % 64)) & 1) != 0, expected) << "row " << r;
  }
}

TEST(VecOpsTest, PredicateBitmapAndMatchesAndOfFullBitmaps) {
  // ANDing a predicate into a bitmap equals the AND of the two full
  // bitmaps, whether the first one left a word dense or sparse, ragged
  // tail word included, on both pools and read in place or through an
  // index.
  const size_t rows = 2 * kBitmapGrain + 37;
  Column a = Column::I64("a");
  Column b = Column::F64("b");
  common::AlignedBuffer<uint32_t> index;
  for (size_t r = 0; r < rows; ++r) {
    // Dense in the first half, sparse in the second.
    a.AppendI64(r < rows / 2 ? static_cast<int64_t>(r % 10)
                             : static_cast<int64_t>(r % 97));
    b.AppendF64(static_cast<double>((r * 7) % 31));
    index.push_back(static_cast<uint32_t>((r * 5) % rows));  // 5 ∤ rows
  }
  for (const uint32_t* idx : {static_cast<const uint32_t*>(nullptr),
                              static_cast<const uint32_t*>(index.data())}) {
    for (common::ThreadPool* pool :
         {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
      const size_t words = BitmapWords(rows);
      common::AlignedBuffer<uint64_t> first;
      common::AlignedBuffer<uint64_t> second;
      first.resize(words);
      second.resize(words);
      PredicateBitmap(ColumnRef{&a, idx}, rows, CompareOp::kLess, 8.0, *pool,
                      first.data());
      PredicateBitmap(ColumnRef{&b, idx}, rows, CompareOp::kGreaterEqual,
                      12.0, *pool, second.data());
      common::AlignedBuffer<uint64_t> refined = first;
      PredicateBitmapAnd(ColumnRef{&b, idx}, rows, CompareOp::kGreaterEqual,
                         12.0, *pool, refined.data());
      for (size_t w = 0; w < words; ++w) {
        ASSERT_EQ(refined[w], first[w] & second[w]) << "word " << w;
      }
    }
  }
}

TEST(VecOpsTest, BitmapToSelectionAscendingAndTailMasked) {
  const size_t rows = 130;  // three words, ragged tail
  common::AlignedBuffer<uint64_t> bits;
  bits.resize(BitmapWords(rows));
  for (size_t w = 0; w < bits.size(); ++w) {
    // Odd rows in the high nibbles, padding bits set too.
    bits[w] = 0xaaaaaaaaaaaaaaaaull & 0xf0f0f0f0f0f0f0f0ull;
  }
  common::AlignedBuffer<uint32_t> sel;
  const size_t n = BitmapToSelection(bits.data(), rows, &sel);
  ASSERT_GT(n, 0u);
  EXPECT_EQ(sel.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    EXPECT_LT(r, rows);
    EXPECT_EQ(r % 2, 1u);       // odd
    EXPECT_GE(r % 8, 4u);       // high nibble
    if (i > 0) {
      EXPECT_LT(sel[i - 1], r);  // ascending
    }
  }
}

TEST(VecOpsTest, ComposeIndexGathersRowIndices) {
  common::AlignedBuffer<uint32_t> outer;
  for (uint32_t v : {7u, 5u, 3u, 1u}) outer.push_back(v);
  common::AlignedBuffer<uint32_t> sel;
  for (uint32_t v : {3u, 0u, 0u}) sel.push_back(v);
  common::AlignedBuffer<uint32_t> out;
  ComposeIndex(outer.data(), sel.data(), sel.size(),
               common::ThreadPool::Global(), &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 7u);
  EXPECT_EQ(out[2], 7u);
}

TEST(VecOpsTest, GatherColumnBothTypes) {
  Column ints = I64Column("k", {10, 20, 30, 40});
  Column reals = Column::F64("x");
  for (double v : {0.1, 0.2, 0.3, 0.4}) reals.AppendF64(v);
  common::AlignedBuffer<uint32_t> sel;
  sel.push_back(3);
  sel.push_back(1);
  Column out_i = Column::I64("k");
  out_i.Resize(2);
  GatherColumn(ColumnRef{&ints, sel.data()}, sel.size(),
               common::ThreadPool::Global(), &out_i, 0);
  EXPECT_EQ(out_i.I64At(0), 40);
  EXPECT_EQ(out_i.I64At(1), 20);
  Column out_f = Column::F64("x");
  out_f.Resize(2);
  GatherColumn(ColumnRef{&reals, sel.data()}, sel.size(),
               common::ThreadPool::Serial(), &out_f, 0);
  EXPECT_EQ(out_f.F64At(0), 0.4);
  EXPECT_EQ(out_f.F64At(1), 0.2);
}

TEST(VecOpsTest, GatherColumnAppendsInPlaceAtAnOffset) {
  // The union shape: one input copied in place, the next gathered after it.
  Column a = I64Column("k", {1, 2});
  Column b = I64Column("k", {10, 20, 30});
  common::AlignedBuffer<uint32_t> sel;
  sel.push_back(2);
  sel.push_back(0);
  Column out = Column::I64("k");
  out.Resize(4);
  GatherColumn(ColumnRef{&a}, a.size(), common::ThreadPool::Global(), &out, 0);
  GatherColumn(ColumnRef{&b, sel.data()}, sel.size(),
               common::ThreadPool::Global(), &out, 2);
  const std::vector<int64_t> want = {1, 2, 30, 10};
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(out.I64At(i), want[i]);
}

TEST(VecOpsTest, JoinHashTableMatchesAscendingAndSeedStable) {
  // Duplicate build keys: 7 appears at build rows 0, 2, 4.
  Column build = I64Column("b", {7, 1, 7, 3, 7});
  Column probe = I64Column("p", {7, 5, 3, 7});
  JoinHashTable ht;
  ht.Build(ColumnRef{&build}, build.size(), 0x1234);
  common::AlignedBuffer<uint32_t> probe_idx;
  common::AlignedBuffer<uint32_t> build_idx;
  ht.Probe(ColumnRef{&probe}, probe.size(), common::ThreadPool::Global(),
           &probe_idx, &build_idx);

  const std::vector<uint32_t> want_probe = {0, 0, 0, 2, 3, 3, 3};
  const std::vector<uint32_t> want_build = {0, 2, 4, 3, 0, 2, 4};
  ASSERT_EQ(probe_idx.size(), want_probe.size());
  for (size_t i = 0; i < want_probe.size(); ++i) {
    EXPECT_EQ(probe_idx[i], want_probe[i]) << "match " << i;
    EXPECT_EQ(build_idx[i], want_build[i]) << "match " << i;
  }

  // A different seed permutes buckets but not the output order.
  JoinHashTable ht2;
  ht2.Build(ColumnRef{&build}, build.size(), 0x9999);
  common::AlignedBuffer<uint32_t> probe_idx2;
  common::AlignedBuffer<uint32_t> build_idx2;
  ht2.Probe(ColumnRef{&probe}, probe.size(), common::ThreadPool::Serial(),
            &probe_idx2, &build_idx2);
  ASSERT_EQ(probe_idx2.size(), want_probe.size());
  for (size_t i = 0; i < want_probe.size(); ++i) {
    EXPECT_EQ(probe_idx2[i], want_probe[i]);
    EXPECT_EQ(build_idx2[i], want_build[i]);
  }
}

TEST(VecOpsTest, JoinHashTableReadsKeysThroughRowIndexes) {
  // Build side read through {4, 0, 2} = keys {7, 7, 7}; probe side read
  // through {3, 1} = keys {3, 7}. Output indexes are relation rows, not
  // column rows: the caller composes them with its own indexes.
  Column build = I64Column("b", {7, 1, 7, 3, 7});
  Column probe = I64Column("p", {7, 7, 5, 3});
  common::AlignedBuffer<uint32_t> build_rows;
  for (uint32_t r : {4u, 0u, 2u}) build_rows.push_back(r);
  common::AlignedBuffer<uint32_t> probe_rows;
  for (uint32_t r : {3u, 1u}) probe_rows.push_back(r);
  JoinHashTable ht;
  ht.Build(ColumnRef{&build, build_rows.data()}, build_rows.size(), 5);
  common::AlignedBuffer<uint32_t> probe_idx;
  common::AlignedBuffer<uint32_t> build_idx;
  ht.Probe(ColumnRef{&probe, probe_rows.data()}, probe_rows.size(),
           common::ThreadPool::Global(), &probe_idx, &build_idx);
  const std::vector<uint32_t> want_probe = {1, 1, 1};
  const std::vector<uint32_t> want_build = {0, 1, 2};
  ASSERT_EQ(probe_idx.size(), want_probe.size());
  for (size_t i = 0; i < want_probe.size(); ++i) {
    EXPECT_EQ(probe_idx[i], want_probe[i]) << "match " << i;
    EXPECT_EQ(build_idx[i], want_build[i]) << "match " << i;
  }
}

TEST(VecOpsTest, JoinHashTableEmptySides) {
  Column empty = Column::I64("b");
  Column probe = I64Column("p", {1, 2});
  JoinHashTable ht;
  ht.Build(ColumnRef{&empty}, empty.size(), 1);
  common::AlignedBuffer<uint32_t> probe_idx;
  common::AlignedBuffer<uint32_t> build_idx;
  ht.Probe(ColumnRef{&probe}, probe.size(), common::ThreadPool::Global(),
           &probe_idx, &build_idx);
  EXPECT_EQ(probe_idx.size(), 0u);
  EXPECT_EQ(build_idx.size(), 0u);

  JoinHashTable ht2;
  ht2.Build(ColumnRef{&probe}, probe.size(), 1);
  Column no_probe = Column::I64("p2");
  ht2.Probe(ColumnRef{&no_probe}, no_probe.size(),
            common::ThreadPool::Global(), &probe_idx, &build_idx);
  EXPECT_EQ(probe_idx.size(), 0u);
}

TEST(VecOpsTest, GroupIndexFirstSeenOrder) {
  Column k1 = I64Column("a", {5, 5, 9, 5, 9, 2});
  Column k2 = I64Column("b", {1, 1, 1, 2, 1, 1});
  GroupIndex gi;
  gi.Build({ColumnRef{&k1}, ColumnRef{&k2}}, k1.size(), 0xabcdef);
  // Groups in first-seen order: (5,1)=0, (9,1)=1, (5,2)=2, (2,1)=3.
  EXPECT_EQ(gi.num_groups(), 4u);
  const auto& g = gi.group_of_row();
  const std::vector<uint32_t> want = {0, 0, 1, 2, 1, 3};
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(g[r], want[r]) << "row " << r;
  }
  EXPECT_EQ(gi.representative_row()[0], 0u);
  EXPECT_EQ(gi.representative_row()[1], 2u);
  EXPECT_EQ(gi.representative_row()[2], 3u);
  EXPECT_EQ(gi.representative_row()[3], 5u);
}

TEST(VecOpsTest, GroupIndexManyGroupsThroughRowIndexInFirstSeenOrder) {
  // A thousand groups, keys read through a row index that visits the
  // column back to front with every row twice.
  Column k = Column::I64("k");
  const int64_t distinct = 1000;
  for (int64_t v = 0; v < distinct; ++v) k.AppendI64(v * 7919 % 10007);
  common::AlignedBuffer<uint32_t> index;
  for (int64_t r = distinct - 1; r >= 0; --r) {
    index.push_back(static_cast<uint32_t>(r));
    index.push_back(static_cast<uint32_t>(r));
  }
  GroupIndex gi;
  gi.Build({ColumnRef{&k, index.data()}}, index.size(), 42);
  ASSERT_EQ(gi.num_groups(), static_cast<size_t>(distinct));
  for (size_t r = 0; r < index.size(); ++r) {
    ASSERT_EQ(gi.group_of_row()[r], r / 2) << "row " << r;
  }
  for (size_t g = 0; g < gi.num_groups(); ++g) {
    EXPECT_EQ(gi.representative_row()[g], 2 * g);
  }
}

TEST(VecOpsTest, GroupIndexTwoKeysThroughRowIndexesMatchesFirstSeenMap) {
  // Two keys, each read through its own row index (as after a join, one
  // per input side), with duplicates on both: ids must follow the first
  // time each (a, b) pair is seen.
  Column a = Column::I64("a");
  Column b = Column::I64("b");
  for (int64_t v = 0; v < 500; ++v) a.AppendI64(v % 7);
  for (int64_t v = 0; v < 300; ++v) b.AppendI64((v * v) % 5);
  const size_t rows = 1000;
  common::AlignedBuffer<uint32_t> ia;
  common::AlignedBuffer<uint32_t> ib;
  for (size_t r = 0; r < rows; ++r) {
    ia.push_back(static_cast<uint32_t>((r * 3) % 500));
    ib.push_back(static_cast<uint32_t>((rows - 1 - r) % 300));
  }
  GroupIndex gi;
  gi.Build({ColumnRef{&a, ia.data()}, ColumnRef{&b, ib.data()}}, rows, 7);

  std::map<std::pair<int64_t, int64_t>, uint32_t> first_seen;
  std::vector<uint32_t> representative;
  for (size_t r = 0; r < rows; ++r) {
    const std::pair<int64_t, int64_t> key{a.I64At(ia[r]), b.I64At(ib[r])};
    auto [it, fresh] = first_seen.emplace(
        key, static_cast<uint32_t>(first_seen.size()));
    if (fresh) representative.push_back(static_cast<uint32_t>(r));
    ASSERT_EQ(gi.group_of_row()[r], it->second) << "row " << r;
  }
  ASSERT_EQ(gi.num_groups(), first_seen.size());
  for (size_t g = 0; g < gi.num_groups(); ++g) {
    EXPECT_EQ(gi.representative_row()[g], representative[g]) << "group " << g;
  }
}

TEST(VecOpsTest, AggregateByGroupThroughRowIndex) {
  // Each aggregate over values read through a row index equals a plain
  // row-order loop; group 3 has no rows, so it reads the identities.
  Column iv = I64Column("iv", {4, -9, 12, 7, -3, 15});
  Column fv = Column::F64("fv");
  for (double v : {0.5, -1.25, 3.0, 0.1, 2.2, -0.7}) fv.AppendF64(v);
  const std::vector<uint32_t> index = {5, 0, 3, 3, 1, 4, 2, 0};
  const std::vector<uint32_t> group_of_row = {0, 1, 0, 2, 1, 0, 2, 1};
  const std::vector<int64_t> group_rows = {3, 3, 2, 0};
  const size_t rows = index.size();
  const size_t groups = group_rows.size();

  auto run = [&](AggFn fn, const Column& in, ColumnType out_type) {
    Column out("out", out_type);
    out.Resize(groups);
    AggregateByGroup(fn, ColumnRef{&in, index.data()}, rows,
                     group_of_row.data(), group_rows, &out);
    return out;
  };
  const Column count = run(AggFn::kCount, iv, ColumnType::kI64);
  const Column isum = run(AggFn::kSum, iv, ColumnType::kI64);
  const Column imin = run(AggFn::kMin, iv, ColumnType::kI64);
  const Column imax = run(AggFn::kMax, iv, ColumnType::kI64);
  const Column iavg = run(AggFn::kAvg, iv, ColumnType::kF64);
  const Column fsum = run(AggFn::kSum, fv, ColumnType::kF64);
  const Column favg = run(AggFn::kAvg, fv, ColumnType::kF64);
  for (size_t g = 0; g < groups; ++g) {
    int64_t sum = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    double fsum_want = 0.0;
    bool seen = false;
    for (size_t r = 0; r < rows; ++r) {
      if (group_of_row[r] != g) continue;
      const int64_t v = iv.I64At(index[r]);
      sum += v;
      lo = seen ? std::min(lo, v) : v;
      hi = seen ? std::max(hi, v) : v;
      seen = true;
      fsum_want += fv.F64At(index[r]);
    }
    const auto n = static_cast<double>(group_rows[g]);
    EXPECT_EQ(count.I64At(g), group_rows[g]) << "group " << g;
    EXPECT_EQ(isum.I64At(g), sum) << "group " << g;
    EXPECT_EQ(imin.I64At(g), lo) << "group " << g;
    EXPECT_EQ(imax.I64At(g), hi) << "group " << g;
    EXPECT_EQ(iavg.F64At(g), n == 0 ? 0.0 : static_cast<double>(sum) / n)
        << "group " << g;
    EXPECT_EQ(fsum.F64At(g), fsum_want) << "group " << g;
    EXPECT_EQ(favg.F64At(g), n == 0 ? 0.0 : fsum_want / n) << "group " << g;
  }
}

TEST(VecOpsTest, GroupIndexNoKeysIsOneGroup) {
  GroupIndex gi;
  gi.Build({}, 10, 1);
  EXPECT_EQ(gi.num_groups(), 1u);
  for (size_t r = 0; r < 10; ++r) EXPECT_EQ(gi.group_of_row()[r], 0u);

  GroupIndex empty;
  empty.Build({}, 0, 1);
  EXPECT_EQ(empty.num_groups(), 0u);
}

}  // namespace
}  // namespace ads::engine
