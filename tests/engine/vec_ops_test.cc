// Kernel-level tests for the vectorized primitives: morsel selections
// (ragged tails, conjunctions, the i64 range compare), row-index
// composition, gathers, join hash table chain order and morsel
// concatenation, group-index first-seen numbering and per-group
// aggregates — each checked on both the Serial (inline) and the Global
// pool, since serial/parallel bit-identity is the property everything
// above relies on, and each read both in place and through a row index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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

std::vector<uint32_t> Select(const std::vector<ColumnPredicate>& preds,
                             size_t rows, common::ThreadPool& pool) {
  common::AlignedBuffer<uint32_t> sel;
  const size_t n = SelectRows(preds, rows, pool, &sel);
  EXPECT_EQ(n, sel.size());
  return std::vector<uint32_t>(sel.begin(), sel.end());
}

bool Compare(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kLess:
      return a < b;
    case CompareOp::kLessEqual:
      return a <= b;
    case CompareOp::kEqual:
      return a == b;
    case CompareOp::kGreater:
      return a > b;
    case CompareOp::kGreaterEqual:
      return a >= b;
  }
  return false;
}

constexpr CompareOp kAllOps[] = {CompareOp::kLess, CompareOp::kLessEqual,
                                 CompareOp::kEqual, CompareOp::kGreater,
                                 CompareOp::kGreaterEqual};

TEST(VecOpsTest, SelectRowsMatchesScalarOnBothPools) {
  // Cross morsel boundaries: two morsels plus a ragged tail.
  const size_t rows = 2 * kMorselRows + 100;
  Column c = Column::I64("v");
  std::vector<uint32_t> want;
  for (size_t r = 0; r < rows; ++r) {
    c.AppendI64(static_cast<int64_t>(r % 97));
    if (r % 97 < 40) want.push_back(static_cast<uint32_t>(r));
  }
  const std::vector<ColumnPredicate> less = {
      {ColumnRef{&c}, CompareOp::kLess, 40.0}};
  EXPECT_EQ(Select(less, rows, common::ThreadPool::Serial()), want);
  EXPECT_EQ(Select(less, rows, common::ThreadPool::Global()), want);
}

TEST(VecOpsTest, SelectRowsReadsThroughRowIndex) {
  // Row r of the relation is column row index[r]: here the column read
  // backwards, over more than one morsel.
  const size_t rows = kMorselRows + 70;
  Column c = Column::F64("v");
  common::AlignedBuffer<uint32_t> index;
  std::vector<uint32_t> want;
  for (size_t r = 0; r < rows; ++r) {
    c.AppendF64(static_cast<double>(r % 13));
    index.push_back(static_cast<uint32_t>(rows - 1 - r));
    if ((rows - 1 - r) % 13 == 5) want.push_back(static_cast<uint32_t>(r));
  }
  for (common::ThreadPool* pool :
       {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
    EXPECT_EQ(Select({{ColumnRef{&c, index.data()}, CompareOp::kEqual, 5.0}},
                     rows, *pool),
              want);
  }
}

TEST(VecOpsTest, SelectRowsConjunctionIsIntersectionOfItsPredicates) {
  // A conjunction selects exactly the rows every one of its predicates
  // selects alone, in ascending order, whether the first predicate left a
  // morsel dense, sparse or empty, ragged tail included, on both pools
  // and read in place or through an index.
  const size_t rows = 3 * kMorselRows + 37;
  Column a = Column::I64("a");
  Column b = Column::F64("b");
  common::AlignedBuffer<uint32_t> index;
  for (size_t r = 0; r < rows; ++r) {
    // Dense in the first morsel, sparse in the second, none below 8 in
    // the third.
    a.AppendI64(r < kMorselRows       ? static_cast<int64_t>(r % 10)
                : r < 2 * kMorselRows ? static_cast<int64_t>(r % 97)
                                      : 50);
    b.AppendF64(static_cast<double>((r * 7) % 31));
    index.push_back(static_cast<uint32_t>((r * 5) % rows));  // 5 ∤ rows
  }
  for (const uint32_t* idx : {static_cast<const uint32_t*>(nullptr),
                              static_cast<const uint32_t*>(index.data())}) {
    for (common::ThreadPool* pool :
         {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
      const ColumnPredicate first{ColumnRef{&a, idx}, CompareOp::kLess, 8.0};
      const ColumnPredicate second{ColumnRef{&b, idx},
                                   CompareOp::kGreaterEqual, 12.0};
      const ColumnPredicate third{ColumnRef{&a, idx}, CompareOp::kGreater,
                                  0.5};
      const std::vector<uint32_t> s1 = Select({first}, rows, *pool);
      const std::vector<uint32_t> s2 = Select({second}, rows, *pool);
      const std::vector<uint32_t> s3 = Select({third}, rows, *pool);
      std::vector<uint32_t> s12;
      std::set_intersection(s1.begin(), s1.end(), s2.begin(), s2.end(),
                            std::back_inserter(s12));
      std::vector<uint32_t> want;
      std::set_intersection(s12.begin(), s12.end(), s3.begin(), s3.end(),
                            std::back_inserter(want));
      ASSERT_FALSE(want.empty());
      for (const auto* s : {&s1, &s2, &s3}) {
        EXPECT_TRUE(std::is_sorted(s->begin(), s->end()));
        EXPECT_EQ(std::adjacent_find(s->begin(), s->end()), s->end());
        EXPECT_TRUE(s->empty() || s->back() < rows);
      }
      EXPECT_EQ(Select({first, second, third}, rows, *pool), want);
      EXPECT_EQ(Select({third, second, first}, rows, *pool), want);
    }
  }
}

TEST(VecOpsTest, SelectRowsI64RangeMatchesDoubleCompare) {
  // The i64 path compares integers against a precomputed int64 range; the
  // rows it selects must be exactly those where the double comparison
  // holds, at the edges of double precision and of int64, for NaN and
  // infinite literals, and for literals no int64 equals. Truncating the
  // literal to an integer fails here (2.5, 2^53 + 1 == 2^53, 2^63).
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t k53 = int64_t{1} << 53;
  const std::vector<int64_t> values = {
      kMin, -k53 - 1, -k53, -1, 0, 2, 3, k53 - 1, k53, k53 + 1,
      int64_t{1} << 62, kMax};
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> literals = {
      std::numeric_limits<double>::quiet_NaN(), inf, -inf, 0.0, -0.0, 2.0,
      2.5, -2.5, std::ldexp(1.0, 53), std::ldexp(1.0, 63),
      -std::ldexp(1.0, 63)};

  // One morsel plus a ragged tail, every value on both sides of the
  // boundary; the index reads the column back to front.
  const size_t rows = kMorselRows + 2 * values.size() + 5;
  Column v = Column::I64("v");
  Column zero = Column::F64("z");
  common::AlignedBuffer<uint32_t> index;
  for (size_t r = 0; r < rows; ++r) {
    v.AppendI64(values[(r * 7) % values.size()]);
    zero.AppendF64(0.0);
    index.push_back(static_cast<uint32_t>(rows - 1 - r));
  }
  for (const uint32_t* idx : {static_cast<const uint32_t*>(nullptr),
                              static_cast<const uint32_t*>(index.data())}) {
    const ColumnRef ref{&v, idx};
    for (CompareOp op : kAllOps) {
      for (double lit : literals) {
        std::vector<uint32_t> want;
        for (size_t r = 0; r < rows; ++r) {
          if (Compare(op, static_cast<double>(ref.I64(r)), lit)) {
            want.push_back(static_cast<uint32_t>(r));
          }
        }
        const ColumnPredicate pred{ref, op, lit};
        // As the first predicate and as a later one, re-testing survivors.
        const ColumnPredicate all{ColumnRef{&zero, idx}, CompareOp::kEqual,
                                  0.0};
        for (common::ThreadPool* pool :
             {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
          ASSERT_EQ(Select({pred}, rows, *pool), want)
              << CompareOpName(op) << " " << lit;
          ASSERT_EQ(Select({all, pred}, rows, *pool), want)
              << CompareOpName(op) << " " << lit << " (refined)";
        }
      }
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

TEST(VecOpsTest, JoinHashTableProbeAcrossMorselsMatchesNestedLoop) {
  // Three morsels plus a ragged tail: the first mixes hits and misses,
  // the second has no match, the third matches a five-fold duplicated
  // build key on every row, and the tail mixes again. Pairs must equal a
  // nested loop's, in its order, on both pools and through a row index.
  std::vector<int64_t> build_keys;
  for (int64_t k = 0; k < 100; ++k) build_keys.push_back(k);
  for (int i = 0; i < 4; ++i) build_keys.push_back(7);  // 7 five times
  build_keys.push_back(42);                             // 42 twice
  Column build = I64Column("b", build_keys);
  const size_t rows = 3 * kMorselRows + 123;
  Column probe = Column::I64("p");
  common::AlignedBuffer<uint32_t> index;
  for (size_t r = 0; r < rows; ++r) {
    int64_t key = static_cast<int64_t>(r % 150);  // 100..149 miss
    if (r / kMorselRows == 1) key = 1000 + static_cast<int64_t>(r);
    if (r / kMorselRows == 2) key = 7;
    probe.AppendI64(key);
    index.push_back(static_cast<uint32_t>((r * 3) % rows));  // 3 ∤ rows
  }
  JoinHashTable ht;
  ht.Build(ColumnRef{&build}, build.size(), 0x5eed);
  for (const uint32_t* idx : {static_cast<const uint32_t*>(nullptr),
                              static_cast<const uint32_t*>(index.data())}) {
    const ColumnRef keys{&probe, idx};
    std::vector<uint32_t> want_probe;
    std::vector<uint32_t> want_build;
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = 0; j < build_keys.size(); ++j) {
        if (keys.I64(i) == build_keys[j]) {
          want_probe.push_back(static_cast<uint32_t>(i));
          want_build.push_back(static_cast<uint32_t>(j));
        }
      }
    }
    for (common::ThreadPool* pool :
         {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
      common::AlignedBuffer<uint32_t> probe_idx;
      common::AlignedBuffer<uint32_t> build_idx;
      ht.Probe(keys, rows, *pool, &probe_idx, &build_idx);
      EXPECT_EQ(std::vector<uint32_t>(probe_idx.begin(), probe_idx.end()),
                want_probe);
      EXPECT_EQ(std::vector<uint32_t>(build_idx.begin(), build_idx.end()),
                want_build);
    }
  }
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
  EXPECT_EQ(gi.group_rows(), (std::vector<int64_t>{2, 2, 1, 1}));

  // A different seed permutes slots but not the group ids.
  GroupIndex reseeded;
  reseeded.Build({ColumnRef{&k1}, ColumnRef{&k2}}, k1.size(), 0x9999);
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(reseeded.group_of_row()[r], want[r]) << "row " << r;
  }
  EXPECT_EQ(reseeded.group_rows(), gi.group_rows());
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
    EXPECT_EQ(gi.group_rows()[g], 2);
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
  std::vector<int64_t> group_rows;
  for (size_t r = 0; r < rows; ++r) {
    const std::pair<int64_t, int64_t> key{a.I64At(ia[r]), b.I64At(ib[r])};
    auto [it, fresh] = first_seen.emplace(
        key, static_cast<uint32_t>(first_seen.size()));
    if (fresh) {
      representative.push_back(static_cast<uint32_t>(r));
      group_rows.push_back(0);
    }
    ++group_rows[it->second];
    ASSERT_EQ(gi.group_of_row()[r], it->second) << "row " << r;
  }
  ASSERT_EQ(gi.num_groups(), first_seen.size());
  for (size_t g = 0; g < gi.num_groups(); ++g) {
    EXPECT_EQ(gi.representative_row()[g], representative[g]) << "group " << g;
  }
  EXPECT_EQ(gi.group_rows(), group_rows);
}

TEST(VecOpsTest, AggregateByGroupThroughRowIndex) {
  // Each aggregate over values read through a row index equals a plain
  // row-order loop; group 3 has no rows, so it reads the identities. SUM
  // and AVG of one input share a sum, while the same column through
  // another index is a different input.
  Column iv = I64Column("iv", {4, -9, 12, 7, -3, 15});
  Column fv = Column::F64("fv");
  for (double v : {0.5, -1.25, 3.0, 0.1, 2.2, -0.7}) fv.AppendF64(v);
  const std::vector<uint32_t> index = {5, 0, 3, 3, 1, 4, 2, 0};
  const std::vector<uint32_t> other = {0, 1, 2, 3, 4, 5, 0, 1};
  const std::vector<uint32_t> group_of_row = {0, 1, 0, 2, 1, 0, 2, 1};
  const std::vector<int64_t> group_rows = {3, 3, 2, 0};
  const size_t rows = index.size();
  const size_t groups = group_rows.size();

  const ColumnRef i_in{&iv, index.data()};
  const ColumnRef f_in{&fv, index.data()};
  const ColumnRef i_other{&iv, other.data()};
  const std::vector<GroupedAgg> aggs = {
      {AggFn::kAvg, i_in},  {AggFn::kCount, {}},   {AggFn::kSum, i_in},
      {AggFn::kMin, i_in},  {AggFn::kMax, i_in},   {AggFn::kSum, f_in},
      {AggFn::kAvg, f_in},  {AggFn::kSum, i_other}};
  const std::vector<Column> out =
      AggregateByGroup(aggs, rows, group_of_row.data(), group_rows);
  const std::vector<ColumnType> types = {
      ColumnType::kF64, ColumnType::kI64, ColumnType::kI64, ColumnType::kI64,
      ColumnType::kI64, ColumnType::kF64, ColumnType::kF64, ColumnType::kI64};
  ASSERT_EQ(out.size(), aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    EXPECT_EQ(out[a].type(), types[a]) << "aggregate " << a;
    ASSERT_EQ(out[a].size(), groups) << "aggregate " << a;
  }

  for (size_t g = 0; g < groups; ++g) {
    int64_t sum = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    int64_t other_sum = 0;
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
      other_sum += iv.I64At(other[r]);
    }
    const auto n = static_cast<double>(group_rows[g]);
    EXPECT_EQ(out[0].F64At(g), n == 0 ? 0.0 : static_cast<double>(sum) / n)
        << "group " << g;
    EXPECT_EQ(out[1].I64At(g), group_rows[g]) << "group " << g;
    EXPECT_EQ(out[2].I64At(g), sum) << "group " << g;
    EXPECT_EQ(out[3].I64At(g), lo) << "group " << g;
    EXPECT_EQ(out[4].I64At(g), hi) << "group " << g;
    EXPECT_EQ(out[5].F64At(g), fsum_want) << "group " << g;
    EXPECT_EQ(out[6].F64At(g), n == 0 ? 0.0 : fsum_want / n) << "group " << g;
    EXPECT_EQ(out[7].I64At(g), other_sum) << "group " << g;
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
