#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "index/brute_force_index.h"
#include "index/grid_index.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"

namespace disc {
namespace {

Relation RandomRelation(std::size_t n, std::size_t dims, std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      t[d] = Value(rng.Uniform(-10, 10));
    }
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

struct IndexCase {
  std::size_t n;
  std::size_t dims;
  double epsilon;
};

class IndexConsistencyTest : public testing::TestWithParam<IndexCase> {};

TEST_P(IndexConsistencyTest, KdTreeMatchesBruteForceRange) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 17);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  KdTree tree(r);

  Rng rng(99);
  for (int q = 0; q < 20; ++q) {
    Tuple query(c.dims);
    for (std::size_t d = 0; d < c.dims; ++d) {
      query[d] = Value(rng.Uniform(-12, 12));
    }
    std::vector<Neighbor> expected = brute.RangeQuery(query, c.epsilon);
    std::vector<Neighbor> actual = tree.RangeQuery(query, c.epsilon);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].row, expected[i].row);
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-9);
    }
  }
}

TEST_P(IndexConsistencyTest, KdTreeMatchesBruteForceKnn) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 23);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  KdTree tree(r);

  Rng rng(7);
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
    Tuple query(c.dims);
    for (std::size_t d = 0; d < c.dims; ++d) {
      query[d] = Value(rng.Uniform(-12, 12));
    }
    std::vector<Neighbor> expected = brute.KNearest(query, k);
    std::vector<Neighbor> actual = tree.KNearest(query, k);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-9)
          << "k=" << k << " i=" << i;
    }
  }
}

TEST_P(IndexConsistencyTest, GridMatchesBruteForceInLowDims) {
  IndexCase c = GetParam();
  if (c.dims > GridIndex::kMaxGridDims) GTEST_SKIP();
  Relation r = RandomRelation(c.n, c.dims, 31);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  GridIndex grid(r, c.epsilon);

  Rng rng(13);
  for (int q = 0; q < 20; ++q) {
    Tuple query(c.dims);
    for (std::size_t d = 0; d < c.dims; ++d) {
      query[d] = Value(rng.Uniform(-12, 12));
    }
    std::vector<Neighbor> expected = brute.RangeQuery(query, c.epsilon);
    std::vector<Neighbor> actual = grid.RangeQuery(query, c.epsilon);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].row, expected[i].row);
    }
  }
}

TEST_P(IndexConsistencyTest, CountWithinMatchesRangeSize) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 41);
  DistanceEvaluator ev(r.schema());
  KdTree tree(r);
  Rng rng(5);
  Tuple query(c.dims);
  for (std::size_t d = 0; d < c.dims; ++d) {
    query[d] = Value(rng.Uniform(-10, 10));
  }
  EXPECT_EQ(tree.CountWithin(query, c.epsilon),
            tree.RangeQuery(query, c.epsilon).size());
}

TEST_P(IndexConsistencyTest, CountWithinCapStopsEarly) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 43);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  Tuple query(c.dims);  // origin
  std::size_t full = brute.CountWithin(query, 50.0);
  ASSERT_GT(full, 3u);
  EXPECT_EQ(brute.CountWithin(query, 50.0, 3), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IndexConsistencyTest,
    testing::Values(IndexCase{50, 2, 2.0}, IndexCase{200, 2, 1.0},
                    IndexCase{200, 3, 3.0}, IndexCase{500, 5, 4.0},
                    IndexCase{100, 8, 6.0}, IndexCase{30, 1, 0.5}));

TEST(IndexFactory, PicksBruteForceForStrings) {
  Relation r(Schema::StringNamed({"s"}));
  r.AppendUnchecked(Tuple{Value("a")});
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev);
  EXPECT_NE(dynamic_cast<BruteForceIndex*>(index.get()), nullptr);
}

TEST(IndexFactory, PicksGridForLowDimWithHint) {
  Relation r = RandomRelation(50, 3, 1);
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev, 2.0);
  EXPECT_NE(dynamic_cast<GridIndex*>(index.get()), nullptr);
}

TEST(IndexFactory, PicksKdTreeForHighDim) {
  Relation r = RandomRelation(50, 8, 1);
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev, 2.0);
  EXPECT_NE(dynamic_cast<KdTree*>(index.get()), nullptr);
}

TEST(IndexFactory, ForceBruteForce) {
  Relation r = RandomRelation(50, 3, 1);
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev, 2.0, /*force_brute_force=*/true);
  EXPECT_NE(dynamic_cast<BruteForceIndex*>(index.get()), nullptr);
}

TEST(GridIndex, FarAwayQueryTerminatesQuickly) {
  // Regression: KNearest from a point hundreds of cells away must fall back
  // to a linear pass instead of walking an exponentially growing cell ring.
  Relation r = RandomRelation(500, 3, 77);
  DistanceEvaluator ev(r.schema());
  GridIndex grid(r, 1.0);
  BruteForceIndex brute(r, ev);
  Tuple far_query = Tuple::Numeric({4000, -4000, 4000});
  std::vector<Neighbor> got = grid.KNearest(far_query, 5);
  std::vector<Neighbor> expected = brute.KNearest(far_query, 5);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
  }
  // Range queries with huge radii likewise degrade to a scan.
  EXPECT_EQ(grid.CountWithin(far_query, 1e5), r.size());
}

/// The k nearest rows by a full scan with the scalar evaluator, sorted by
/// (distance, row): the definition GridIndex::KNearest must reproduce.
std::vector<Neighbor> SortedScan(const Relation& r, const DistanceEvaluator& ev,
                                 const Tuple& query, std::size_t k) {
  std::vector<Neighbor> all;
  for (std::size_t row = 0; row < r.size(); ++row) {
    all.push_back({row, ev.Distance(query, r[row])});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.row < b.row);
  });
  if (k < all.size()) all.resize(k);
  return all;
}

TEST(GridIndex, KNearestMatchesSortedScanBitForBit) {
  // Integer coordinates in [-8, 8] sit on cell boundaries for every cell
  // size below, include negatives, and repeat (exact distance ties, broken
  // by row). Queries: on the grid, off it, and 16+ cells away from every
  // point (the doubling-radius walk and its full-scan fallback).
  for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
    SCOPED_TRACE(testing::Message() << "norm " << static_cast<int>(norm));
    for (std::size_t dims : {2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "dims " << dims);
      Rng rng(61 + dims);
      Relation r(Schema::Numeric(dims));
      for (int i = 0; i < 120; ++i) {
        Tuple t(dims);
        for (std::size_t d = 0; d < dims; ++d) {
          t[d] = Value(static_cast<double>(rng.UniformInt(-8, 8)));
        }
        r.AppendUnchecked(std::move(t));
      }
      DistanceEvaluator ev(r.schema(), norm);
      for (double cell : {0.5, 1.0, 2.0}) {
        SCOPED_TRACE(testing::Message() << "cell " << cell);
        GridIndex grid(r, cell, norm);
        for (int q = 0; q < 15; ++q) {
          Tuple query(dims);
          for (std::size_t d = 0; d < dims; ++d) {
            double v = static_cast<double>(rng.UniformInt(-9, 9));
            if (q % 3 == 1) v += rng.Uniform(-1, 1);
            // At least 16 + 10q cells beyond the data's edge at ±8.
            if (q % 3 == 2) v = (d == 0 ? -1 : 1) * (8 + (16 + 10 * q) * cell);
            query[d] = Value(v);
          }
          for (std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{17}, r.size(), r.size() + 9}) {
            SCOPED_TRACE(testing::Message() << "query " << q << " k " << k);
            std::vector<Neighbor> got = grid.KNearest(query, k);
            std::vector<Neighbor> want = SortedScan(r, ev, query, k);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].row, want[i].row) << "rank " << i;
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].distance),
                        std::bit_cast<std::uint64_t>(want[i].distance))
                  << "rank " << i;
            }
          }
        }
      }
    }
  }
}

TEST(KdTree, EmptyRelation) {
  Relation r(Schema::Numeric(2));
  KdTree tree(r);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeQuery(Tuple::Numeric({0, 0}), 1.0).empty());
  EXPECT_TRUE(tree.KNearest(Tuple::Numeric({0, 0}), 3).empty());
  EXPECT_EQ(tree.CountWithin(Tuple::Numeric({0, 0}), 1.0), 0u);
}

TEST(KdTree, SelfQueryIncludesSelf) {
  Relation r = RandomRelation(20, 3, 3);
  KdTree tree(r);
  std::vector<Neighbor> nn = tree.KNearest(r[5], 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].row, 5u);
  EXPECT_NEAR(nn[0].distance, 0.0, 1e-12);
}

TEST(BruteForce, RangeResultsSortedByDistance) {
  Relation r = RandomRelation(100, 2, 9);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  std::vector<Neighbor> nn = brute.RangeQuery(Tuple::Numeric({0, 0}), 8.0);
  for (std::size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(nn[i - 1].distance, nn[i].distance);
  }
}

}  // namespace
}  // namespace disc
