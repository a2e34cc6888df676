#include "core/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bound_oracle.h"
#include "common/random.h"
#include "core/search_distance_cache.h"
#include "distance/columnar.h"
#include "index/brute_force_index.h"
#include "index/grid_index.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"

namespace disc {
namespace {

/// Test fixture: a dense inlier cluster around the origin plus machinery to
/// build a BoundsEngine against it.
class BoundsFixture : public testing::Test {
 protected:
  void Build(std::size_t cluster_size, DistanceConstraint constraint,
             std::uint64_t seed = 11) {
    Rng rng(seed);
    inliers_ = Relation(Schema::Numeric(2));
    for (std::size_t i = 0; i < cluster_size; ++i) {
      inliers_.AppendUnchecked(
          Tuple::Numeric({rng.Gaussian(0, 0.5), rng.Gaussian(0, 0.5)}));
    }
    constraint_ = constraint;
    evaluator_ = std::make_unique<DistanceEvaluator>(inliers_.schema());
    index_ = MakeNeighborIndex(inliers_, *evaluator_, constraint.epsilon);
    cache_ = std::make_unique<KthNeighborCache>(inliers_, *index_,
                                                constraint.eta);
    engine_ = std::make_unique<BoundsEngine>(inliers_, *evaluator_, *index_,
                                             *cache_, constraint);
  }

  /// The bounds as a search computes them, over a scalar-backed
  /// per-outlier distance cache.
  double Glb(const Tuple& outlier) const {
    SearchDistanceCache dcache(inliers_, *evaluator_, outlier);
    return engine_->GlobalLowerBound(dcache);
  }
  double Lb(const Tuple& outlier, const AttributeSet& x) const {
    SearchDistanceCache dcache(inliers_, *evaluator_, outlier);
    return engine_->LowerBoundForX(outlier, x, nullptr, &dcache);
  }
  std::optional<BoundsEngine::UpperBound> Ub(const Tuple& outlier,
                                             const AttributeSet& x) const {
    SearchDistanceCache dcache(inliers_, *evaluator_, outlier);
    return engine_->UpperBoundForX(outlier, x, nullptr, &dcache);
  }

  Relation inliers_;
  DistanceConstraint constraint_;
  std::unique_ptr<DistanceEvaluator> evaluator_;
  std::unique_ptr<NeighborIndex> index_;
  std::unique_ptr<KthNeighborCache> cache_;
  std::unique_ptr<BoundsEngine> engine_;
};

TEST_F(BoundsFixture, GlobalLowerBoundPositiveForFarOutlier) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 0});
  double lb = Glb(outlier);
  // The outlier is ~20 away from the cluster; it must move ≥ ~19 − jitter.
  EXPECT_GT(lb, 15.0);
}

TEST_F(BoundsFixture, GlobalLowerBoundZeroForNearPoint) {
  Build(40, {1.0, 5});
  Tuple near = Tuple::Numeric({0.1, 0.1});
  EXPECT_DOUBLE_EQ(Glb(near), 0.0);
}

TEST_F(BoundsFixture, LowerBoundForEmptyXMatchesGlobal) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 0});
  // Lemma 2 is the X = ∅ special case of Proposition 3.
  EXPECT_NEAR(Lb(outlier, AttributeSet()), Glb(outlier), 1e-9);
}

TEST_F(BoundsFixture, LowerBoundGrowsWithX) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 3});
  double lb_empty = Lb(outlier, AttributeSet());
  double lb_x0 = Lb(outlier, AttributeSet{0});
  // Fixing attribute 0 (the one with the big 20-unit offset) restricts the
  // candidate neighbors, so the bound cannot shrink.
  EXPECT_GE(lb_x0, lb_empty - 1e-9);
}

TEST_F(BoundsFixture, LowerBoundInfiniteWhenXLocksOutlierOut) {
  Build(40, {1.0, 5});
  // If attribute 0 (value 50) cannot be adjusted, no inlier is within ε on
  // X, so no feasible adjustment exists at all.
  Tuple outlier = Tuple::Numeric({50, 0});
  double lb = Lb(outlier, AttributeSet{0});
  EXPECT_TRUE(std::isinf(lb));
}

TEST_F(BoundsFixture, UpperBoundIsFeasible) {
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 0});
  auto ub = Ub(outlier, AttributeSet());
  ASSERT_TRUE(ub.has_value());
  // Proposition 5's construction guarantees feasibility.
  EXPECT_TRUE(engine_->IsFeasible(ub->adjusted));
}

TEST_F(BoundsFixture, UpperBoundKeepsXValues) {
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({0.2, 20});
  AttributeSet x{0};
  auto ub = Ub(outlier, x);
  ASSERT_TRUE(ub.has_value());
  EXPECT_EQ(ub->adjusted[0], outlier[0]);   // unadjusted attribute kept
  EXPECT_NE(ub->adjusted[1], outlier[1]);   // the broken attribute changed
}

TEST_F(BoundsFixture, UpperBoundAtLeastLowerBound) {
  Build(60, {1.0, 5});
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Tuple outlier =
        Tuple::Numeric({rng.Uniform(5, 30), rng.Uniform(-30, 30)});
    for (std::uint64_t bits = 0; bits < 4; ++bits) {
      AttributeSet x(bits);
      double lb = Lb(outlier, x);
      auto ub = Ub(outlier, x);
      if (ub.has_value() && !std::isinf(lb)) {
        EXPECT_GE(ub->cost, lb - 1e-9)
            << "trial " << trial << " X=" << bits;
      }
    }
  }
}

TEST_F(BoundsFixture, UpperBoundEmptyWhenXLocksOutlierOut) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({50, 0});
  auto ub = Ub(outlier, AttributeSet{0});
  EXPECT_FALSE(ub.has_value());
}

TEST_F(BoundsFixture, UpperBoundCostMatchesDistance) {
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({10, -7});
  auto ub = Ub(outlier, AttributeSet());
  ASSERT_TRUE(ub.has_value());
  EXPECT_NEAR(ub->cost, evaluator_->Distance(outlier, ub->adjusted), 1e-12);
}

TEST_F(BoundsFixture, FeasibilityMatchesDefinition) {
  Build(60, {1.0, 5});
  // A point in the middle of the cluster is feasible; a far one is not.
  EXPECT_TRUE(engine_->IsFeasible(Tuple::Numeric({0, 0})));
  EXPECT_FALSE(engine_->IsFeasible(Tuple::Numeric({20, 20})));
}

TEST_F(BoundsFixture, EtaOneAlwaysFeasible) {
  Build(10, {1.0, 1});
  // η = 1: every tuple counts itself (Formula 4), so anything is feasible.
  EXPECT_TRUE(engine_->IsFeasible(Tuple::Numeric({1000, 1000})));
}

TEST_F(BoundsFixture, DonorSpliceIsFeasibleEitherWay) {
  // The donor either qualifies under Proposition 5's sufficient condition
  // (δ_η(t2) ≤ ε − Δ(t_o[X], t2[X])) or was validated by an exact
  // feasibility check; in both cases the splice must be feasible.
  Build(60, {1.0, 5});
  Tuple outlier = Tuple::Numeric({0.3, 15});
  AttributeSet x{0};
  auto ub = Ub(outlier, x);
  ASSERT_TRUE(ub.has_value());
  EXPECT_TRUE(engine_->IsFeasible(ub->adjusted));
  // The donor is reachable on X regardless of which path selected it.
  double dx = evaluator_->DistanceOn(x, outlier, inliers_[ub->donor_row]);
  EXPECT_LE(dx, constraint_.epsilon + 1e-9);
}


// ---------------------------------------------------------------------------
// Definitional oracle (tests/bound_oracle.h): every scan the engine runs —
// over a columnar- or a scalar-backed cache — must equal the
// plain DistanceEvaluator computation of Props 3 and 5 bit for bit.
// ---------------------------------------------------------------------------

/// Integer coordinates in [0, hi]: sums of squares are exact, so inliers at
/// exactly Δ = ε on X (ties at the band edge) and equal-cost donors (ties
/// for the first minimum) are common.
Relation IntegerRelation(std::size_t n, std::size_t dims, std::int64_t hi,
                         std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      t[d] = Value(static_cast<double>(rng.UniformInt(0, hi)));
    }
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

/// Outliers on the same integer grid, some inside the data's range and
/// some far outside it (empty bands, infinite lower bounds).
std::vector<Tuple> IntegerOutliers(std::size_t dims, std::int64_t hi,
                                   std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> outliers;
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      t[d] = Value(static_cast<double>(rng.UniformInt(-4, hi + 18)));
    }
    outliers.push_back(std::move(t));
  }
  return outliers;
}

/// Compares LowerBoundForX / UpperBoundForX on every X ⊆ R against the
/// oracle, once per cache backing (`view` null = scalar-backed only).
void ExpectBoundsMatchOracle(const Relation& r, const DistanceEvaluator& ev,
                             DistanceConstraint c,
                             const std::vector<Tuple>& outliers,
                             const ColumnarView* view) {
  auto index = MakeNeighborIndex(r, ev, c.epsilon);
  KthNeighborCache knn(r, *index, c.eta);
  BoundsEngine engine(r, ev, *index, knn, c);
  const std::uint64_t subsets = std::uint64_t{1} << ev.arity();
  std::vector<const ColumnarView*> backings = {nullptr};
  if (view != nullptr) backings.push_back(view);
  for (std::size_t i = 0; i < outliers.size(); ++i) {
    const Tuple& o = outliers[i];
    for (const ColumnarView* backing : backings) {
      SearchDistanceCache dcache(r, ev, o, backing);
      SearchBudget unlimited;
      BudgetGauge gauge(&unlimited);
      for (std::uint64_t bits = 0; bits < subsets; ++bits) {
        const AttributeSet x(bits);
        const std::string at = "outlier " + std::to_string(i) + " X=" +
                               std::to_string(bits) +
                               (backing != nullptr ? " columnar" : " scalar");
        EXPECT_EQ(engine.LowerBoundForX(o, x, &gauge, &dcache),
                  oracle::LowerBound(r, ev, c, o, x))
            << at;
        auto got = engine.UpperBoundForX(o, x, &gauge, &dcache);
        auto want = oracle::UpperBound(r, ev, knn, c, o, x);
        ASSERT_EQ(got.has_value(), want.has_value()) << at;
        if (want.has_value()) {
          EXPECT_EQ(got->cost, want->cost) << at;
          EXPECT_EQ(got->donor_row, want->donor_row) << at;
          EXPECT_TRUE(got->adjusted == want->adjusted) << at;
        }
      }
      EXPECT_FALSE(gauge.stopped());
    }
  }
}

TEST(BoundsOracleTest, InlineScansMatchDefinitionOnIntegerGrid) {
  for (LpNorm norm : {LpNorm::kL2, LpNorm::kL1}) {
    Relation r = IntegerRelation(400, 3, 12, 21);
    DistanceEvaluator ev(r.schema(), norm);
    auto view = ColumnarView::Build(r, ev);
    ASSERT_NE(view, nullptr);
    for (DistanceConstraint c : {DistanceConstraint{2.0, 4},
                                 DistanceConstraint{3.0, 7}}) {
      ExpectBoundsMatchOracle(r, ev, c, IntegerOutliers(3, 12, 12, 22),
                              view.get());
    }
  }
}

TEST(BoundsOracleTest, InlineScansMatchDefinitionOnMixedSchema) {
  // Numeric + string attributes: no ColumnarView, so only the scalar-backed
  // cache serves the scans (edit distance on the string column).
  Schema mixed(std::vector<AttributeDef>{{"x", ValueKind::kNumeric},
                                         {"name", ValueKind::kString},
                                         {"y", ValueKind::kNumeric}});
  const char* names[] = {"ab", "abc", "abd", "xbc", "b"};
  Rng rng(31);
  Relation r(mixed);
  for (int i = 0; i < 240; ++i) {
    Tuple t(3);
    t[0] = Value(static_cast<double>(rng.UniformInt(0, 6)));
    t[1] = Value(names[rng.NextIndex(5)]);
    t[2] = Value(static_cast<double>(rng.UniformInt(0, 6)));
    r.AppendUnchecked(std::move(t));
  }
  DistanceEvaluator ev(mixed);
  ASSERT_EQ(ColumnarView::Build(r, ev), nullptr);
  std::vector<Tuple> outliers;
  for (int i = 0; i < 8; ++i) {
    Tuple t(3);
    t[0] = Value(static_cast<double>(rng.UniformInt(-2, 14)));
    t[1] = Value(i % 2 == 0 ? "abc" : "zzzz");
    t[2] = Value(static_cast<double>(rng.UniformInt(-2, 14)));
    outliers.push_back(std::move(t));
  }
  ExpectBoundsMatchOracle(r, ev, {2.0, 4}, outliers, nullptr);
}

// ---------------------------------------------------------------------------
// Lemma 2 from the search's distance cache must equal the index-defined
// bound max(0, KNearest(η−1).back().distance − ε) bit for bit, for every
// index kind, norm and cache backing.
// ---------------------------------------------------------------------------

/// The bound as an index query defines it; 0 when η ≤ 1 or when fewer than
/// η−1 inliers exist.
double KnnGlobalLowerBound(const NeighborIndex& index, const Tuple& outlier,
                           DistanceConstraint c) {
  const std::size_t needed = c.eta > 0 ? c.eta - 1 : 0;
  if (needed == 0) return 0;
  std::vector<Neighbor> nn = index.KNearest(outlier, needed);
  if (nn.size() < needed) return 0;
  return std::max(0.0, nn.back().distance - c.epsilon);
}

/// η values around the edges for a relation of `n` rows: η ≤ 1 (no
/// bound), η−1 = n (the farthest inlier) and η−1 > n (too few inliers).
std::vector<std::size_t> EtaSweep(std::size_t n) {
  return {0, 1, 2, 3, 5, 9, n, n + 1, n + 2, n + 30};
}

/// Checks the cache bound against KnnGlobalLowerBound over `index` for
/// every outlier, η in EtaSweep and cache backing (`view` null = scalar
/// only). Returns the number of comparisons made.
std::size_t ExpectGlobalBoundMatchesKnn(const Relation& r,
                                        const DistanceEvaluator& ev,
                                        const NeighborIndex& index,
                                        double epsilon,
                                        const std::vector<Tuple>& outliers,
                                        const ColumnarView* view) {
  // Lemma 2 reads neither δ_η nor the index; the engine just needs both.
  KthNeighborCache kth(r, index, 2);
  std::vector<const ColumnarView*> backings = {nullptr};
  if (view != nullptr) backings.push_back(view);
  std::size_t checks = 0;
  for (std::size_t eta : EtaSweep(r.size())) {
    const DistanceConstraint c{epsilon, eta};
    BoundsEngine engine(r, ev, index, kth, c);
    for (std::size_t i = 0; i < outliers.size(); ++i) {
      SCOPED_TRACE(testing::Message() << index.Name() << " eta=" << eta
                                      << " outlier " << i);
      const double want = KnnGlobalLowerBound(index, outliers[i], c);
      for (const ColumnarView* backing : backings) {
        SearchDistanceCache dcache(r, ev, outliers[i], backing);
        const double got = engine.GlobalLowerBound(dcache);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "columnar=" << dcache.columnar() << " got " << got;
        ++checks;
      }
    }
  }
  return checks;
}

/// Outliers for `r`'s integer grid: on it, between its points, and 16 or
/// more ε-cells outside it (the grid's far-query path).
std::vector<Tuple> MixedOutliers(std::size_t dims, std::int64_t lo,
                                 std::int64_t hi, double epsilon,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> outliers;
  for (std::size_t i = 0; i < 12; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      double v = static_cast<double>(rng.UniformInt(lo, hi));
      if (i % 3 == 1) v += rng.Uniform(-0.5, 0.5);
      if (i % 3 == 2) v += (d % 2 == 0 ? 1 : -1) * (16 + 8.0 * i) * epsilon;
      t[d] = Value(v);
    }
    outliers.push_back(std::move(t));
  }
  return outliers;
}

TEST(GlobalLowerBoundOracle, MatchesKNearestOnEveryNumericIndex) {
  std::size_t checks = 0;
  for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
    for (std::uint64_t seed : {5u, 6u}) {
      // Integer coordinates in [-6, 6]: Δ ties at the (η−1)-th distance
      // are common, and duplicate rows tie exactly.
      Rng rng(seed);
      Relation r(Schema::Numeric(3));
      for (int i = 0; i < 150; ++i) {
        Tuple t(3);
        for (std::size_t d = 0; d < 3; ++d) {
          t[d] = Value(static_cast<double>(rng.UniformInt(-6, 6)));
        }
        r.AppendUnchecked(std::move(t));
      }
      DistanceEvaluator ev(r.schema(), norm);
      auto view = ColumnarView::Build(r, ev);
      ASSERT_NE(view, nullptr);
      const double eps = 1.5;
      const std::vector<Tuple> outliers =
          MixedOutliers(3, -6, 6, eps, seed + 100);
      GridIndex grid(r, eps, norm);
      KdTree tree(r, norm);
      BruteForceIndex brute(r, ev);
      const std::vector<const NeighborIndex*> indexes = {&grid, &tree, &brute};
      for (const NeighborIndex* index : indexes) {
        checks += ExpectGlobalBoundMatchesKnn(r, ev, *index, eps, outliers,
                                              view.get());
      }
    }
  }
  EXPECT_EQ(checks, 3u * 2u * 3u * 10u * 12u * 2u);
}

TEST(GlobalLowerBoundOracle, MatchesKNearestWithEditDistance) {
  // String attributes: brute force over edit distance, scalar-backed cache.
  Schema mixed(std::vector<AttributeDef>{{"name", ValueKind::kString},
                                         {"x", ValueKind::kNumeric}});
  const char* names[] = {"ab", "abc", "abd", "xbc", "b", "abcd"};
  for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
    Rng rng(41);
    Relation r(mixed);
    for (int i = 0; i < 60; ++i) {
      Tuple t(2);
      t[0] = Value(names[rng.NextIndex(6)]);
      t[1] = Value(static_cast<double>(rng.UniformInt(0, 4)));
      r.AppendUnchecked(std::move(t));
    }
    DistanceEvaluator ev(mixed, norm);
    ASSERT_EQ(ColumnarView::Build(r, ev), nullptr);
    std::vector<Tuple> outliers;
    for (int i = 0; i < 6; ++i) {
      Tuple t(2);
      t[0] = Value(i % 2 == 0 ? "abc" : "zzzzzz");
      t[1] = Value(static_cast<double>(rng.UniformInt(-3, 20)));
      outliers.push_back(std::move(t));
    }
    BruteForceIndex brute(r, ev);
    EXPECT_EQ(ExpectGlobalBoundMatchesKnn(r, ev, brute, 1.0, outliers,
                                          nullptr),
              10u * 6u);
  }
}

TEST(GlobalLowerBoundOracle, TieAtTheKthDistanceAndTinyRelations) {
  // Four inliers at distance 5 around the outlier and one nearer: the
  // 2nd..5th nearest all tie at 5, so η−1 ∈ [2, 5] lands inside the tie.
  Relation r(Schema::Numeric(2));
  r.AppendUnchecked(Tuple::Numeric({3, 4}));
  r.AppendUnchecked(Tuple::Numeric({-3, -4}));
  r.AppendUnchecked(Tuple::Numeric({1, 0}));
  r.AppendUnchecked(Tuple::Numeric({4, -3}));
  r.AppendUnchecked(Tuple::Numeric({-4, 3}));
  DistanceEvaluator ev(r.schema());
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);
  const Tuple outlier = Tuple::Numeric({0, 0});
  BruteForceIndex brute(r, ev);
  ExpectGlobalBoundMatchesKnn(r, ev, brute, 2.0, {outlier}, view.get());
  KthNeighborCache kth(r, brute, 3);
  for (std::size_t eta = 3; eta <= 6; ++eta) {
    BoundsEngine engine(r, ev, brute, kth, {2.0, eta});
    SearchDistanceCache dcache(r, ev, outlier);
    EXPECT_EQ(engine.GlobalLowerBound(dcache), 3.0) << "eta=" << eta;
  }
  // η−1 > n and η ≤ 1: no informative bound.
  for (std::size_t eta : {0u, 1u, 7u, 50u}) {
    BoundsEngine engine(r, ev, brute, kth, {2.0, eta});
    SearchDistanceCache dcache(r, ev, outlier);
    EXPECT_EQ(engine.GlobalLowerBound(dcache), 0.0) << "eta=" << eta;
  }
  // An empty relation has no inliers at all.
  Relation empty(Schema::Numeric(2));
  BruteForceIndex none(empty, ev);
  KthNeighborCache none_kth(empty, none, 3);
  BoundsEngine engine(empty, ev, none, none_kth, {2.0, 3});
  SearchDistanceCache dcache(empty, ev, outlier);
  EXPECT_EQ(engine.GlobalLowerBound(dcache), 0.0);
}

}  // namespace
}  // namespace disc
