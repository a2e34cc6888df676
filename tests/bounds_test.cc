#include "core/bounds.h"

#include <gtest/gtest.h>

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
#include "index/index_factory.h"

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
  double lb = engine_->GlobalLowerBound(outlier);
  // The outlier is ~20 away from the cluster; it must move ≥ ~19 − jitter.
  EXPECT_GT(lb, 15.0);
}

TEST_F(BoundsFixture, GlobalLowerBoundZeroForNearPoint) {
  Build(40, {1.0, 5});
  Tuple near = Tuple::Numeric({0.1, 0.1});
  EXPECT_DOUBLE_EQ(engine_->GlobalLowerBound(near), 0.0);
}

TEST_F(BoundsFixture, LowerBoundForEmptyXMatchesGlobal) {
  Build(40, {1.0, 5});
  Tuple outlier = Tuple::Numeric({20, 0});
  // Lemma 2 is the X = ∅ special case of Proposition 3.
  EXPECT_NEAR(Lb(outlier, AttributeSet()),
              engine_->GlobalLowerBound(outlier), 1e-9);
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

}  // namespace
}  // namespace disc
