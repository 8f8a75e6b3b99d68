// Tests for the on-the-fly statistics: min/max/null tracking, KMV
// distinct estimation, sample-based selectivity and the planner bridge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "raw/stats_collector.h"
#include "util/random.h"

namespace nodb {
namespace {

ColumnVector IntColumn(const std::vector<int64_t>& values,
                       const std::vector<bool>& nulls = {}) {
  ColumnVector col(DataType::kInt64);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!nulls.empty() && nulls[i]) {
      col.AppendNull();
    } else {
      col.AppendInt64(values[i]);
    }
  }
  return col;
}

TEST(AttributeStatsTest, MinMaxNullCounts) {
  AttributeStats stats(DataType::kInt64);
  stats.Observe(IntColumn({5, -3, 10, 0}, {false, false, false, true}));
  EXPECT_EQ(stats.row_count(), 4u);
  EXPECT_EQ(stats.null_count(), 1u);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(*stats.numeric_min(), -3.0);
  EXPECT_DOUBLE_EQ(*stats.numeric_max(), 10.0);
}

TEST(AttributeStatsTest, DistinctEstimateExactWhenSmall) {
  AttributeStats stats(DataType::kInt64);
  stats.Observe(IntColumn({1, 2, 3, 1, 2, 3, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(stats.EstimateDistinct(), 3.0);
}

TEST(AttributeStatsTest, DistinctEstimateWithinBandWhenLarge) {
  AttributeStats stats(DataType::kInt64);
  Random rng(1);
  ColumnVector col(DataType::kInt64);
  const int64_t kTrueNdv = 20000;
  for (int i = 0; i < 100000; ++i) {
    col.AppendInt64(static_cast<int64_t>(rng.Uniform(kTrueNdv)));
  }
  stats.Observe(col);
  double est = stats.EstimateDistinct();
  // KMV with k=256 has ~1/sqrt(k) ≈ 6% relative error; allow 25%.
  EXPECT_GT(est, kTrueNdv * 0.75);
  EXPECT_LT(est, kTrueNdv * 1.25);

  // The sketch holds exactly k distinct hashes, ascending; an imported
  // image is normalized back to that shape whatever its order.
  AttributeStats::Image image = stats.ExportImage();
  ASSERT_EQ(image.kmv.size(), AttributeStats::kKmvSize);
  EXPECT_TRUE(std::is_sorted(image.kmv.begin(), image.kmv.end()));
  EXPECT_EQ(std::adjacent_find(image.kmv.begin(), image.kmv.end()),
            image.kmv.end());
  AttributeStats::Image shuffled = image;
  std::reverse(shuffled.kmv.begin(), shuffled.kmv.end());
  shuffled.kmv.push_back(image.kmv.front());  // a duplicate
  shuffled.kmv.push_back(UINT64_MAX);         // one too many
  AttributeStats restored(DataType::kInt64);
  ASSERT_TRUE(restored.ImportImage(shuffled));
  EXPECT_EQ(restored.ExportImage().kmv, image.kmv);
  EXPECT_DOUBLE_EQ(restored.EstimateDistinct(), est);
}

TEST(AttributeStatsTest, CompareSelectivityFromSample) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 10000; ++i) col.AppendInt64(i % 100);
  stats.Observe(col);
  auto sel = stats.EstimateCompareSelectivity(CompareOp::kLt,
                                              Value::Int64(10));
  ASSERT_TRUE(sel.has_value());
  EXPECT_NEAR(*sel, 0.10, 0.06);
  auto eq = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                             Value::Int64(5));
  ASSERT_TRUE(eq.has_value());
  EXPECT_LT(*eq, 0.1);
  auto none = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                               Value::String("x"));
  EXPECT_FALSE(none.has_value());
}

TEST(AttributeStatsTest, EqualityMissFallsBackToNdv) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt64(i);
  stats.Observe(col);
  // A value outside the sample: estimate ~1/NDV, not zero.
  auto sel = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                              Value::Int64(-12345));
  ASSERT_TRUE(sel.has_value());
  EXPECT_GT(*sel, 0.0);
  EXPECT_LT(*sel, 0.01);
}

TEST(AttributeStatsTest, StringSelectivityAndLike) {
  AttributeStats stats(DataType::kString);
  ColumnVector col(DataType::kString);
  const char* words[] = {"apple", "banana", "cherry", "apricot"};
  for (int i = 0; i < 400; ++i) col.AppendString(words[i % 4]);
  stats.Observe(col);
  auto eq = stats.EstimateCompareSelectivity(CompareOp::kEq,
                                             Value::String("apple"));
  ASSERT_TRUE(eq.has_value());
  EXPECT_NEAR(*eq, 0.25, 0.1);
  auto like = stats.EstimateLikeSelectivity("ap%", false);
  ASSERT_TRUE(like.has_value());
  EXPECT_NEAR(*like, 0.5, 0.12);  // apple + apricot
}

TEST(AttributeStatsTest, SampleHistogramShapesUniform) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  Random rng(2);
  for (int i = 0; i < 5000; ++i) {
    col.AppendInt64(static_cast<int64_t>(rng.Uniform(1000)));
  }
  stats.Observe(col);
  auto hist = stats.SampleHistogram(10);
  ASSERT_EQ(hist.size(), 10u);
  uint64_t total = 0;
  for (uint64_t b : hist) total += b;
  EXPECT_EQ(total, AttributeStats::kReservoirSize);
  for (uint64_t b : hist) EXPECT_GT(b, 10u);  // roughly uniform
}

TEST(StatsCollectorTest, ObserveBlockDeduplicates) {
  auto schema = Schema::Make({{"a", DataType::kInt64},
                              {"b", DataType::kInt64}});
  StatsCollector collector(schema);
  auto col = IntColumn({1, 2, 3});
  collector.ObserveBlock(0, 0, col);
  collector.ObserveBlock(0, 0, col);  // second fold-in is ignored
  EXPECT_EQ(collector.GetStats(0)->row_count(), 3u);
  collector.ObserveBlock(0, 1, col);
  EXPECT_EQ(collector.GetStats(0)->row_count(), 6u);
  EXPECT_FALSE(collector.HasStats(1));
  EXPECT_EQ(collector.CoveredAttributes(), (std::vector<uint32_t>{0}));
  collector.Clear();
  EXPECT_FALSE(collector.HasStats(0));
}

TEST(StatsSelectivityEstimatorTest, BridgesBoundPredicates) {
  auto schema = Schema::Make({{"a", DataType::kInt64},
                              {"b", DataType::kInt64}});
  StatsCollector collector(schema);
  ColumnVector skewed(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) skewed.AppendInt64(i < 990 ? 1 : 2);
  collector.ObserveBlock(0, 0, skewed);

  StatsSelectivityEstimator estimator;
  estimator.Register("t", &collector, schema);

  auto col_a = std::make_shared<ColumnRefExpr>(0, "a", DataType::kInt64);
  auto lit2 = std::make_shared<LiteralExpr>(Value::Int64(2),
                                            DataType::kInt64);
  CompareExpr rare(CompareOp::kEq, col_a, lit2);
  auto sel = estimator.EstimateSelectivity("t", rare);
  ASSERT_TRUE(sel.has_value());
  EXPECT_LT(*sel, 0.1);

  // Literal-on-the-left mirrors the operator.
  CompareExpr mirrored(CompareOp::kGt, lit2, col_a);  // 2 > a  ==  a < 2
  auto msel = estimator.EstimateSelectivity("t", mirrored);
  ASSERT_TRUE(msel.has_value());
  EXPECT_GT(*msel, 0.8);

  // Unknown table / unknown column -> no estimate.
  EXPECT_FALSE(estimator.EstimateSelectivity("nope", rare).has_value());
  auto col_b = std::make_shared<ColumnRefExpr>(1, "b", DataType::kInt64);
  CompareExpr unstat(CompareOp::kEq, col_b, lit2);
  EXPECT_FALSE(estimator.EstimateSelectivity("t", unstat).has_value());

  // AND combines multiplicatively.
  auto both = LogicalExpr(
      LogicalOp::kAnd,
      std::make_shared<CompareExpr>(CompareOp::kEq, col_a, lit2),
      std::make_shared<CompareExpr>(CompareOp::kEq, col_a, lit2));
  auto combined = estimator.EstimateSelectivity("t", both);
  ASSERT_TRUE(combined.has_value());
  EXPECT_NEAR(*combined, *sel * *sel, 1e-9);
}

// --------------------------------------------------- degenerate stats

TEST(AttributeStatsTest, AllNullColumnIsDegenerateButSafe) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 100; ++i) col.AppendNull();
  stats.Observe(col);
  EXPECT_EQ(stats.row_count(), 100u);
  EXPECT_EQ(stats.null_count(), 100u);
  EXPECT_DOUBLE_EQ(stats.null_fraction(), 1.0);
  EXPECT_FALSE(stats.numeric_min().has_value());
  EXPECT_FALSE(stats.numeric_max().has_value());
  EXPECT_DOUBLE_EQ(stats.EstimateDistinct(), 0.0);
  // No sample -> no estimate; never NaN or a division by zero.
  EXPECT_FALSE(stats.EstimateCompareSelectivity(CompareOp::kLt,
                                                Value::Int64(5))
                   .has_value());
  auto hist = stats.SampleHistogram(8);
  ASSERT_EQ(hist.size(), 8u);
  for (uint64_t b : hist) EXPECT_EQ(b, 0u);
}

TEST(AttributeStatsTest, ZeroWidthRangeStaysFinite) {
  AttributeStats stats(DataType::kInt64);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt64(7);
  stats.Observe(col);
  EXPECT_DOUBLE_EQ(*stats.numeric_min(), 7.0);
  EXPECT_DOUBLE_EQ(*stats.numeric_max(), 7.0);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (int64_t lit : {6, 7, 8}) {
      auto sel = stats.EstimateCompareSelectivity(op, Value::Int64(lit));
      ASSERT_TRUE(sel.has_value());
      EXPECT_TRUE(std::isfinite(*sel));
      EXPECT_GE(*sel, 0.0);
      EXPECT_LE(*sel, 1.0);
    }
  }
  // Zero-width histogram range: everything lands in one bucket.
  auto hist = stats.SampleHistogram(4);
  EXPECT_EQ(hist[0], AttributeStats::kReservoirSize);
}

TEST(AttributeStatsTest, NanValuesNeverPoisonEstimates) {
  AttributeStats stats(DataType::kDouble);
  ColumnVector col(DataType::kDouble);
  for (int i = 0; i < 200; ++i) {
    if (i % 5 == 0) {
      col.AppendDouble(std::nan(""));
    } else {
      col.AppendDouble(static_cast<double>(i));
    }
  }
  stats.Observe(col);
  EXPECT_TRUE(std::isfinite(stats.EstimateDistinct()));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kLt, CompareOp::kGe}) {
    auto sel = stats.EstimateCompareSelectivity(op, Value::Double(50.0));
    if (sel.has_value()) {
      EXPECT_TRUE(std::isfinite(*sel));
      EXPECT_GE(*sel, 0.0);
      EXPECT_LE(*sel, 1.0);
    }
  }
}

TEST(StatsSelectivityEstimatorTest, DegenerateStatsNeverYieldNanOrInf) {
  auto schema = Schema::Make({{"allnull", DataType::kInt64},
                              {"constant", DataType::kInt64}});
  StatsCollector collector(schema);
  ColumnVector nulls(DataType::kInt64);
  ColumnVector constant(DataType::kInt64);
  for (int i = 0; i < 500; ++i) {
    nulls.AppendNull();
    constant.AppendInt64(42);
  }
  collector.ObserveBlock(0, 0, nulls);
  collector.ObserveBlock(1, 0, constant);

  StatsSelectivityEstimator estimator;
  estimator.Register("t", &collector, schema);

  auto col_null =
      std::make_shared<ColumnRefExpr>(0, "allnull", DataType::kInt64);
  auto col_const =
      std::make_shared<ColumnRefExpr>(1, "constant", DataType::kInt64);
  auto lit = std::make_shared<LiteralExpr>(Value::Int64(42),
                                           DataType::kInt64);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kGe}) {
    for (const auto& col : {col_null, col_const}) {
      CompareExpr pred(op, col, lit);
      auto sel = estimator.EstimateSelectivity("t", pred);
      if (sel.has_value()) {
        EXPECT_TRUE(std::isfinite(*sel)) << pred.ToString();
        EXPECT_GE(*sel, 0.0);
        EXPECT_LE(*sel, 1.0);
      }
    }
  }
  // AND/OR over a degenerate and an estimable side stay clamped.
  LogicalExpr both(
      LogicalOp::kAnd,
      std::make_shared<CompareExpr>(CompareOp::kEq, col_const, lit),
      std::make_shared<CompareExpr>(CompareOp::kLt, col_null, lit));
  auto combined = estimator.EstimateSelectivity("t", both);
  if (combined.has_value()) {
    EXPECT_TRUE(std::isfinite(*combined));
    EXPECT_GE(*combined, 0.0);
    EXPECT_LE(*combined, 1.0);
  }
}

TEST(StatsSelectivityEstimatorTest, QualifiedNamesResolveToColumns) {
  // Join-side conjuncts reference "alias.column" display names; the
  // estimator strips the qualifier to reach the table schema.
  auto schema = Schema::Make({{"a", DataType::kInt64}});
  StatsCollector collector(schema);
  ColumnVector col(DataType::kInt64);
  for (int i = 0; i < 1000; ++i) col.AppendInt64(i % 10);
  collector.ObserveBlock(0, 0, col);
  StatsSelectivityEstimator estimator;
  estimator.Register("t", &collector, schema);
  auto qualified =
      std::make_shared<ColumnRefExpr>(0, "x.a", DataType::kInt64);
  auto lit =
      std::make_shared<LiteralExpr>(Value::Int64(5), DataType::kInt64);
  CompareExpr pred(CompareOp::kLt, qualified, lit);
  auto sel = estimator.EstimateSelectivity("t", pred);
  ASSERT_TRUE(sel.has_value());
  EXPECT_NEAR(*sel, 0.5, 0.1);
}

// ------------------------------------------------------------ zone maps

TEST(ZoneMapsTest, ObserveComputesBoundsPerPayload) {
  ZoneMaps zones;
  ColumnVector ints(DataType::kInt64);
  for (int64_t v : {5, -3, 10, 0}) ints.AppendInt64(v);
  zones.Observe(0, 0, ints, zones.generation());
  auto entry = zones.Get(0, 0);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->is_int);
  EXPECT_EQ(entry->min_i, -3);
  EXPECT_EQ(entry->max_i, 10);
  EXPECT_DOUBLE_EQ(entry->min_d, -3.0);
  EXPECT_DOUBLE_EQ(entry->max_d, 10.0);
  EXPECT_EQ(entry->rows, 4u);
  EXPECT_FALSE(entry->has_null);
  EXPECT_TRUE(entry->non_null);
  EXPECT_FALSE(entry->unsafe);

  ColumnVector doubles(DataType::kDouble);
  doubles.AppendDouble(1.5);
  doubles.AppendNull();
  doubles.AppendDouble(-2.5);
  zones.Observe(1, 3, doubles, zones.generation());
  auto d = zones.Get(1, 3);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->is_int);
  EXPECT_DOUBLE_EQ(d->min_d, -2.5);
  EXPECT_DOUBLE_EQ(d->max_d, 1.5);
  EXPECT_TRUE(d->has_null);

  // Strings are never summarized; NaN marks the entry unusable;
  // all-NULL blocks report no usable bounds.
  ColumnVector strings(DataType::kString);
  strings.AppendString("abc");
  zones.Observe(2, 0, strings, zones.generation());
  EXPECT_FALSE(zones.Contains(2, 0));
  ColumnVector nan_col(DataType::kDouble);
  nan_col.AppendDouble(std::nan(""));
  nan_col.AppendDouble(1.0);
  zones.Observe(3, 0, nan_col, zones.generation());
  ASSERT_TRUE(zones.Get(3, 0).has_value());
  EXPECT_TRUE(zones.Get(3, 0)->unsafe);
  ColumnVector all_null(DataType::kInt64);
  all_null.AppendNull();
  zones.Observe(4, 0, all_null, zones.generation());
  ASSERT_TRUE(zones.Get(4, 0).has_value());
  EXPECT_FALSE(zones.Get(4, 0)->non_null);
  EXPECT_TRUE(zones.Get(4, 0)->has_null);
}

TEST(ZoneMapsTest, GenerationTaggingAndInvalidation) {
  ZoneMaps zones;
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(1);
  uint64_t old_generation = zones.generation();
  for (uint64_t block = 0; block < 4; ++block) {
    zones.Observe(0, block, col, old_generation);
  }
  EXPECT_EQ(zones.num_entries(), 4u);

  // Append truncation: blocks >= 2 vanish, earlier ones stay.
  zones.DropBlocksFrom(2);
  EXPECT_EQ(zones.num_entries(), 2u);
  EXPECT_TRUE(zones.Contains(0, 1));
  EXPECT_FALSE(zones.Contains(0, 2));

  // Rewrite: everything drops, and an in-flight observation against
  // the old generation is rejected — a stale map can never skip live
  // rows.
  zones.Clear();
  EXPECT_EQ(zones.num_entries(), 0u);
  EXPECT_GT(zones.generation(), old_generation);
  zones.Observe(0, 0, col, old_generation);
  EXPECT_EQ(zones.num_entries(), 0u);
  zones.Observe(0, 0, col, zones.generation());
  EXPECT_EQ(zones.num_entries(), 1u);
}

}  // namespace
}  // namespace nodb
