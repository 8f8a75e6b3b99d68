// Tests for the engines: NoDbEngine (PostgresRaw) end-to-end SQL, knob
// handling, automatic update detection, the load-first conventional
// engine with its race profiles, and metrics accounting.

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "io/file.h"
#include "io/temp_dir.h"

namespace nodb {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-engine");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));

    path_ = dir_->FilePath("sales.csv");
    std::string content;
    // id, region, amount, day
    const char* regions[] = {"north", "south", "east", "west"};
    for (int i = 0; i < 1000; ++i) {
      content += std::to_string(i);
      content += ",";
      content += regions[i % 4];
      content += ",";
      content += std::to_string((i * 7) % 100);
      content += ".5,";
      content += (i % 2 == 0) ? "1994-01-10" : "1995-03-20";
      content += "\n";
    }
    ASSERT_TRUE(WriteStringToFile(path_, content).ok());
    schema_ = Schema::Make({{"id", DataType::kInt64},
                            {"region", DataType::kString},
                            {"amount", DataType::kDouble},
                            {"day", DataType::kDate}});
    ASSERT_TRUE(
        catalog_.RegisterTable({"sales", path_, schema_, CsvDialect()})
            .ok());
  }

  NoDbConfig SmallBlocks() {
    NoDbConfig config;
    config.rows_per_block = 128;
    return config;
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
  Catalog catalog_;
};

TEST_F(EngineTest, NoDbInitializeIsFree) {
  NoDbEngine engine(catalog_, SmallBlocks());
  auto init = engine.Initialize();
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(*init, 0);
  EXPECT_EQ(engine.name(), "PostgresRaw");
}

TEST_F(EngineTest, EndToEndQueries) {
  NoDbEngine engine(catalog_, SmallBlocks());
  auto count = engine.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->result.Row(0)[0], Value::Int64(1000));

  auto agg = engine.Execute(
      "SELECT region, COUNT(*) AS n, AVG(amount) AS avg_amount "
      "FROM sales WHERE day < DATE '1995-01-01' GROUP BY region "
      "ORDER BY region");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->result.num_rows(), 2u);  // even ids: north and east
  EXPECT_EQ(agg->result.Row(0)[0], Value::String("east"));
  EXPECT_EQ(agg->result.Row(0)[1], Value::Int64(250));
  EXPECT_EQ(agg->result.Row(1)[0], Value::String("north"));

  auto like = engine.Execute(
      "SELECT COUNT(*) AS n FROM sales WHERE region LIKE '%th'");
  ASSERT_TRUE(like.ok());
  EXPECT_EQ(like->result.Row(0)[0], Value::Int64(500));
}

TEST_F(EngineTest, MetricsPopulatedAndAdaptive) {
  NoDbEngine engine(catalog_, SmallBlocks());
  auto cold =
      engine.Execute("SELECT SUM(amount) AS s FROM sales WHERE id > 10");
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->metrics.total_ns, 0);
  EXPECT_GT(cold->metrics.scan.rows_scanned, 0u);
  EXPECT_GT(cold->metrics.scan.fields_converted, 0u);

  auto warm =
      engine.Execute("SELECT SUM(amount) AS s FROM sales WHERE id > 10");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->result.CanonicalRows(), cold->result.CanonicalRows());
  // The pushed predicate's column (id) is cache-served on the second
  // run; only phase 2 — the qualifying rows' amount values — still
  // converts. (Phase-2 columns are parsed selectively, so they never
  // populate the cache; promotion materializes them instead.)
  EXPECT_LT(warm->metrics.scan.fields_converted,
            cold->metrics.scan.fields_converted);
  EXPECT_GT(warm->metrics.scan.cache_block_hits, 0u);

  EXPECT_EQ(engine.totals().queries, 2u);
  EXPECT_GE(engine.totals().query_ns,
            cold->metrics.total_ns + warm->metrics.total_ns);

  const RawTableState* state = engine.table_state("sales");
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->map().rows_complete());
  // The parsed id segments are resident: probationary, or already
  // promoted by the second run (a class change, not a copy).
  EXPECT_GT(state->segments().stats(SegmentClass::kProbationary).segments +
                state->segments().stats(SegmentClass::kProtected).segments,
            0u);

  // Two accesses crossed the promotion threshold: once the background
  // pass materializes the hot columns, the third run serves from the
  // store and converts nothing at all.
  engine.WaitForPromotions();
  auto hot =
      engine.Execute("SELECT SUM(amount) AS s FROM sales WHERE id > 10");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->result.CanonicalRows(), cold->result.CanonicalRows());
  EXPECT_EQ(hot->metrics.scan.fields_converted, 0u);
  EXPECT_GT(hot->metrics.scan.rows_from_store, 0u);
}

TEST_F(EngineTest, BaselineConfigDoesNotAdapt) {
  NoDbEngine engine(catalog_, NoDbConfig::Baseline(), "Baseline");
  auto q1 = engine.Execute("SELECT COUNT(*) FROM sales WHERE id > 500");
  ASSERT_TRUE(q1.ok());
  auto q2 = engine.Execute("SELECT COUNT(*) FROM sales WHERE id > 500");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->result.Row(0)[0], Value::Int64(499));
  // No structures exist, so the second query converts as much as the first.
  EXPECT_EQ(q1->metrics.scan.fields_converted,
            q2->metrics.scan.fields_converted);
  EXPECT_EQ(q2->metrics.scan.cache_block_hits, 0u);
  EXPECT_EQ(q2->metrics.scan.map_exact_probes, 0u);
}

TEST_F(EngineTest, AutomaticUpdateDetectionBetweenQueries) {
  NoDbEngine engine(catalog_, SmallBlocks());
  auto before = engine.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->result.Row(0)[0], Value::Int64(1000));

  auto app = OpenAppendableFile(path_);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append("9999,north,1.5,1996-01-01\n").ok());
  ASSERT_TRUE((*app)->Close().ok());

  auto after = engine.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.Row(0)[0], Value::Int64(1001));

  // Rewrite is also picked up automatically.
  ASSERT_TRUE(WriteStringToFile(path_, "1,x,2.0,1994-01-01\n").ok());
  auto rewritten = engine.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->result.Row(0)[0], Value::Int64(1));
}

TEST_F(EngineTest, ReplaceTablePointsAtNewFile) {
  NoDbEngine engine(catalog_, SmallBlocks());
  ASSERT_TRUE(engine.Execute("SELECT COUNT(*) FROM sales").ok());
  std::string other = dir_->FilePath("other.csv");
  ASSERT_TRUE(WriteStringToFile(other, "7,west,3.5,1999-09-09\n").ok());
  ASSERT_TRUE(
      engine.ReplaceTable({"sales", other, schema_, CsvDialect()}).ok());
  auto result = engine.Execute("SELECT id FROM sales");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->result.num_rows(), 1u);
  EXPECT_EQ(result->result.Row(0)[0], Value::Int64(7));
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  NoDbEngine engine(catalog_, SmallBlocks());
  EXPECT_FALSE(engine.Execute("SELECT nope FROM sales").ok());
  EXPECT_FALSE(engine.Execute("SELECT id FROM missing_table").ok());
  EXPECT_FALSE(engine.Execute("garbage").ok());
  // The engine remains usable after errors.
  EXPECT_TRUE(engine.Execute("SELECT COUNT(*) FROM sales").ok());
}

TEST_F(EngineTest, ExplainShowsPlanAndAdaptiveReordering) {
  NoDbEngine engine(catalog_, SmallBlocks());
  auto plan = engine.Explain(
      "SELECT region FROM sales WHERE region LIKE 'n%' AND id < 5 "
      "ORDER BY region LIMIT 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Without statistics yet, pushed conjuncts keep source order. Both
  // WHERE conjuncts are single-table, so they run inside the scan.
  EXPECT_NE(plan->find("SCAN sales [id, region]"), std::string::npos)
      << *plan;
  size_t like_pos = plan->find("PUSHDOWN (region LIKE");
  size_t id_pos = plan->find("PUSHDOWN (id < 5)");
  ASSERT_NE(like_pos, std::string::npos) << *plan;
  ASSERT_NE(id_pos, std::string::npos) << *plan;
  EXPECT_LT(like_pos, id_pos);
  EXPECT_EQ(plan->find("FILTER"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("SORT by"), std::string::npos);
  EXPECT_NE(plan->find("LIMIT 3"), std::string::npos);

  // Run a query that gathers statistics on `id`, then re-explain: the
  // selective id predicate should now be ordered first.
  ASSERT_TRUE(
      engine.Execute("SELECT COUNT(*) FROM sales WHERE id >= 0").ok());
  auto adapted = engine.Explain(
      "SELECT region FROM sales WHERE region LIKE 'n%' AND id < 5 "
      "ORDER BY region LIMIT 3");
  ASSERT_TRUE(adapted.ok());
  size_t like2 = adapted->find("PUSHDOWN (region LIKE");
  size_t id2 = adapted->find("PUSHDOWN (id < 5)");
  ASSERT_NE(like2, std::string::npos) << *adapted;
  ASSERT_NE(id2, std::string::npos) << *adapted;
  EXPECT_LT(id2, like2) << *adapted;
  EXPECT_NE(adapted->find("selectivity"), std::string::npos) << *adapted;

  // With pushdown disabled the same conjuncts fall back to a filter
  // cascade above the scan.
  NoDbConfig no_push = SmallBlocks();
  no_push.enable_pushdown = false;
  NoDbEngine plain(catalog_, no_push);
  auto filtered = plain.Explain(
      "SELECT region FROM sales WHERE region LIKE 'n%' AND id < 5 "
      "ORDER BY region LIMIT 3");
  ASSERT_TRUE(filtered.ok());
  EXPECT_NE(filtered->find("FILTER (region LIKE"), std::string::npos)
      << *filtered;
  EXPECT_EQ(filtered->find("PUSHDOWN"), std::string::npos) << *filtered;
}

TEST_F(EngineTest, ExplainOnAggregateAndJoinPlans) {
  NoDbEngine engine(catalog_, SmallBlocks());
  auto agg = engine.Explain(
      "SELECT region, COUNT(*) AS n FROM sales GROUP BY region "
      "ORDER BY n DESC");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_NE(agg->find("AGGREGATE groups=[region] aggs=[n]"),
            std::string::npos)
      << *agg;
  EXPECT_NE(agg->find("SORT by n DESC"), std::string::npos);
}

TEST_F(EngineTest, RuntimeComponentToggles) {
  NoDbEngine engine(catalog_, SmallBlocks());
  ASSERT_TRUE(engine.Execute("SELECT SUM(id) AS s FROM sales").ok());
  const RawTableState* state = engine.table_state("sales");
  size_t segments =
      state->segments().stats(SegmentClass::kProbationary).segments;
  ASSERT_GT(segments, 0u);

  // Disable everything: queries still answer, structures are ignored
  // and not grown.
  engine.SetPositionalMapEnabled(false);
  engine.SetCacheEnabled(false);
  engine.SetStatisticsEnabled(false);
  auto off = engine.Execute("SELECT SUM(amount) AS s FROM sales");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->metrics.scan.cache_block_hits, 0u);
  EXPECT_EQ(state->segments().stats(SegmentClass::kProbationary).segments,
            segments);  // unchanged

  // Re-enable: the retained structures serve again immediately.
  engine.SetPositionalMapEnabled(true);
  engine.SetCacheEnabled(true);
  engine.SetStatisticsEnabled(true);
  auto on = engine.Execute("SELECT SUM(id) AS s FROM sales");
  ASSERT_TRUE(on.ok());
  EXPECT_GT(on->metrics.scan.cache_block_hits, 0u);
}

// --------------------------------------------------------- LoadFirstEngine

TEST_F(EngineTest, LoadFirstMustInitializeAndMatchesNoDb) {
  LoadFirstEngine conventional(catalog_, LoadProfile::kPostgres);
  EXPECT_FALSE(conventional.initialized());
  auto init = conventional.Initialize();
  ASSERT_TRUE(init.ok());
  EXPECT_GT(*init, 0);
  EXPECT_TRUE(conventional.initialized());
  EXPECT_GT(conventional.resident_bytes(), 0u);

  NoDbEngine insitu(catalog_, SmallBlocks());
  const char* queries[] = {
      "SELECT COUNT(*) FROM sales",
      "SELECT region, SUM(amount) AS s FROM sales GROUP BY region "
      "ORDER BY region",
      "SELECT id FROM sales WHERE amount > 90 ORDER BY id LIMIT 7",
  };
  for (const char* sql : queries) {
    auto a = conventional.Execute(sql);
    auto b = insitu.Execute(sql);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->result.CanonicalRows(), b->result.CanonicalRows())
        << sql;
  }
}

TEST_F(EngineTest, ExecuteAutoInitializes) {
  LoadFirstEngine engine(catalog_, LoadProfile::kPostgres);
  auto result = engine.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(engine.initialized());
  EXPECT_GT(engine.totals().init_ns, 0);
}

TEST_F(EngineTest, ProfilesDoIncreasingInitWork) {
  LoadFirstEngine pg(catalog_, LoadProfile::kPostgres);
  LoadFirstEngine my(catalog_, LoadProfile::kMySql);
  LoadFirstEngine dx(catalog_, LoadProfile::kDbmsX);
  ASSERT_TRUE(pg.Initialize().ok());
  ASSERT_TRUE(my.Initialize().ok());
  ASSERT_TRUE(dx.Initialize().ok());
  EXPECT_EQ(pg.name(), "PostgreSQL");
  EXPECT_EQ(my.name(), "MySQL");
  EXPECT_EQ(dx.name(), "DBMS X");
  // The MySQL profile keeps a row-store copy resident.
  EXPECT_GT(my.resident_bytes(), pg.resident_bytes());
  // All three agree on results.
  const char* sql = "SELECT SUM(id) AS s FROM sales WHERE amount < 50";
  auto a = pg.Execute(sql);
  auto b = my.Execute(sql);
  auto c = dx.Execute(sql);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->result.CanonicalRows(), b->result.CanonicalRows());
  EXPECT_EQ(a->result.CanonicalRows(), c->result.CanonicalRows());
}

}  // namespace
}  // namespace nodb
