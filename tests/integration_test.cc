// Integration tests: multi-query adaptive workflows over raw files —
// epochs with eviction under tight budgets, TPC-H-shaped queries with
// joins, update flows mid-workload, and the monitoring panel.

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datagen/tpch.h"
#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "monitor/panel.h"

namespace nodb {
namespace {

TEST(IntegrationTest, EpochWorkloadAdaptsAndEvicts) {
  auto dir = TempDir::Create("nodb-epochs");
  ASSERT_TRUE(dir.ok());

  SyntheticSpec spec;
  spec.num_tuples = 4000;
  spec.num_attributes = 30;
  spec.attribute_width = 8;
  std::string path = dir->FilePath("wide.csv");
  ASSERT_TRUE(GenerateSyntheticCsv(path, spec, CsvDialect()).ok());

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable(
                      {"wide", path, spec.MakeSchema(), CsvDialect()})
                  .ok());

  NoDbConfig config;
  config.rows_per_block = 256;
  // Tight budgets: an epoch's working set fits, the whole history does
  // not, so old epochs must be evicted.
  config.positional_map_budget = 150 * 1024;
  config.cache_budget = 300 * 1024;
  NoDbEngine engine(catalog, config);

  // 3 epochs, each querying a disjoint 5-attribute window.
  for (int epoch = 0; epoch < 3; ++epoch) {
    int base = epoch * 10;
    for (int q = 0; q < 4; ++q) {
      std::string a = "attr" + std::to_string(base + q);
      std::string b = "attr" + std::to_string(base + q + 1);
      auto result = engine.Execute("SELECT " + a + ", " + b +
                                   " FROM wide WHERE " + a +
                                   " < 00500000 LIMIT 10000");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->result.num_rows(), 0u);
    }
  }

  const RawTableState* state = engine.table_state("wide");
  ASSERT_NE(state, nullptr);
  // Budgets were respected throughout...
  EXPECT_LE(state->map().bytes_used(), config.positional_map_budget);
  EXPECT_LE(state->segments().stats(SegmentClass::kProbationary).bytes,
            config.cache_budget);
  // ...and adaptation actually evicted older-epoch state.
  EXPECT_GT(state->map().evictions() +
                state->segments().stats(SegmentClass::kProbationary).evictions,
            0u);
  // The most recent epoch's predicate column is still indexed (LRU
  // kept it hot; with pushdown, chunks record the phase-1 columns).
  EXPECT_GT(state->map().CoverageFraction(23), 0.5);

  // The monitoring panel renders without issues and mentions the table.
  std::string panel = MonitorPanel::RenderTableState(*state);
  EXPECT_NE(panel.find("wide"), std::string::npos);
  EXPECT_NE(panel.find("positional map"), std::string::npos);
}

TEST(IntegrationTest, TpchStyleQueriesAcrossEngines) {
  auto dir = TempDir::Create("nodb-tpch");
  ASSERT_TRUE(dir.ok());
  TpchSpec spec;
  spec.scale_factor = 0.002;
  std::string li = dir->FilePath("lineitem.tbl");
  std::string ord = dir->FilePath("orders.tbl");
  ASSERT_TRUE(GenerateTpchLineitem(li, spec).ok());
  ASSERT_TRUE(GenerateTpchOrders(ord, spec).ok());

  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable({"lineitem", li, TpchLineitemSchema(),
                                  CsvDialect::Pipe()})
                  .ok());
  ASSERT_TRUE(catalog
                  .RegisterTable({"orders", ord, TpchOrdersSchema(),
                                  CsvDialect::Pipe()})
                  .ok());

  NoDbEngine nodb(catalog, NoDbConfig());
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);

  // Q1-shaped: aggregates by flag/status over a shipdate range.
  const char* q1 =
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
      "SUM(l_extendedprice) AS sum_base, AVG(l_discount) AS avg_disc, "
      "COUNT(*) AS n FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-08-01' "
      "GROUP BY l_returnflag, l_linestatus "
      "ORDER BY l_returnflag, l_linestatus";
  // Q6-shaped: revenue filter.
  const char* q6 =
      "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
      "WHERE l_shipdate >= DATE '1994-01-01' "
      "AND l_shipdate < DATE '1995-01-01' "
      "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";
  // Join-shaped: lineitems of high-priority orders.
  const char* qj =
      "SELECT COUNT(*) AS n FROM lineitem l JOIN orders o "
      "ON l.l_orderkey = o.o_orderkey "
      "WHERE o.o_orderpriority = '1-URGENT'";

  for (const char* sql : {q1, q6, qj}) {
    SCOPED_TRACE(sql);
    auto expected = reference.Execute(sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto got = nodb.Execute(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->result.CanonicalRows(),
              expected->result.CanonicalRows());
  }

  // Q1 touches a non-trivial row set.
  auto q1_result = nodb.Execute(q1);
  ASSERT_TRUE(q1_result.ok());
  EXPECT_GE(q1_result->result.num_rows(), 3u);
}

TEST(IntegrationTest, UpdateWorkflowMidQueries) {
  auto dir = TempDir::Create("nodb-updates");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->FilePath("log.csv");
  std::string content;
  for (int i = 0; i < 200; ++i) {
    content += std::to_string(i) + "," + std::to_string(i % 10) + "\n";
  }
  ASSERT_TRUE(WriteStringToFile(path, content).ok());

  Catalog catalog;
  auto schema = Schema::Make({{"seq", DataType::kInt64},
                              {"bucket", DataType::kInt64}});
  ASSERT_TRUE(
      catalog.RegisterTable({"log", path, schema, CsvDialect()}).ok());

  NoDbConfig config;
  config.rows_per_block = 64;
  NoDbEngine engine(catalog, config);

  auto r1 = engine.Execute("SELECT MAX(seq) AS m FROM log");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->result.Row(0)[0], Value::Int64(199));

  // Appends between queries are picked up; structures survive.
  for (int round = 0; round < 3; ++round) {
    auto app = OpenAppendableFile(path);
    ASSERT_TRUE(app.ok());
    std::string tail;
    for (int i = 0; i < 50; ++i) {
      int seq = 200 + round * 50 + i;
      tail += std::to_string(seq) + "," + std::to_string(seq % 10) + "\n";
    }
    ASSERT_TRUE((*app)->Append(tail).ok());
    ASSERT_TRUE((*app)->Close().ok());

    auto refresh = engine.RefreshTable("log");
    ASSERT_TRUE(refresh.ok());
    EXPECT_EQ(*refresh, FileChange::kAppended);
    auto result = engine.Execute(
        "SELECT COUNT(*) AS n, MAX(seq) AS m FROM log");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->result.Row(0)[0],
              Value::Int64(200 + (round + 1) * 50));
    EXPECT_EQ(result->result.Row(0)[1],
              Value::Int64(199 + (round + 1) * 50));
  }

  // A grouped query after all appends agrees with a fresh reference.
  LoadFirstEngine reference(catalog, LoadProfile::kPostgres);
  const char* sql =
      "SELECT bucket, COUNT(*) AS n FROM log GROUP BY bucket "
      "ORDER BY bucket";
  auto expected = reference.Execute(sql);
  auto got = engine.Execute(sql);
  ASSERT_TRUE(expected.ok() && got.ok());
  EXPECT_EQ(got->result.CanonicalRows(), expected->result.CanonicalRows());
}

TEST(IntegrationTest, BreakdownPanelRendersAllCategories) {
  auto dir = TempDir::Create("nodb-panel");
  ASSERT_TRUE(dir.ok());
  SyntheticSpec spec;
  spec.num_tuples = 500;
  spec.num_attributes = 6;
  std::string path = dir->FilePath("p.csv");
  ASSERT_TRUE(GenerateSyntheticCsv(path, spec, CsvDialect()).ok());
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable(
                      {"p", path, spec.MakeSchema(), CsvDialect()})
                  .ok());
  NoDbEngine engine(catalog, NoDbConfig());
  auto outcome = engine.Execute("SELECT attr1 FROM p WHERE attr0 > 0");
  ASSERT_TRUE(outcome.ok());
  std::string line = MonitorPanel::RenderBreakdown("q1", outcome->metrics);
  EXPECT_NE(line.find("tokenize"), std::string::npos);
  EXPECT_NE(line.find("total"), std::string::npos);
  std::string csv = MonitorPanel::BreakdownCsvRow("q1", outcome->metrics);
  // Header and row have the same number of columns.
  auto count_commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count_commas(MonitorPanel::BreakdownCsvHeader()),
            count_commas(csv));
}

}  // namespace
}  // namespace nodb
