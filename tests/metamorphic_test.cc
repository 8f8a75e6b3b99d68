// Metamorphic and fuzz tests: whole-query invariants that must hold
// for ANY data, plus a parser robustness sweep. These catch classes of
// bugs example-based tests miss (partition-completeness of predicates,
// three-valued-logic accounting, limit monotonicity) and prove the SQL
// frontend never crashes on garbage.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datagen/synthetic.h"
#include "engines/nodb_engine.h"
#include "engines/result_export.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "sql/parser.h"
#include "util/random.h"
#include "util/string_util.h"

namespace nodb {
namespace {

class MetamorphicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-meta");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));

    SyntheticSpec spec;
    spec.num_tuples = 2000;
    spec.num_attributes = 6;
    spec.ints_per_cycle = 2;
    spec.strings_per_cycle = 1;
    spec.dates_per_cycle = 0;
    spec.doubles_per_cycle = 1;
    spec.null_fraction = 0.1;
    spec.attribute_width = 6;
    path_ = dir_->FilePath("m.csv");
    ASSERT_TRUE(GenerateSyntheticCsv(path_, spec, CsvDialect()).ok());
    schema_ = spec.MakeSchema();
    Catalog catalog;
    ASSERT_TRUE(
        catalog.RegisterTable({"m", path_, schema_, CsvDialect()}).ok());
    engine_ = std::make_unique<NoDbEngine>(catalog, NoDbConfig());
  }

  int64_t Count(const std::string& where) {
    auto outcome =
        engine_->Execute("SELECT COUNT(*) AS n FROM m" + where);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString() << where;
    if (!outcome.ok()) return -1;
    return outcome->result.Row(0)[0].int64();
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
  std::unique_ptr<NoDbEngine> engine_;
};

TEST_F(MetamorphicTest, PredicatePartitionIsComplete) {
  // For any predicate p over a nullable column:
  //   COUNT(p) + COUNT(NOT p) + COUNT(column IS NULL) == COUNT(*)
  // (rows where p is UNKNOWN are exactly the NULL rows for a simple
  // comparison predicate).
  Random rng(31);
  int64_t total = Count("");
  ASSERT_GT(total, 0);
  // INT columns in the generated cycle (attr2 DOUBLE, attr3 STRING).
  const int int_cols[] = {0, 1, 4, 5};
  for (int i = 0; i < 12; ++i) {
    std::string col = "attr" + std::to_string(int_cols[rng.Uniform(4)]);
    std::string lit = std::to_string(rng.Uniform(1000000));
    std::string p = col + " < " + lit;
    int64_t yes = Count(" WHERE " + p);
    int64_t no = Count(" WHERE NOT (" + p + ")");
    int64_t null = Count(" WHERE " + col + " IS NULL");
    EXPECT_EQ(yes + no + null, total) << p;
  }
}

TEST_F(MetamorphicTest, RangeSplitSumsMatch) {
  // SUM over [lo, hi) == SUM over [lo, mid) + SUM over [mid, hi).
  auto sum_over = [&](int64_t lo, int64_t hi) {
    auto outcome = engine_->Execute(
        "SELECT SUM(attr1) AS s FROM m WHERE attr0 >= " +
        std::to_string(lo) + " AND attr0 < " + std::to_string(hi));
    EXPECT_TRUE(outcome.ok());
    auto v = outcome->result.Row(0)[0];
    return v.is_null() ? int64_t{0} : v.int64();
  };
  int64_t whole = sum_over(0, 1000000);
  int64_t left = sum_over(0, 400000);
  int64_t right = sum_over(400000, 1000000);
  EXPECT_EQ(whole, left + right);
}

TEST_F(MetamorphicTest, GroupSumsEqualGlobalSum) {
  auto global = engine_->Execute("SELECT SUM(attr0) AS s, COUNT(attr0) "
                                 "AS n FROM m");
  ASSERT_TRUE(global.ok());
  auto grouped = engine_->Execute(
      "SELECT attr2, SUM(attr0) AS s, COUNT(attr0) AS n FROM m "
      "GROUP BY attr2");
  ASSERT_TRUE(grouped.ok());
  int64_t sum = 0, count = 0;
  for (size_t r = 0; r < grouped->result.num_rows(); ++r) {
    auto row = grouped->result.Row(r);
    if (!row[1].is_null()) sum += row[1].int64();
    count += row[2].int64();
  }
  EXPECT_EQ(sum, global->result.Row(0)[0].int64());
  EXPECT_EQ(count, global->result.Row(0)[1].int64());
}

TEST_F(MetamorphicTest, LimitIsPrefixOfOrderedResult) {
  auto full = engine_->Execute(
      "SELECT attr0, attr1 FROM m WHERE attr0 IS NOT NULL "
      "ORDER BY attr0, attr1");
  ASSERT_TRUE(full.ok());
  auto limited = engine_->Execute(
      "SELECT attr0, attr1 FROM m WHERE attr0 IS NOT NULL "
      "ORDER BY attr0, attr1 LIMIT 37");
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->result.num_rows(), 37u);
  for (size_t r = 0; r < 37; ++r) {
    EXPECT_EQ(limited->result.Row(r), full->result.Row(r)) << r;
  }
}

TEST_F(MetamorphicTest, DistinctCountMatchesGroupCount) {
  auto distinct = engine_->Execute("SELECT DISTINCT attr2 FROM m");
  ASSERT_TRUE(distinct.ok());
  auto grouped =
      engine_->Execute("SELECT attr2, COUNT(*) AS n FROM m GROUP BY attr2");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(distinct->result.num_rows(), grouped->result.num_rows());
}

TEST_F(MetamorphicTest, ExportedResultReimportsIdentically) {
  // Round-trip: query -> CSV -> register -> re-query must agree.
  auto outcome = engine_->Execute(
      "SELECT attr0, attr2, attr3 FROM m WHERE attr0 IS NOT NULL "
      "ORDER BY attr0 LIMIT 200");
  ASSERT_TRUE(outcome.ok());
  std::string out_path = dir_->FilePath("export.csv");
  CsvDialect out_dialect;
  out_dialect.allow_quoting = true;
  ASSERT_TRUE(
      WriteResultToCsv(outcome->result, out_path, out_dialect).ok());

  Catalog catalog;
  // In the generated cycle attr2 is DOUBLE and attr3 is STRING.
  auto export_schema = Schema::Make({{"attr0", DataType::kInt64},
                                     {"attr2", DataType::kDouble},
                                     {"attr3", DataType::kString}});
  ASSERT_TRUE(catalog
                  .RegisterTable({"ex", out_path, export_schema,
                                  out_dialect})
                  .ok());
  NoDbEngine re(catalog, NoDbConfig());
  auto back = re.Execute("SELECT attr0, attr2, attr3 FROM ex");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->result.CanonicalRows(),
            outcome->result.CanonicalRows());
}

// ------------------------------------------------- pushdown parity

/// Metamorphic property: a pushed-down plan and the FilterOperator-only
/// plan are the same query — results must be byte-identical for ANY
/// data, in particular around NULLs (empty CSV fields): a pushed
/// predicate must drop NULL rows exactly like FilterOperator does, and
/// zone maps must never skip a row a filter would keep — across all
/// three storage tiers, quoted dialects, appends and rewrites.
class PushdownParityTest : public ::testing::Test {
 protected:
  void RunParity(const CsvDialect& dialect) {
    auto dir = TempDir::Create("nodb-pushdown-parity");
    ASSERT_TRUE(dir.ok());

    SyntheticSpec spec;
    spec.num_tuples = 1500;
    spec.num_attributes = 6;
    spec.ints_per_cycle = 2;
    spec.doubles_per_cycle = 1;
    spec.strings_per_cycle = 1;
    spec.dates_per_cycle = 0;
    spec.null_fraction = 0.15;  // plenty of empty fields -> NULLs
    spec.attribute_width = 6;
    spec.seed = 20260727;
    std::string path = dir->FilePath("p.csv");
    ASSERT_TRUE(GenerateSyntheticCsv(path, spec, dialect).ok());

    Catalog catalog;
    auto schema = spec.MakeSchema();
    ASSERT_TRUE(
        catalog.RegisterTable({"p", path, schema, dialect}).ok());

    // Pushed engine: pushdown + zone maps + store; unpushed engine:
    // the same adaptive structures, predicates above the scan only.
    NoDbConfig pushed_config;
    pushed_config.rows_per_block = 128;
    NoDbConfig plain_config = pushed_config;
    plain_config.enable_pushdown = false;
    plain_config.enable_zone_maps = false;
    NoDbEngine pushed(catalog, pushed_config);
    NoDbEngine plain(catalog, plain_config);

    const std::vector<std::string> queries = {
        // Range/equality over nullable columns: NULL != FALSE matters.
        "SELECT attr0, attr1 FROM p WHERE attr0 < 300000 "
        "ORDER BY attr0, attr1",
        "SELECT COUNT(*) AS n FROM p WHERE attr1 >= 500000",
        "SELECT attr0 FROM p WHERE attr0 = 123456 ORDER BY attr0",
        // NOT folds NULL to NULL: partition completeness again.
        "SELECT COUNT(*) AS n FROM p WHERE NOT (attr0 < 300000)",
        "SELECT COUNT(*) AS n FROM p WHERE attr0 IS NULL",
        // Conjunctions over several nullable columns.
        "SELECT attr0, attr2 FROM p WHERE attr0 > 100000 AND "
        "attr2 < 5000.5 ORDER BY attr0, attr2",
        // String predicates ride pushdown without zone checks.
        "SELECT COUNT(*) AS n FROM p WHERE attr3 LIKE '1%'",
    };

    // Cold (raw), warm (cache), and post-promotion (store) rounds.
    for (int round = 0; round < 3; ++round) {
      for (const auto& sql : queries) {
        SCOPED_TRACE("round " + std::to_string(round) + ": " + sql);
        auto expect = plain.Execute(sql);
        ASSERT_TRUE(expect.ok()) << expect.status().ToString();
        auto got = pushed.Execute(sql);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->result.CanonicalRows(),
                  expect->result.CanonicalRows());
      }
      pushed.WaitForPromotions();
      plain.WaitForPromotions();
    }
    // The store tier really served pushed queries by the last round.
    const RawTableState* state = pushed.table_state("p");
    ASSERT_NE(state, nullptr);
    EXPECT_GT(state->segments().counters().block_hits, 0u);

    // Clean append: zone maps truncate at the frontier block; results
    // must still agree (fresh rows visible to both engines).
    {
      // Appended rows carry fresh NULLs (empty fields) in predicate
      // columns; clean unquoted fields are valid in both dialects.
      std::string extra;
      for (int i = 0; i < 40; ++i) {
        extra += std::to_string(10 + i) + ",," +
                 std::to_string(1.25 * i) + ",zz,7,\n";
      }
      auto app = OpenAppendableFile(path);
      ASSERT_TRUE(app.ok());
      ASSERT_TRUE((*app)->Append(extra).ok());
      ASSERT_TRUE((*app)->Close().ok());
    }
    for (const auto& sql : queries) {
      SCOPED_TRACE("after append: " + sql);
      auto expect = plain.Execute(sql);
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      auto got = pushed.Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->result.CanonicalRows(),
                expect->result.CanonicalRows());
    }

    // Rewrite: stale zone maps must never skip live rows.
    spec.seed = 987;
    spec.num_tuples = 900;
    ASSERT_TRUE(GenerateSyntheticCsv(path, spec, dialect).ok());
    for (const auto& sql : queries) {
      SCOPED_TRACE("after rewrite: " + sql);
      auto expect = plain.Execute(sql);
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      auto got = pushed.Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->result.CanonicalRows(),
                expect->result.CanonicalRows());
    }
  }
};

TEST_F(PushdownParityTest, PushedPlansMatchUnpushedPlainDialect) {
  RunParity(CsvDialect());
}

TEST_F(PushdownParityTest, PushedPlansMatchUnpushedQuotedDialect) {
  RunParity(CsvDialect::QuotedCsv());
}

// ------------------------------------------------------------ parser fuzz

TEST(ParserFuzzTest, RandomGarbageNeverCrashes) {
  Random rng(1337);
  const std::string alphabet =
      "SELECT FROM WHERE GROUP BY ORDER LIMIT JOIN ON AND OR NOT LIKE "
      "BETWEEN IN IS NULL DATE HAVING DISTINCT COUNT SUM AVG MIN MAX "
      "abc xyz t 0 1 42 3.14 'str' \" , . ; ( ) = < > <= >= <> + - * / "
      "attr0 @ # %";
  auto words = SplitString(alphabet, ' ');
  size_t parsed_ok = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string sql;
    size_t len = 1 + rng.Uniform(20);
    for (size_t i = 0; i < len; ++i) {
      sql += words[rng.Uniform(words.size())];
      sql += ' ';
    }
    auto stmt = ParseSelect(sql);  // must not crash or hang
    if (stmt.ok()) ++parsed_ok;
  }
  // Some random soups happen to be valid; most are rejected cleanly.
  EXPECT_LT(parsed_ok, 3000u);
}

TEST(ParserFuzzTest, MutatedValidQueriesNeverCrash) {
  Random rng(7331);
  const std::string base =
      "SELECT a, COUNT(*) AS n FROM t WHERE a > 5 AND b LIKE 'x%' "
      "GROUP BY a HAVING n > 1 ORDER BY a DESC LIMIT 10 OFFSET 2";
  for (int iter = 0; iter < 3000; ++iter) {
    std::string sql = base;
    size_t edits = 1 + rng.Uniform(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(sql.size());
      switch (rng.Uniform(3)) {
        case 0:
          sql.erase(pos, 1 + rng.Uniform(5));
          break;
        case 1:
          sql.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95)));
          break;
        default:
          if (!sql.empty()) {
            sql[std::min(pos, sql.size() - 1)] =
                static_cast<char>(32 + rng.Uniform(95));
          }
      }
      if (sql.empty()) sql = "S";
    }
    (void)ParseSelect(sql);  // outcome irrelevant; must not crash
  }
  SUCCEED();
}

}  // namespace
}  // namespace nodb
