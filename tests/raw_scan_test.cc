// Tests for the in-situ raw scan operator: correctness of selective
// tokenizing/parsing against a ground-truth load, positional-map and
// cache warm paths, partial blocks, headers, malformed input and
// update interplay.

#include <gtest/gtest.h>

#include <cstdio>

#include "catalog/catalog.h"
#include "csv/csv_writer.h"
#include "engines/csv_loader.h"
#include "engines/nodb_engine.h"
#include "exec/filter.h"
#include "exec/query_result.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "raw/parallel_scan.h"
#include "raw/raw_scan.h"
#include "util/random.h"

namespace nodb {
namespace {

class RawScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-rawscan");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
  }

  /// Writes a deterministic CSV: value(row, col) = row * 100 + col,
  /// with variable-width fields to make positions non-trivial.
  RawTableInfo WriteFixture(const std::string& name, size_t rows,
                            size_t cols, bool header = false) {
    std::string content;
    std::vector<Field> fields;
    for (size_t c = 0; c < cols; ++c) {
      fields.push_back(Field{"c" + std::to_string(c), DataType::kInt64});
    }
    if (header) {
      for (size_t c = 0; c < cols; ++c) {
        if (c > 0) content += ',';
        content += "c" + std::to_string(c);
      }
      content += '\n';
    }
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        if (c > 0) content += ',';
        content += std::to_string(r * 100 + c);
      }
      content += '\n';
    }
    std::string path = dir_->FilePath(name + ".csv");
    EXPECT_TRUE(WriteStringToFile(path, content).ok());
    CsvDialect dialect;
    dialect.has_header = header;
    return RawTableInfo{name, path, Schema::Make(fields), dialect};
  }

  /// Drains a scan over `projection` and checks every value.
  void VerifyScan(RawTableState* state, std::vector<uint32_t> projection,
                  size_t expected_rows, ScanMetrics* metrics = nullptr) {
    RawScanOperator scan(state, projection, metrics);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), expected_rows);
    for (size_t r = 0; r < expected_rows; ++r) {
      auto row = result->Row(r);
      for (size_t i = 0; i < projection.size(); ++i) {
        ASSERT_EQ(row[i], Value::Int64(static_cast<int64_t>(
                              r * 100 + projection[i])))
            << "row " << r << " attr " << projection[i];
      }
    }
  }

  NoDbConfig SmallBlocks(bool map, bool cache, bool stats) {
    NoDbConfig config;
    config.enable_positional_map = map;
    config.enable_cache = cache;
    config.enable_statistics = stats;
    config.rows_per_block = 64;  // force multi-block handling
    return config;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(RawScanTest, ColdScanMatchesGroundTruth) {
  auto info = WriteFixture("t", 500, 8);
  RawTableState state(info, SmallBlocks(true, true, true));
  VerifyScan(&state, {1, 4, 6}, 500);
}

/// All 8 knob combinations produce identical results.
class KnobSweep : public RawScanTest,
                  public ::testing::WithParamInterface<int> {};

TEST_P(KnobSweep, ResultsIdenticalAcrossConfigs) {
  int mask = GetParam();
  auto info = WriteFixture("t", 300, 6);
  RawTableState state(info, SmallBlocks(mask & 1, mask & 2, mask & 4));
  VerifyScan(&state, {0, 3, 5}, 300);
  VerifyScan(&state, {2}, 300);       // different combination, warm state
  VerifyScan(&state, {0, 3, 5}, 300); // repeat the first
}

INSTANTIATE_TEST_SUITE_P(AllKnobCombos, KnobSweep,
                         ::testing::Range(0, 8));

TEST_F(RawScanTest, EmptyProjectionCountsRows) {
  auto info = WriteFixture("t", 123, 4);
  RawTableState state(info, SmallBlocks(true, true, true));
  ScanMetrics metrics;
  RawScanOperator scan(&state, {}, &metrics);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 123u);
  EXPECT_EQ(metrics.rows_scanned, 123u);
  EXPECT_EQ(metrics.fields_tokenized, 0u);   // selective tokenizing:
  EXPECT_EQ(metrics.fields_converted, 0u);   // nothing parsed at all
}

TEST_F(RawScanTest, WarmMapServesExactSpans) {
  auto info = WriteFixture("t", 400, 10);
  NoDbConfig config = SmallBlocks(true, false, false);  // map only
  RawTableState state(info, config);

  ScanMetrics cold;
  VerifyScan(&state, {3, 7}, 400, &cold);
  EXPECT_GT(cold.fields_tokenized, 0u);
  EXPECT_EQ(cold.map_exact_probes, 0u);

  ScanMetrics warm;
  VerifyScan(&state, {3, 7}, 400, &warm);
  // Every probe is exact now: no tokenizing at all.
  EXPECT_EQ(warm.fields_tokenized, 0u);
  EXPECT_EQ(warm.map_exact_probes, 2u * 400u);
  EXPECT_EQ(warm.map_blind_rows, 0u);
  // And row ends come from the tuple index: no newline scans either.
  EXPECT_EQ(warm.parsing_ns, 0);
}

TEST_F(RawScanTest, AnchorsReduceTokenizingForNearbyAttributes) {
  auto info = WriteFixture("t", 200, 12);
  RawTableState state(info, SmallBlocks(true, false, false));

  ScanMetrics first;
  VerifyScan(&state, {8}, 200, &first);
  // Cold: tokenize from field 0 through field 9 per row.
  EXPECT_EQ(first.fields_tokenized, 200u * 9u);

  ScanMetrics second;
  VerifyScan(&state, {9}, 200, &second);
  // Attr 9 probes anchor at attr 9 via the {8} chunk (end(8)+1), so
  // only the span of 9 itself is scanned: 1 field per row.
  EXPECT_EQ(second.fields_tokenized, 200u * 1u);
  EXPECT_EQ(second.map_anchor_probes, 200u);
}

TEST_F(RawScanTest, WarmCacheSkipsFileEntirely) {
  auto info = WriteFixture("t", 300, 6);
  RawTableState state(info, SmallBlocks(true, true, false));

  ScanMetrics cold;
  VerifyScan(&state, {1, 2}, 300, &cold);
  EXPECT_GT(cold.bytes_read, 0u);
  EXPECT_EQ(cold.cache_block_hits, 0u);

  ScanMetrics warm;
  VerifyScan(&state, {1, 2}, 300, &warm);
  EXPECT_EQ(warm.cache_block_misses, 0u);
  EXPECT_GT(warm.cache_block_hits, 0u);
  EXPECT_EQ(warm.bytes_read, 0u);  // zero raw-file I/O
  EXPECT_EQ(warm.fields_converted, 0u);
}

TEST_F(RawScanTest, WarmCachedBlocksAreEmittedAsSegmentViews) {
  auto info = WriteFixture("t", 300, 6);  // 4 full blocks + a 44-row tail
  NoDbConfig config = SmallBlocks(true, true, false);
  config.enable_store = false;  // probationary segments only
  RawTableState state(info, config);
  VerifyScan(&state, {1, 2}, 300);

  // Each batch is one block, and a block whose columns are all
  // resident hands out the segments themselves, not copies.
  RawScanOperator scan(&state, {1, 2}, nullptr);
  ASSERT_TRUE(scan.Open().ok());
  const uint64_t generation = state.segments().generation();
  uint64_t block = 0;
  while (true) {
    auto batch = scan.Next();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (*batch == nullptr) break;
    EXPECT_EQ((*batch)->num_rows(), block < 4 ? 64u : 44u);
    for (size_t i = 0; i < 2; ++i) {
      auto segment = state.segments().Get(static_cast<uint32_t>(i + 1),
                                          block, generation);
      ASSERT_NE(segment, nullptr) << "block " << block;
      EXPECT_EQ((*batch)->column_ptr(i).get(), segment.get())
          << "block " << block << " column " << i;
    }
    ++block;
  }
  EXPECT_EQ(block, 5u);
}

TEST_F(RawScanTest, PartialCacheServesSubsetOfAttributes) {
  auto info = WriteFixture("t", 200, 8);
  RawTableState state(info, SmallBlocks(true, true, false));
  VerifyScan(&state, {2}, 200);  // cache attr 2

  ScanMetrics mixed;
  VerifyScan(&state, {2, 5}, 200, &mixed);
  EXPECT_GT(mixed.cache_block_hits, 0u);    // attr 2 from cache
  EXPECT_GT(mixed.fields_converted, 0u);    // attr 5 parsed
  // Only attr 5 converted: one field per row.
  EXPECT_EQ(mixed.fields_converted, 200u);
}

TEST_F(RawScanTest, HeaderLineSkipped) {
  auto info = WriteFixture("t", 50, 3, /*header=*/true);
  RawTableState state(info, SmallBlocks(true, true, true));
  VerifyScan(&state, {0, 1, 2}, 50);
  // Re-scan (map-known path) also skips the header.
  VerifyScan(&state, {0, 1, 2}, 50);
}

TEST_F(RawScanTest, FileWithoutTrailingNewline) {
  std::string path = dir_->FilePath("nonl.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n5,6").ok());
  RawTableInfo info{"nonl", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(2)[0], Value::Int64(5));
  EXPECT_EQ(result->Row(2)[1], Value::Int64(6));
  // Warm re-scan over the tuple index agrees.
  RawScanOperator again(&state, {0, 1}, nullptr);
  auto warm = QueryResult::Drain(&again);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->num_rows(), 3u);
  EXPECT_EQ(warm->Row(2)[1], Value::Int64(6));
}

TEST_F(RawScanTest, CrlfLineEndingsTolerated) {
  std::string path = dir_->FilePath("crlf.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\r\n3,4\r\n5,6\r\n").ok());
  RawTableInfo info{"crlf", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(1)[1], Value::Int64(4));  // no trailing \r
  EXPECT_EQ(result->Row(2)[1], Value::Int64(6));
  // The bulk loader agrees.
  auto loaded = LoadCsv(path, info.schema, info.dialect);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->column(1).GetInt64(2), 6);
}

TEST_F(RawScanTest, EmptyFileYieldsNoRows) {
  std::string path = dir_->FilePath("empty.csv");
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  RawTableInfo info{"empty", path,
                    Schema::Make({{"a", DataType::kInt64}}), CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(RawScanTest, MissingFieldIsParseError) {
  std::string path = dir_->FilePath("short.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2,3\n4,5\n6,7,8\n").ok());
  RawTableInfo info{"short", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64},
                                  {"c", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
  EXPECT_NE(result.status().message().find("row 1"), std::string::npos);
}

TEST_F(RawScanTest, MalformedValueIsParseError) {
  std::string path = dir_->FilePath("bad.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,oops\n").ok());
  RawTableInfo info{"bad", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
  // But attr 0 alone scans fine (selective parsing never touches 'oops').
  RawScanOperator ok_scan(&state, {0}, nullptr);
  auto ok = QueryResult::Drain(&ok_scan);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), 2u);
}

TEST_F(RawScanTest, EmptyFieldsParseAsNull) {
  std::string path = dir_->FilePath("nulls.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,,x\n,5,\n").ok());
  RawTableInfo info{"nulls", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64},
                                  {"c", DataType::kString}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1, 2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Row(0)[1].is_null());
  EXPECT_EQ(result->Row(0)[2], Value::String("x"));
  EXPECT_TRUE(result->Row(1)[0].is_null());
  EXPECT_TRUE(result->Row(1)[2].is_null());  // empty string field -> NULL
}

TEST_F(RawScanTest, AbandonedScanLeavesStateConsistent) {
  auto info = WriteFixture("t", 500, 5);
  RawTableState state(info, SmallBlocks(true, true, true));
  {
    // Pull one batch and drop the scan (LIMIT-style early stop).
    RawScanOperator scan(&state, {1}, nullptr);
    ASSERT_TRUE(scan.Open().ok());
    auto batch = scan.Next();
    ASSERT_TRUE(batch.ok());
    ASSERT_NE(*batch, nullptr);
  }
  // A full scan afterwards sees every row with correct values.
  VerifyScan(&state, {1, 3}, 500);
  VerifyScan(&state, {1, 3}, 500);
}

TEST_F(RawScanTest, MixedTypesParseCorrectly) {
  std::string path = dir_->FilePath("mixed.csv");
  ASSERT_TRUE(WriteStringToFile(
                  path, "1,2.5,hello,1994-01-02\n2,3.5,world,1995-06-07\n")
                  .ok());
  RawTableInfo info{"mixed", path,
                    Schema::Make({{"i", DataType::kInt64},
                                  {"d", DataType::kDouble},
                                  {"s", DataType::kString},
                                  {"t", DataType::kDate}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1, 2, 3}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto row = result->Row(1);
  EXPECT_EQ(row[0], Value::Int64(2));
  EXPECT_DOUBLE_EQ(row[1].dbl(), 3.5);
  EXPECT_EQ(row[2], Value::String("world"));
  EXPECT_EQ(row[3].ToString(), "1995-06-07");
}

TEST_F(RawScanTest, QuotedDialectEndToEnd) {
  std::string path = dir_->FilePath("quoted.csv");
  ASSERT_TRUE(WriteStringToFile(
                  path, "1,\"a,b\",2\n3,\"say \"\"hi\"\"\",4\n")
                  .ok());
  RawTableInfo info{"quoted", path,
                    Schema::Make({{"x", DataType::kInt64},
                                  {"s", DataType::kString},
                                  {"y", DataType::kInt64}}),
                    CsvDialect::QuotedCsv()};
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 1, 2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Row(0)[1], Value::String("a,b"));
  EXPECT_EQ(result->Row(1)[1], Value::String("say \"hi\""));
  EXPECT_EQ(result->Row(1)[2], Value::Int64(4));
}

TEST_F(RawScanTest, QuotedRandomFieldsAgainstBulkLoader) {
  // Property: quote-heavy string data (embedded delimiters, escaped
  // quotes, empty fields) survives the in-situ path exactly as the
  // bulk loader reads it, in every knob configuration.
  Random rng(4242);
  CsvDialect dialect = CsvDialect::QuotedCsv();
  for (int iter = 0; iter < 6; ++iter) {
    std::string path =
        dir_->FilePath("quoted" + std::to_string(iter) + ".csv");
    size_t rows = 30 + rng.Uniform(100);
    {
      auto file = OpenWritableFile(path);
      ASSERT_TRUE(file.ok());
      CsvWriter writer(std::move(*file), dialect);
      for (size_t r = 0; r < rows; ++r) {
        writer.BeginRecord();
        writer.AddField(std::to_string(r));
        for (int c = 0; c < 3; ++c) {
          std::string field;
          size_t len = rng.Uniform(10);
          for (size_t i = 0; i < len; ++i) {
            switch (rng.Uniform(5)) {
              case 0:
                field.push_back(',');
                break;
              case 1:
                field.push_back('"');
                break;
              default:
                field.push_back(static_cast<char>('a' + rng.Uniform(26)));
            }
          }
          writer.AddField(field);
        }
        ASSERT_TRUE(writer.FinishRecord().ok());
      }
      ASSERT_TRUE(writer.Close().ok());
    }
    auto schema = Schema::Make({{"id", DataType::kInt64},
                                {"s1", DataType::kString},
                                {"s2", DataType::kString},
                                {"s3", DataType::kString}});
    auto loaded = LoadCsv(path, schema, dialect);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    RawTableInfo info{"q", path, schema, dialect};
    RawTableState state(info, SmallBlocks(iter % 2 == 0, iter % 3 == 0,
                                          false));
    for (auto projection : std::vector<std::vector<uint32_t>>{
             {0, 1, 2, 3}, {2}, {1, 3}}) {
      RawScanOperator scan(&state, projection, nullptr);
      auto result = QueryResult::Drain(&scan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->num_rows(), rows);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < projection.size(); ++i) {
          ASSERT_EQ(result->Row(r)[i],
                    (*loaded)->column(projection[i]).GetValue(r))
              << "iter " << iter << " row " << r << " attr "
              << projection[i];
        }
      }
    }
  }
}

TEST_F(RawScanTest, RandomizedAgainstBulkLoader) {
  // Property: for random shapes, the selective in-situ scan agrees
  // with the full bulk loader on every projected cell.
  Random rng(77);
  for (int iter = 0; iter < 10; ++iter) {
    size_t rows = 50 + rng.Uniform(400);
    size_t cols = 2 + rng.Uniform(10);
    auto info = WriteFixture("r" + std::to_string(iter), rows, cols);
    auto loaded = LoadCsv(info.path, info.schema, info.dialect);
    ASSERT_TRUE(loaded.ok());

    NoDbConfig config = SmallBlocks(rng.Bernoulli(0.5),
                                    rng.Bernoulli(0.5),
                                    rng.Bernoulli(0.5));
    RawTableState state(info, config);
    for (int q = 0; q < 3; ++q) {
      std::vector<uint32_t> projection;
      for (uint32_t c = 0; c < cols; ++c) {
        if (rng.Bernoulli(0.4)) projection.push_back(c);
      }
      if (projection.empty()) projection.push_back(0);
      RawScanOperator scan(&state, projection, nullptr);
      auto result = QueryResult::Drain(&scan);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->num_rows(), rows);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < projection.size(); ++i) {
          ASSERT_EQ(result->Row(r)[i],
                    (*loaded)->column(projection[i]).GetValue(r))
              << "iter " << iter << " q " << q << " row " << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Parallel first touch: the multi-threaded first-touch path must leave
// the table state — and therefore every later query — byte-identical to
// what the serial scan produces, at any thread count.

TEST_F(RawScanTest, ScanBlockDrainsBlocksInAnyOrder) {
  // 300 rows in 64-row blocks: blocks 0-3 full, block 4 the 44-row tail.
  auto info = WriteFixture("blocks", 300, 4);
  RawTableState state(info, SmallBlocks(true, true, true));
  RawScanOperator scan(&state, {0, 2}, nullptr, /*internal=*/true);
  ASSERT_TRUE(scan.Open().ok());
  for (uint64_t block : {4u, 1u, 3u, 0u, 2u, 5u}) {
    auto more = scan.ScanBlock(block);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    EXPECT_EQ(*more, block < 4) << "block " << block;
  }
  EXPECT_EQ(state.segments().stats(SegmentClass::kProbationary).segments,
            10u);
  ScanMetrics warm;
  VerifyScan(&state, {0, 2}, 300, &warm);
  EXPECT_EQ(warm.fields_converted, 0u);
  EXPECT_EQ(warm.rows_from_raw, 0u);
}

TEST_F(RawScanTest, ScanBlockWithoutTheMapFailsAndPublishesNothing) {
  // A scan not locating rows through the row index would take the rows
  // after its cursor as any block's (rows 0-63 cached as block 1).
  auto info = WriteFixture("blocksoff", 300, 4);
  RawTableState state(info, SmallBlocks(false, true, true));
  RawScanOperator scan(&state, {0, 2}, nullptr, /*internal=*/true);
  ASSERT_TRUE(scan.Open().ok());
  for (uint64_t block : {1u, 0u}) {
    EXPECT_FALSE(scan.ScanBlock(block).ok()) << "block " << block;
  }
  EXPECT_EQ(state.segments().stats(SegmentClass::kProbationary).segments, 0u);
  EXPECT_EQ(state.segments().stats(SegmentClass::kProtected).segments, 0u);
  EXPECT_TRUE(state.stats().CoveredAttributes().empty());
  EXPECT_EQ(state.zones().num_entries(), 0u);
  VerifyScan(&state, {0, 2}, 300);
}

TEST_F(RawScanTest, ParallelPrewarmServesWarmScans) {
  for (uint32_t threads : {1u, 2u, 8u}) {
    auto info =
        WriteFixture("p" + std::to_string(threads), 500, 8);
    RawTableState state(info, SmallBlocks(true, true, true));
    Status s = ParallelFirstTouch(&state, {1, 4, 6}, threads);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(state.map().known_rows(), 500u);

    // The scan behaves fully warm: no tokenizing, no raw-file I/O.
    ScanMetrics warm;
    VerifyScan(&state, {1, 4, 6}, 500, &warm);
    EXPECT_EQ(warm.fields_tokenized, 0u) << threads << " threads";
    EXPECT_EQ(warm.bytes_read, 0u) << threads << " threads";
    EXPECT_GT(warm.cache_block_hits, 0u);
  }
}

TEST_F(RawScanTest, ParallelStateIdenticalToSerialAtAnyThreadCount) {
  // 777 rows with 64-row blocks: a partial tail block included.
  auto info = WriteFixture("serial", 777, 6);
  RawTableState serial(info, SmallBlocks(true, true, true));
  VerifyScan(&serial, {0, 2, 5}, 777);  // cold serial scan adapts

  for (uint32_t threads : {1u, 2u, 8u}) {
    RawTableState state(info, SmallBlocks(true, true, true));
    Status s = ParallelFirstTouch(&state, {0, 2, 5}, threads);
    ASSERT_TRUE(s.ok()) << s.ToString();
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(state.map().known_rows(), serial.map().known_rows());
    EXPECT_TRUE(state.map().rows_complete());
    EXPECT_EQ(state.map().num_chunks(), serial.map().num_chunks());
    EXPECT_EQ(state.map().bytes_used(), serial.map().bytes_used());
    EXPECT_EQ(state.segments().stats(SegmentClass::kProbationary).segments,
              serial.segments().stats(SegmentClass::kProbationary).segments);
    EXPECT_EQ(state.segments().stats(SegmentClass::kProbationary).bytes,
              serial.segments().stats(SegmentClass::kProbationary).bytes);
    EXPECT_EQ(state.zones().num_entries(), serial.zones().num_entries());
    EXPECT_EQ(state.stats().CoveredAttributes(),
              serial.stats().CoveredAttributes());
    VerifyScan(&state, {0, 2, 5}, 777);
  }
}

TEST_F(RawScanTest, ParallelPrewarmCrlfFixture) {
  std::string content;
  for (int r = 0; r < 200; ++r) {
    content += std::to_string(r) + "," + std::to_string(r * 2) + ",s" +
               std::to_string(r) + "\r\n";
  }
  std::string path = dir_->FilePath("crlf_par.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"crlfp", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64},
                                  {"s", DataType::kString}}),
                    CsvDialect()};
  for (uint32_t threads : {1u, 2u, 8u}) {
    RawTableState state(info, SmallBlocks(true, true, true));
    Status s = ParallelFirstTouch(&state, {0, 1, 2}, threads);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(state.map().known_rows(), 200u);
    RawScanOperator scan(&state, {0, 1, 2}, nullptr);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), 200u);
    // No '\r' leaked into the cached last column.
    EXPECT_EQ(result->Row(7)[2], Value::String("s7"));
    EXPECT_EQ(result->Row(199)[1], Value::Int64(398));
  }
}

TEST_F(RawScanTest, ParallelPrewarmHeaderAndMissingFinalNewline) {
  auto with_header = WriteFixture("hdr", 150, 4, /*header=*/true);
  RawTableState hstate(with_header, SmallBlocks(true, true, true));
  ASSERT_TRUE(ParallelFirstTouch(&hstate, {0, 3}, 8).ok());
  VerifyScan(&hstate, {0, 3}, 150);

  std::string path = dir_->FilePath("nonl_par.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n5,6").ok());
  RawTableInfo info{"nonlp", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  Status s = ParallelFirstTouch(&state, {0, 1}, 8);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(state.map().known_rows(), 3u);
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->Row(2)[1], Value::Int64(6));
}

TEST_F(RawScanTest, ParallelMapOnlyNoFinalNewlineLastRowIntact) {
  // Regression: empty tail ranges (boundary targets landing inside a
  // row) used to clobber the discovery cursor, truncating the final
  // unterminated row. Map-only config so nothing is served from cache.
  std::string path = dir_->FilePath("nonl_maponly.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n5,6").ok());
  RawTableInfo info{"nonlm", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  for (uint32_t threads : {2u, 8u, 16u}) {
    RawTableState state(info, SmallBlocks(true, false, false));
    Status s = ParallelFirstTouch(&state, {0, 1}, threads);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(state.map().known_rows(), 3u);
    RawScanOperator scan(&state, {0, 1}, nullptr);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), 3u);
    EXPECT_EQ(result->Row(2)[0], Value::Int64(5)) << threads;
    EXPECT_EQ(result->Row(2)[1], Value::Int64(6)) << threads;
  }
}

TEST_F(RawScanTest, ParallelBoundaryTargetsInsideOneRowStillSplit) {
  // Regression: when one boundary target fell inside the previous
  // boundary's row, every later boundary collapsed to end-of-file and
  // discovery degraded to a single range. A long first row followed by
  // many short rows must still split into multiple non-empty ranges.
  std::string content = "9";
  content.append(2000, '0');  // one very long first field
  content += ",1\n";
  for (int r = 0; r < 50; ++r) {
    content += std::to_string(r) + "," + std::to_string(r * 2) + "\n";
  }
  std::string path = dir_->FilePath("longrow.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"longrow", path,
                    Schema::Make({{"a", DataType::kString},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  Status s = ParallelFirstTouch(&state, {0, 1}, 8);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(state.map().known_rows(), 51u);
  RawScanOperator scan(&state, {0, 1}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 51u);
  EXPECT_EQ(result->Row(50)[1], Value::Int64(98));
}

TEST_F(RawScanTest, ParallelPrewarmEmptyProjectionBuildsRowIndex) {
  auto info = WriteFixture("count", 321, 4);
  RawTableState state(info, SmallBlocks(true, true, true));
  ASSERT_TRUE(ParallelFirstTouch(&state, {}, 4).ok());
  EXPECT_EQ(state.map().known_rows(), 321u);
  EXPECT_TRUE(state.map().rows_complete());
  // A COUNT(*)-style scan now locates rows without newline hunting.
  ScanMetrics metrics;
  RawScanOperator scan(&state, {}, &metrics);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 321u);
  EXPECT_EQ(metrics.parsing_ns, 0);
}

TEST_F(RawScanTest, ParallelPrewarmSurfacesSerialError) {
  // A bad value and a short row: the threaded engine's first touch
  // leaves the failing block uncommitted, and the query's own scan
  // reports the serial engine's exact message — on every run.
  struct BadFile {
    std::string name;
    std::string content;
    std::string sql;
  } files[] = {
      {"badp", "1,2\n3,oops\n5,6\n", "SELECT SUM(b) AS s FROM badp"},
      {"shortp", "1,2,3\n4,5\n6,7,8\n", "SELECT SUM(c) AS s FROM shortp"},
  };
  for (const BadFile& f : files) {
    SCOPED_TRACE(f.name);
    std::string path = dir_->FilePath(f.name + ".csv");
    ASSERT_TRUE(WriteStringToFile(path, f.content).ok());
    Catalog catalog;
    ASSERT_TRUE(catalog
                    .RegisterTable({f.name, path,
                                    Schema::Make({{"a", DataType::kInt64},
                                                  {"b", DataType::kInt64},
                                                  {"c", DataType::kInt64}}),
                                    CsvDialect()})
                    .ok());
    NoDbConfig serial_config = SmallBlocks(true, true, true);
    NoDbEngine serial(catalog, serial_config);
    auto want = serial.Execute(f.sql);
    ASSERT_FALSE(want.ok());
    ASSERT_TRUE(want.status().IsParseError());
    EXPECT_NE(want.status().message().find("row 1"), std::string::npos);

    NoDbConfig par_config = serial_config;
    par_config.num_threads = 8;
    NoDbEngine parallel(catalog, par_config);
    for (int run = 0; run < 2; ++run) {
      auto got = parallel.Execute(f.sql);
      ASSERT_FALSE(got.ok()) << "run " << run;
      EXPECT_TRUE(got.status().IsParseError()) << "run " << run;
      EXPECT_EQ(got.status().message(), want.status().message())
          << "run " << run;
    }
  }
}

// -------------------------------------------- pushdown and zone maps

/// Drains `scan` into a QueryResult, asserting success.
QueryResult MustDrain(RawScanOperator* scan) {
  auto result = QueryResult::Drain(scan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(*result) : QueryResult();
}

ExprPtr LessThan(size_t slot, const std::string& name, int64_t lit) {
  return std::make_shared<CompareExpr>(
      CompareOp::kLt,
      std::make_shared<ColumnRefExpr>(slot, name, DataType::kInt64),
      std::make_shared<LiteralExpr>(Value::Int64(lit), DataType::kInt64));
}

TEST_F(RawScanTest, PushdownMatchesFilterOperatorAndSkipsBlocks) {
  // Fixture values are r * 100 + c: attribute c1 is clustered
  // ascending, so zone maps can prune whole blocks once warm.
  auto info = WriteFixture("t", 500, 6);
  NoDbConfig config = SmallBlocks(true, true, true);
  RawTableState state(info, config);
  ASSERT_TRUE(state.Open().ok());

  // Reference: the unfiltered scan under a FilterOperator — over its
  // own state, so the pushdown scan below starts genuinely cold.
  std::vector<std::string> expected;
  {
    RawTableState ref_state(info, config);
    ASSERT_TRUE(ref_state.Open().ok());
    auto scan = std::make_unique<RawScanOperator>(&ref_state,
        std::vector<uint32_t>{1, 3}, nullptr);
    FilterOperator filter(std::move(scan), LessThan(0, "c1", 10000));
    auto result = QueryResult::Drain(&filter);
    ASSERT_TRUE(result.ok());
    expected = result->CanonicalRows();
    ASSERT_EQ(expected.size(), 100u);  // rows 0..99: r*100+1 < 10000
  }

  // Cold pushdown: phase 1 parses c1 for every row, phase 2 parses c3
  // only for the 100 qualifying rows.
  {
    ScanMetrics metrics;
    RawScanOperator scan(&state, {1, 3}, &metrics);
    scan.SetPushdownPredicates({LessThan(0, "c1", 10000)});
    QueryResult result = MustDrain(&scan);
    EXPECT_EQ(result.CanonicalRows(), expected);
    EXPECT_EQ(metrics.rows_scanned, 500u);
    EXPECT_EQ(metrics.pushdown_rows_pruned, 400u);
    EXPECT_EQ(metrics.pushdown_phase1_fields, 500u);
    EXPECT_EQ(metrics.pushdown_phase2_fields, 100u);
    EXPECT_EQ(metrics.zone_skipped_blocks, 0u);  // no summaries yet
  }

  // Warm: the first scan summarized every block; disjoint blocks are
  // now skipped without locating a single row.
  {
    ScanMetrics metrics;
    RawScanOperator scan(&state, {1, 3}, &metrics);
    scan.SetPushdownPredicates({LessThan(0, "c1", 10000)});
    QueryResult result = MustDrain(&scan);
    EXPECT_EQ(result.CanonicalRows(), expected);
    // Blocks of 64 rows: c1 spans [6400b + 1, 6400b + 6301]; blocks
    // 2..7 have min >= 10000 and vanish (6 of 8, tail included).
    EXPECT_EQ(metrics.zone_skipped_blocks, 6u);
    EXPECT_EQ(metrics.rows_scanned + metrics.zone_skipped_rows, 500u);
    EXPECT_EQ(metrics.pushdown_phase1_fields, 0u);  // cache-served
    // Block 0 passed whole on the cold run, so its c3 column was cached
    // too; only block 1's 36 qualifying rows (64..99) parse c3.
    EXPECT_EQ(metrics.pushdown_phase2_fields, 36u);
  }

  // Pushdown off the same way the planner would leave it: identical.
  {
    RawScanOperator scan(&state, {1, 3}, nullptr);
    QueryResult all = MustDrain(&scan);
    EXPECT_EQ(all.num_rows(), 500u);
  }
}

TEST_F(RawScanTest, PushdownNullSemanticsMatchFilterOperator) {
  // Empty CSV fields parse as NULL. c1 is NULL on every third row and
  // otherwise >= 100, so `c1 < 50` matches nothing — and NULL-bearing
  // blocks must never be zone-skipped, the rows are dropped row by
  // row exactly like FilterOperator drops them.
  std::string content;
  for (int r = 0; r < 200; ++r) {
    content += std::to_string(r) + ",";
    if (r % 3 != 0) content += std::to_string(100 + r);
    content += "," + std::to_string(r * 2) + "\n";
  }
  std::string path = dir_->FilePath("nulls.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"nulls", path,
                    Schema::Make({{"c0", DataType::kInt64},
                                  {"c1", DataType::kInt64},
                                  {"c2", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, SmallBlocks(true, true, true));
  ASSERT_TRUE(state.Open().ok());

  ExprPtr pred = LessThan(1, "c1", 50);
  std::vector<std::string> expected;
  {
    auto scan = std::make_unique<RawScanOperator>(
        &state, std::vector<uint32_t>{0, 1, 2}, nullptr);
    FilterOperator filter(std::move(scan), pred);
    auto result = QueryResult::Drain(&filter);
    ASSERT_TRUE(result.ok());
    expected = result->CanonicalRows();
    EXPECT_TRUE(expected.empty());
  }
  for (int round = 0; round < 2; ++round) {  // cold, then warm zones
    ScanMetrics metrics;
    RawScanOperator scan(&state, {0, 1, 2}, &metrics);
    scan.SetPushdownPredicates({pred});
    QueryResult result = MustDrain(&scan);
    EXPECT_EQ(result.CanonicalRows(), expected);
    // Every block holds NULLs: conservatively non-skippable.
    EXPECT_EQ(metrics.zone_skipped_blocks, 0u);
    EXPECT_EQ(metrics.rows_scanned, 200u);
  }

  // IS NULL rides the pushdown path too (never zone-checked).
  auto is_null = std::make_shared<IsNullExpr>(
      std::make_shared<ColumnRefExpr>(1, "c1", DataType::kInt64), false);
  {
    auto scan = std::make_unique<RawScanOperator>(
        &state, std::vector<uint32_t>{0, 1}, nullptr);
    FilterOperator filter(std::move(scan), is_null);
    auto ref = QueryResult::Drain(&filter);
    ASSERT_TRUE(ref.ok());
    ScanMetrics metrics;
    RawScanOperator pushed(&state, {0, 1}, &metrics);
    pushed.SetPushdownPredicates({is_null});
    QueryResult result = MustDrain(&pushed);
    EXPECT_EQ(result.CanonicalRows(), ref->CanonicalRows());
    EXPECT_EQ(result.num_rows(), 67u);  // rows 0, 3, 6, ... 198
  }
}

TEST_F(RawScanTest, ZoneMapsDropOnAppendAndClearOnRewrite) {
  auto info = WriteFixture("zt", 200, 3);
  NoDbConfig config = SmallBlocks(true, true, true);
  RawTableState state(info, config);
  ASSERT_TRUE(state.Open().ok());
  VerifyScan(&state, {0, 1}, 200);
  ASSERT_GT(state.zones().num_entries(), 0u);
  uint64_t generation = state.zones().generation();

  // Clean append: the frontier block's summaries vanish (block 3 of
  // 64-row blocks holds rows 192..199), earlier full blocks stay.
  size_t before = state.zones().num_entries();
  auto app = OpenAppendableFile(info.path);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append("20000,20001,20002\n").ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kAppended);
  EXPECT_LT(state.zones().num_entries(), before);
  EXPECT_GT(state.zones().num_entries(), 0u);
  EXPECT_EQ(state.zones().generation(), generation);
  ScanMetrics metrics;
  RawScanOperator scan(&state, {0}, &metrics);
  QueryResult result = MustDrain(&scan);
  EXPECT_EQ(result.num_rows(), 201u);

  // Rewrite: everything drops, generation advances, and a stale
  // observation against the old generation is rejected.
  ASSERT_TRUE(WriteStringToFile(info.path, "1,2,3\n4,5,6\n").ok());
  auto rewritten = state.CheckForUpdates();
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(*rewritten, FileChange::kRewritten);
  EXPECT_EQ(state.zones().num_entries(), 0u);
  EXPECT_GT(state.zones().generation(), generation);
  ColumnVector stale(DataType::kInt64);
  stale.AppendInt64(7);
  state.zones().Observe(0, 0, stale, generation);  // old generation
  EXPECT_EQ(state.zones().num_entries(), 0u);
}

TEST_F(RawScanTest, PushdownServesFromShadowStoreWithZoneSkips) {
  auto info = WriteFixture("st", 400, 4);
  NoDbConfig config = SmallBlocks(true, true, true);
  config.enable_store = true;
  config.promote_after_accesses = 1;  // first touch promotes
  RawTableState state(info, config);
  ASSERT_TRUE(state.Open().ok());

  // Touch both columns so the piggyback promotes them block by block.
  VerifyScan(&state, {0, 2}, 400);
  ASSERT_GT(state.segments().stats(SegmentClass::kProtected).segments, 0u);

  // The pushed scan now serves from the store — and zone maps prune
  // store blocks too: only qualifying blocks are even probed.
  ScanMetrics metrics;
  RawScanOperator scan(&state, {0, 2}, &metrics);
  scan.SetPushdownPredicates({LessThan(0, "c0", 10000)});
  QueryResult result = MustDrain(&scan);
  EXPECT_EQ(result.num_rows(), 100u);  // rows 0..99
  EXPECT_GT(metrics.zone_skipped_blocks, 0u);
  EXPECT_GT(metrics.rows_from_store, 0u);
  EXPECT_EQ(metrics.rows_from_raw, 0u);
  EXPECT_EQ(metrics.fields_converted, 0u);
  EXPECT_EQ(metrics.rows_scanned + metrics.zone_skipped_rows, 400u);
}

TEST_F(RawScanTest, ParallelPrewarmBuildsZoneMaps) {
  auto info = WriteFixture("pz", 300, 4);
  RawTableState state(info, SmallBlocks(true, true, true));
  ASSERT_TRUE(state.Open().ok());
  ASSERT_TRUE(ParallelFirstTouch(&state, {0, 2}, 4).ok());
  EXPECT_GT(state.zones().num_entries(), 0u);

  // The first post-prewarm query already zone-skips.
  ScanMetrics metrics;
  RawScanOperator scan(&state, {0, 2}, &metrics);
  scan.SetPushdownPredicates({LessThan(0, "c0", 5000)});
  QueryResult result = MustDrain(&scan);
  EXPECT_EQ(result.num_rows(), 50u);
  EXPECT_GT(metrics.zone_skipped_blocks, 0u);
  EXPECT_EQ(metrics.rows_scanned + metrics.zone_skipped_rows, 300u);
}

TEST_F(RawScanTest, ParallelPrewarmKnobSubsets) {
  // Each knob subset only populates its enabled structures; without
  // the map (blocks are addressed through its row index) the first
  // touch builds nothing.
  auto info = WriteFixture("knobs", 300, 5);
  for (int mask = 0; mask < 8; ++mask) {
    SCOPED_TRACE("mask " + std::to_string(mask));
    RawTableState state(info, SmallBlocks(mask & 1, mask & 2, mask & 4));
    ASSERT_TRUE(ParallelFirstTouch(&state, {1, 3}, 4).ok());
    if (mask & 1) {
      EXPECT_EQ(state.map().known_rows(), 300u);
    } else {
      EXPECT_EQ(state.map().known_rows(), 0u);
    }
    if ((mask & 1) && (mask & 2)) {
      EXPECT_GT(state.segments().stats(SegmentClass::kProbationary).segments,
                0u);
    } else {
      EXPECT_EQ(state.segments().stats(SegmentClass::kProbationary).segments,
                0u);
    }
    VerifyScan(&state, {1, 3}, 300);
  }
}

}  // namespace
}  // namespace nodb
