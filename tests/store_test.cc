// Tests for the segment store: SegmentStore unit behavior per class
// (probationary: the binary cache; protected: the shadow store) —
// quotas, LRU, promotion and demotion, all-or-nothing block probes,
// the generation fence, images — then access-heat tracking,
// piggybacked and background promotion, hybrid store/cache/raw
// serving, append/rewrite lifecycle, and byte-identical results under
// concurrent promotion.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "exec/query_result.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "raw/raw_scan.h"
#include "raw/table_state.h"
#include "store/promoter.h"
#include "store/segment_store.h"
#include "util/random.h"

namespace nodb {
namespace {

constexpr SegmentClass kCache = SegmentClass::kProbationary;
constexpr SegmentClass kStore = SegmentClass::kProtected;

std::shared_ptr<const ColumnVector> MakeSegment(size_t rows,
                                                int64_t start = 0) {
  auto col = std::make_shared<ColumnVector>(DataType::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    col->AppendInt64(start + static_cast<int64_t>(i));
  }
  return col;
}

/// Rows of `attr` held protected (0 when none ever were).
uint64_t ProtectedRows(const SegmentStore& store, uint32_t attr) {
  std::vector<uint64_t> rows = store.protected_rows();
  return attr < rows.size() ? rows[attr] : 0;
}

/// Bytes one segment occupies in either class (payload + entry).
size_t ChargedBytes(size_t rows) {
  SegmentStore sizer(1 << 20, 1 << 20);
  sizer.Put(0, 0, MakeSegment(rows), kCache, sizer.generation());
  return sizer.stats(kCache).bytes;
}

// -------------------------------------------------- probationary class
// The paper's binary cache: hit/miss accounting, LRU eviction under the
// cache quota, replacement of re-parsed blocks, randomized invariants.

TEST(SegmentStoreTest, ProbationaryMissThenHit) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  EXPECT_EQ(store.Get(0, 0, gen), nullptr);
  EXPECT_EQ(store.counters().misses, 1u);
  store.Put(0, 0, MakeSegment(100), kCache, gen);
  SegmentClass cls = kStore;
  auto seg = store.Get(0, 0, gen, &cls);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(cls, kCache);
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(seg->GetInt64(5), 5);
  EXPECT_TRUE(store.Contains(0, 0, kCache));
  EXPECT_FALSE(store.Contains(0, 0, kStore));
  EXPECT_FALSE(store.Contains(0, 1, kCache));
  EXPECT_FALSE(store.Contains(1, 0, kCache));
}

TEST(SegmentStoreTest, KeysAreAttrBlockPairs) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  store.Put(1, 2, MakeSegment(10, 100), kCache, gen);
  store.Put(2, 1, MakeSegment(10, 200), kStore, gen);
  EXPECT_EQ(store.Get(1, 2, gen)->GetInt64(0), 100);
  EXPECT_EQ(store.Get(2, 1, gen)->GetInt64(0), 200);
}

TEST(SegmentStoreTest, ProbationaryReplaceUpdatesBytes) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(10), kCache, gen);
  size_t small = store.stats(kCache).bytes;
  store.Put(0, 0, MakeSegment(1000), kCache, gen);
  EXPECT_GT(store.stats(kCache).bytes, small);
  EXPECT_EQ(store.stats(kCache).segments, 1u);
  EXPECT_EQ(store.Get(0, 0, gen)->size(), 1000u);
}

TEST(SegmentStoreTest, ProbationaryLruEvictionUnderQuota) {
  // Each 100-row int segment is ~900 bytes with overhead; quota for ~4.
  SegmentStore store(4000, 1 << 20);
  const uint64_t gen = store.generation();
  for (uint32_t a = 0; a < 10; ++a) {
    store.Put(a, 0, MakeSegment(100), kCache, gen);
    EXPECT_LE(store.stats(kCache).bytes, 4000u);
  }
  EXPECT_GT(store.stats(kCache).evictions, 0u);
  EXPECT_EQ(store.Get(0, 0, gen), nullptr);  // oldest evicted
  EXPECT_NE(store.Get(9, 0, gen), nullptr);  // newest resident
  EXPECT_EQ(store.stats(kStore).evictions, 0u);    // classes count apart
}

TEST(SegmentStoreTest, ProbationaryGetRefreshesRecency) {
  SegmentStore store(4000, 1 << 20);
  const uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(100), kCache, gen);
  for (uint32_t a = 1; a < 10; ++a) {
    ASSERT_NE(store.Get(0, 0, gen), nullptr) << "a=" << a;  // keep hot
    store.Put(a, 0, MakeSegment(100), kCache, gen);
  }
  EXPECT_NE(store.Get(0, 0, gen), nullptr);
}

TEST(SegmentStoreTest, OversizedSegmentRejectedPerClass) {
  SegmentStore store(100, 100);
  const uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(1000), kCache, gen);
  store.Put(1, 0, MakeSegment(1000), kStore, gen);
  EXPECT_FALSE(store.Contains(0, 0, kCache));
  EXPECT_FALSE(store.Contains(1, 0, kStore));
  EXPECT_EQ(store.stats(kCache).bytes, 0u);
  EXPECT_EQ(store.stats(kStore).bytes, 0u);
  EXPECT_EQ(store.counters().promotions, 0u);
}

TEST(SegmentStoreTest, OversizedReplacementInvalidatesStaleEntry) {
  // Regression: Put() used to return early on an over-quota segment
  // *without* dropping the existing entry under the same key, so a
  // re-parsed block (e.g. the tail after an append) could keep serving
  // its stale predecessor.
  SegmentStore store(2000, 1 << 20);
  const uint64_t gen = store.generation();
  store.Put(3, 7, MakeSegment(10, 100), kCache, gen);
  ASSERT_NE(store.Get(3, 7, gen), nullptr);
  ASSERT_GT(store.stats(kCache).bytes, 0u);

  store.Put(3, 7, MakeSegment(100000, 999), kCache, gen);  // > quota
  EXPECT_FALSE(store.Contains(3, 7, kCache));
  EXPECT_EQ(store.Get(3, 7, gen), nullptr);  // stale data must be gone
  EXPECT_EQ(store.stats(kCache).bytes, 0u);
  EXPECT_EQ(store.stats(kCache).segments, 0u);
}

TEST(SegmentStoreTest, ClearResetsContentKeepsCounters) {
  SegmentStore store(1 << 20, 1 << 20);
  uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(10), kCache, gen);
  store.Put(1, 0, MakeSegment(10), kStore, gen);
  ASSERT_NE(store.Get(0, 0, gen), nullptr);
  store.Clear();
  gen = store.generation();
  for (SegmentClass cls : {kCache, kStore}) {
    EXPECT_EQ(store.stats(cls).segments, 0u);
    EXPECT_EQ(store.stats(cls).bytes, 0u);
  }
  EXPECT_EQ(ProtectedRows(store, 1), 0u);
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(store.counters().promotions, 1u);
  EXPECT_EQ(store.Get(0, 0, gen), nullptr);
}

TEST(SegmentStoreTest, UtilizationTracksQuotaPerClass) {
  SegmentStore store(10000, 20000);
  const uint64_t gen = store.generation();
  EXPECT_DOUBLE_EQ(store.stats(kCache).utilization(), 0.0);
  store.Put(0, 0, MakeSegment(100), kCache, gen);
  EXPECT_GT(store.stats(kCache).utilization(), 0.0);
  EXPECT_LE(store.stats(kCache).utilization(), 1.0);
  EXPECT_DOUBLE_EQ(store.stats(kStore).utilization(), 0.0);
  store.Put(1, 0, MakeSegment(100), kStore, gen);
  EXPECT_DOUBLE_EQ(store.stats(kStore).utilization(),
                   store.stats(kCache).utilization() / 2);
}

/// Property sweep across quotas: no class ever exceeds its quota, hits
/// always return the exact segment last inserted, and hit+miss counts
/// equal the number of Gets.
class SegmentQuotaSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SegmentQuotaSweep, InvariantsUnderRandomAccess) {
  const size_t quota = GetParam();
  SegmentStore store(quota, quota / 2);
  const uint64_t gen = store.generation();
  Random rng(quota);
  uint64_t gets = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    uint32_t attr = static_cast<uint32_t>(rng.Uniform(8));
    uint64_t block = rng.Uniform(8);
    if (rng.Bernoulli(0.5)) {
      store.Put(attr, block,
                MakeSegment(1 + rng.Uniform(200),
                            static_cast<int64_t>(attr * 1000 + block)),
                rng.Bernoulli(0.3) ? kStore : kCache, gen);
    } else {
      ++gets;
      auto seg = store.Get(attr, block, gen);
      if (seg != nullptr) {
        EXPECT_EQ(seg->GetInt64(0),
                  static_cast<int64_t>(attr * 1000 + block));
      }
    }
    ASSERT_LE(store.stats(kCache).bytes, store.stats(kCache).quota);
    ASSERT_LE(store.stats(kStore).bytes, store.stats(kStore).quota);
  }
  EXPECT_EQ(store.counters().hits + store.counters().misses, gets);
}

INSTANTIATE_TEST_SUITE_P(Quotas, SegmentQuotaSweep,
                         ::testing::Values(2000, 8000, 64000, 1 << 20));

TEST(SegmentStoreConcurrencyTest, ConcurrentGetPutStaysConsistent) {
  // Eight threads hammer one small store with mixed Get/Put/Contains
  // across both classes; every segment for key (attr, block) carries a
  // key-derived marker, so any cross-wired entry or torn LRU touch
  // shows up as a wrong value (and TSan sees any unlocked access).
  SegmentStore store(16000, 8000);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      Random rng(1000 + static_cast<uint64_t>(t));
      const uint64_t gen = store.generation();
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint32_t attr = static_cast<uint32_t>(rng.Uniform(4));
        uint64_t block = rng.Uniform(16);
        switch (rng.Uniform(4)) {
          case 0:
          case 1:
            store.Put(attr, block,
                      MakeSegment(1 + rng.Uniform(50),
                                  static_cast<int64_t>(attr * 1000 + block)),
                      rng.Bernoulli(0.5) ? kStore : kCache, gen);
            break;
          case 2: {
            auto seg = store.Get(attr, block, gen);
            if (seg != nullptr) {
              EXPECT_EQ(seg->GetInt64(0),
                        static_cast<int64_t>(attr * 1000 + block));
            }
            break;
          }
          default:
            store.Contains(attr, block, kStore);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_LE(store.stats(kCache).bytes, store.stats(kCache).quota);
  EXPECT_LE(store.stats(kStore).bytes, store.stats(kStore).quota);
  EXPECT_GT(store.counters().hits + store.counters().misses, 0u);
  // The store still works after the storm.
  const uint64_t gen = store.generation();
  store.Put(9, 9, MakeSegment(5, 9009), kCache, gen);
  auto seg = store.Get(9, 9, gen);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->GetInt64(0), 9009);
}

TEST(SegmentStoreConcurrencyTest, HitsSurviveConcurrentEviction) {
  // A reader holds segments it got from the store while a writer floods
  // both classes and evicts everything repeatedly: shared ownership
  // must keep every held segment valid and unchanged.
  SegmentStore store(8000, 4000);
  const uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(64, 42), kCache, gen);

  std::thread writer([&store, gen] {
    for (int round = 0; round < 2000; ++round) {
      store.Put(1, static_cast<uint64_t>(round % 8),
                MakeSegment(128, round), round % 2 ? kStore : kCache, gen);
    }
  });

  for (int i = 0; i < 2000; ++i) {
    auto seg = store.Get(0, 0, gen);
    if (seg == nullptr) {
      store.Put(0, 0, MakeSegment(64, 42), kCache, gen);
      continue;
    }
    ASSERT_EQ(seg->size(), 64u);
    EXPECT_EQ(seg->GetInt64(0), 42);
    EXPECT_EQ(seg->GetInt64(63), 42 + 63);
  }
  writer.join();
}

// ----------------------------------------------------- protected class
// The shadow store: promotion, all-or-nothing block probes, LRU under
// the store quota with demotion, invalidation.

TEST(SegmentStoreTest, PromoteGetContainsAndCoverage) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  EXPECT_EQ(store.Get(0, 0, gen), nullptr);
  EXPECT_FALSE(store.Contains(0, 0, kStore));

  store.Put(0, 0, MakeSegment(64, 0), kStore, gen);
  store.Put(0, 1, MakeSegment(64, 64), kStore, gen);
  store.Put(3, 0, MakeSegment(64, 0), kStore, gen);
  EXPECT_TRUE(store.Contains(0, 0, kStore));
  EXPECT_TRUE(store.Contains(3, 0, kStore));
  EXPECT_EQ(store.stats(kStore).segments, 3u);
  EXPECT_EQ(store.counters().promotions, 3u);
  EXPECT_EQ(ProtectedRows(store, 0), 128u);
  EXPECT_EQ(ProtectedRows(store, 3), 64u);
  EXPECT_EQ(ProtectedRows(store, 1), 0u);

  SegmentClass cls = kCache;
  auto seg = store.Get(0, 1, gen, &cls);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(cls, kStore);
  EXPECT_EQ(seg->GetInt64(0), 64);

  // Promoting again is a no-op: the resident segment parsed the same
  // bytes. So is a probationary insert of the same block.
  store.Put(0, 0, MakeSegment(64, 1000), kStore, gen);
  store.Put(0, 0, MakeSegment(64, 2000), kCache, gen);
  EXPECT_EQ(store.counters().promotions, 3u);
  EXPECT_EQ(store.stats(kCache).segments, 0u);
  EXPECT_EQ(store.Get(0, 0, gen)->GetInt64(0), 0);

  EXPECT_EQ(store.protected_rows(),
            (std::vector<uint64_t>{128, 0, 0, 64}));
}

TEST(SegmentStoreTest, PromotionIsAClassChangeNotACopy) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  auto segment = MakeSegment(64, 7);
  store.Put(2, 4, segment, kCache, gen);
  const size_t bytes = store.stats(kCache).bytes;
  ASSERT_GT(bytes, 0u);

  store.Put(2, 4, segment, kStore, gen);
  EXPECT_FALSE(store.Contains(2, 4, kCache));
  EXPECT_TRUE(store.Contains(2, 4, kStore));
  EXPECT_EQ(store.stats(kCache).bytes, 0u);
  EXPECT_EQ(store.stats(kStore).bytes, bytes);
  EXPECT_EQ(store.counters().promotions, 1u);
  EXPECT_EQ(store.Get(2, 4, gen), segment);  // the same shared segment

  // A longer re-parse of the block replaces a shorter protected one
  // (a stale pre-append tail); a shorter one never does.
  store.Put(2, 4, MakeSegment(80, 7), kCache, gen);
  EXPECT_TRUE(store.Contains(2, 4, kCache));
  EXPECT_EQ(ProtectedRows(store, 2), 0u);
  store.Put(2, 4, MakeSegment(80, 7), kStore, gen);
  store.Put(2, 4, MakeSegment(16, 7), kCache, gen);
  EXPECT_EQ(store.Get(2, 4, gen)->size(), 80u);

  // A promotion that could never fit leaves the probationary copy be.
  SegmentStore small(1 << 20, 64);
  small.Put(0, 0, segment, kCache, small.generation());
  small.Put(0, 0, segment, kStore, small.generation());
  EXPECT_TRUE(small.Contains(0, 0, kCache));
  EXPECT_EQ(small.counters().promotions, 0u);
}

TEST(SegmentStoreTest, GetProtectedBlockIsAllOrNothing) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  store.Put(0, 2, MakeSegment(64, 0), kStore, gen);
  store.Put(5, 2, MakeSegment(64, 100), kStore, gen);
  store.Put(3, 2, MakeSegment(64, 300), kCache, gen);

  std::vector<std::shared_ptr<const ColumnVector>> segs;
  EXPECT_TRUE(store.GetProtectedBlock({0, 5}, 2, gen, &segs));
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1]->GetInt64(0), 100);
  EXPECT_EQ(store.counters().block_hits, 1u);

  // One attribute only probationary: nothing is returned, one miss.
  EXPECT_FALSE(store.GetProtectedBlock({0, 3, 5}, 2, gen, &segs));
  EXPECT_TRUE(segs.empty());
  EXPECT_EQ(store.counters().block_misses, 1u);
  EXPECT_EQ(store.counters().block_hits, 1u);
}

TEST(SegmentStoreTest, ProtectedLruEvictionDemotesToProbationary) {
  const size_t one_segment = ChargedBytes(64);
  SegmentStore store(1 << 20, one_segment * 2 + one_segment / 2);
  const uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(64, 0), kStore, gen);
  store.Put(0, 1, MakeSegment(64, 64), kStore, gen);
  EXPECT_EQ(store.stats(kStore).evictions, 0u);

  // Touch block 0 so block 1 is the LRU victim.
  ASSERT_NE(store.Get(0, 0, gen), nullptr);
  store.Put(0, 2, MakeSegment(64, 128), kStore, gen);
  EXPECT_EQ(store.stats(kStore).evictions, 1u);
  EXPECT_TRUE(store.Contains(0, 0, kStore));
  EXPECT_FALSE(store.Contains(0, 1, kStore));
  EXPECT_TRUE(store.Contains(0, 2, kStore));
  EXPECT_LE(store.stats(kStore).bytes, store.stats(kStore).quota);
  EXPECT_EQ(ProtectedRows(store, 0), 128u);
  // Segmented LRU: the victim gets a second chance as probationary.
  EXPECT_TRUE(store.Contains(0, 1, kCache));
  EXPECT_EQ(store.Get(0, 1, gen)->GetInt64(0), 64);

  // ...unless the probationary class could never hold it.
  SegmentStore no_cache(0, one_segment);
  no_cache.Put(0, 0, MakeSegment(64, 0), kStore, no_cache.generation());
  no_cache.Put(0, 1, MakeSegment(64, 0), kStore, no_cache.generation());
  EXPECT_EQ(no_cache.stats(kStore).segments, 1u);
  EXPECT_EQ(no_cache.stats(kCache).segments, 0u);
  EXPECT_EQ(no_cache.stats(kStore).evictions, 1u);
}

TEST(SegmentStoreTest, DropBlocksAndClear) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(64, 0), kStore, gen);
  store.Put(0, 1, MakeSegment(64, 64), kStore, gen);
  store.Put(1, 2, MakeSegment(32, 0), kStore, gen);
  store.Put(2, 1, MakeSegment(32, 0), kCache, gen);
  store.Put(2, 3, MakeSegment(32, 0), kCache, gen);

  store.DropBlocks(3, 4);
  EXPECT_FALSE(store.Contains(2, 3, kCache));
  EXPECT_TRUE(store.Contains(2, 1, kCache));

  store.DropBlocks(1, UINT64_MAX);
  EXPECT_TRUE(store.Contains(0, 0, kStore));
  EXPECT_FALSE(store.Contains(0, 1, kStore));
  EXPECT_FALSE(store.Contains(1, 2, kStore));
  EXPECT_FALSE(store.Contains(2, 1, kCache));
  EXPECT_EQ(ProtectedRows(store, 0), 64u);
  EXPECT_EQ(ProtectedRows(store, 1), 0u);

  store.Clear();
  EXPECT_EQ(store.stats(kStore).segments, 0u);
  EXPECT_EQ(store.stats(kStore).bytes, 0u);
  EXPECT_EQ(ProtectedRows(store, 0), 0u);
}

TEST(SegmentStoreTest, StaleGenerationIsFencedInBothClasses) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t before = store.generation();
  store.Put(0, 0, MakeSegment(64, 0), kStore, before);
  store.Put(1, 0, MakeSegment(64, 0), kCache, before);
  ASSERT_TRUE(store.Contains(0, 0, kStore));

  // A rewrite clears the store and moves the generation: an in-flight
  // scan that parsed the old file must not repopulate either class...
  store.Clear();
  const uint64_t now = store.generation();
  EXPECT_NE(now, before);
  store.Put(0, 0, MakeSegment(64, 999), kStore, before);
  store.Put(1, 0, MakeSegment(64, 999), kCache, before);
  EXPECT_EQ(store.stats(kStore).segments, 0u);
  EXPECT_EQ(store.stats(kCache).segments, 0u);

  // ...nor read segments of the new file.
  store.Put(0, 0, MakeSegment(64, 7), kStore, now);
  store.Put(1, 0, MakeSegment(64, 8), kCache, now);
  std::vector<std::shared_ptr<const ColumnVector>> segs;
  EXPECT_EQ(store.Get(1, 0, before), nullptr);
  EXPECT_FALSE(store.GetProtectedBlock({0}, 0, before, &segs));
  EXPECT_EQ(store.Get(0, 0, now)->GetInt64(0), 7);
  EXPECT_EQ(store.Get(1, 0, now)->GetInt64(0), 8);
}

TEST(SegmentStoreTest, ImageHoldsOnlyTheProtectedClass) {
  SegmentStore store(1 << 20, 1 << 20);
  const uint64_t gen = store.generation();
  store.Put(0, 0, MakeSegment(64, 0), kStore, gen);
  store.Put(0, 1, MakeSegment(64, 64), kStore, gen);
  store.Put(1, 0, MakeSegment(64, 0), kCache, gen);
  SegmentStore::Image image = store.ExportImage();
  ASSERT_EQ(image.segments.size(), 2u);
  EXPECT_EQ(image.segments[0].block, 1u);  // most recent first

  SegmentStore restored(1 << 20, 1 << 20);
  EXPECT_TRUE(restored.ImportImage(image));
  EXPECT_EQ(restored.stats(kStore).segments, 2u);
  EXPECT_EQ(restored.stats(kCache).segments, 0u);
  EXPECT_EQ(restored.ExportImage().segments[0].block, 1u);
  EXPECT_FALSE(restored.ImportImage(image));  // live state wins
}

// ---------------------------------------------------------------------
// State-level integration: heat, piggybacked promotion, hybrid serving.

class StoreScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-store");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
  }

  /// value(row, col) = row * 100 + col, like raw_scan_test's fixture.
  RawTableInfo WriteFixture(const std::string& name, size_t rows,
                            size_t cols) {
    std::string content;
    std::vector<Field> fields;
    for (size_t c = 0; c < cols; ++c) {
      fields.push_back(Field{"c" + std::to_string(c), DataType::kInt64});
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
    return RawTableInfo{name, path, Schema::Make(fields), CsvDialect()};
  }

  NoDbConfig StoreConfig() {
    NoDbConfig config;
    config.rows_per_block = 64;
    config.promote_after_accesses = 2;
    return config;
  }

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

  std::unique_ptr<TempDir> dir_;
};

TEST_F(StoreScanTest, HeatTracksAccessesAndHotAttributes) {
  auto info = WriteFixture("t", 10, 4);
  RawTableState state(info, StoreConfig());
  ASSERT_TRUE(state.Open().ok());
  EXPECT_TRUE(HotAttributes(state).empty());

  state.RecordAttributeAccess({0, 2});
  EXPECT_EQ(state.stats().access_heat(0), 1u);
  EXPECT_EQ(state.stats().access_heat(1), 0u);
  EXPECT_TRUE(HotAttributes(state).empty());

  state.RecordAttributeAccess({0, 2});
  EXPECT_EQ(state.stats().access_heat(0), 2u);
  EXPECT_EQ(HotAttributes(state), (std::vector<uint32_t>{0, 2}));
}

TEST_F(StoreScanTest, ThirdScanIsServedEntirelyFromStore) {
  auto info = WriteFixture("t", 300, 6);
  RawTableState state(info, StoreConfig());

  ScanMetrics cold;
  VerifyScan(&state, {0, 2}, 300, &cold);
  EXPECT_EQ(cold.rows_from_store, 0u);
  EXPECT_EQ(cold.rows_from_raw, 300u);
  // Heat 1 < threshold 2: nothing promoted yet.
  EXPECT_EQ(state.segments().stats(kStore).segments, 0u);

  // The second scan crosses the threshold: cache segments are handed
  // to the store as blocks commit (no re-parse), but serving is still
  // the cache path.
  ScanMetrics warm;
  VerifyScan(&state, {0, 2}, 300, &warm);
  EXPECT_EQ(warm.rows_from_store, 0u);
  EXPECT_EQ(warm.rows_from_cache, 300u);
  EXPECT_EQ(ProtectedRows(state.segments(), 0), 300u);
  EXPECT_EQ(ProtectedRows(state.segments(), 2), 300u);

  // Third scan: every block is materialized — no row location, no
  // tokenizing, no parsing, no raw-file I/O.
  ScanMetrics hot;
  VerifyScan(&state, {0, 2}, 300, &hot);
  EXPECT_EQ(hot.rows_from_store, 300u);
  EXPECT_EQ(hot.rows_from_cache, 0u);
  EXPECT_EQ(hot.rows_from_raw, 0u);
  EXPECT_GT(hot.store_block_hits, 0u);
  EXPECT_EQ(hot.fields_tokenized, 0u);
  EXPECT_EQ(hot.fields_converted, 0u);
  EXPECT_EQ(hot.bytes_read, 0u);
  EXPECT_EQ(hot.map_exact_probes, 0u);  // no positional-map lookups
}

TEST_F(StoreScanTest, PromotionWithoutCacheParsesOnceThenServes) {
  auto info = WriteFixture("t", 200, 5);
  NoDbConfig config = StoreConfig();
  config.enable_cache = false;  // piggyback must use the parsed vectors
  RawTableState state(info, config);

  VerifyScan(&state, {1}, 200);
  ScanMetrics warm;
  VerifyScan(&state, {1}, 200, &warm);
  EXPECT_GT(warm.fields_converted, 0u);  // no cache: re-parsed once more
  EXPECT_EQ(ProtectedRows(state.segments(), 1), 200u);

  ScanMetrics hot;
  VerifyScan(&state, {1}, 200, &hot);
  EXPECT_EQ(hot.rows_from_store, 200u);
  EXPECT_EQ(hot.fields_converted, 0u);
}

TEST_F(StoreScanTest, PromotionWorksWithCacheAndStatsDisabled) {
  // Regression: with cache AND statistics off, the store is the only
  // consumer of the per-block building vectors — the side-effect path
  // must still run for them.
  auto info = WriteFixture("t", 200, 5);
  NoDbConfig config = StoreConfig();
  config.enable_cache = false;
  config.enable_statistics = false;
  RawTableState state(info, config);

  VerifyScan(&state, {1}, 200);
  VerifyScan(&state, {1}, 200);
  EXPECT_EQ(ProtectedRows(state.segments(), 1), 200u);

  ScanMetrics hot;
  VerifyScan(&state, {1}, 200, &hot);
  EXPECT_EQ(hot.rows_from_store, 200u);
  EXPECT_EQ(hot.fields_converted, 0u);
}

TEST_F(StoreScanTest, ServingRequiresPositionalMap) {
  auto info = WriteFixture("t", 300, 4);
  NoDbConfig config = StoreConfig();
  config.enable_positional_map = false;
  RawTableState state(info, config);

  for (int i = 0; i < 3; ++i) {
    ScanMetrics metrics;
    VerifyScan(&state, {0, 1}, 300, &metrics);
    // The hybrid plan's raw residue needs the map to locate rows, so
    // the store fast path stays off without it.
    EXPECT_EQ(metrics.rows_from_store, 0u);
  }
}

TEST_F(StoreScanTest, HybridPlanServesStorePrefixAndCacheTail) {
  auto info = WriteFixture("t", 640, 4);  // 10 blocks of 64
  NoDbConfig config = StoreConfig();
  config.promote_after_accesses = 100;  // promotion only by hand below
  RawTableState state(info, config);

  VerifyScan(&state, {3}, 640);  // fills map + cache
  // Materialize only the first half of the column: the scan must mix
  // store-served blocks with cache-served blocks in one pass.
  for (uint64_t block = 0; block < 5; ++block) {
    const uint64_t gen = state.segments().generation();
    auto seg = state.segments().Get(3, block, gen);
    ASSERT_NE(seg, nullptr);
    state.segments().Put(3, block, seg, kStore, gen);
  }

  ScanMetrics mixed;
  VerifyScan(&state, {3}, 640, &mixed);
  EXPECT_EQ(mixed.rows_from_store, 5u * 64u);
  EXPECT_EQ(mixed.rows_from_cache, 640u - 5u * 64u);
  EXPECT_EQ(mixed.rows_from_raw, 0u);
  EXPECT_EQ(mixed.store_block_hits, 5u);
}

TEST_F(StoreScanTest, TinyBudgetEvictsButResultsStayCorrect) {
  auto info = WriteFixture("t", 640, 4);  // 10 blocks of 64
  NoDbConfig config = StoreConfig();
  // Room for roughly half the blocks of one column: eviction races
  // promotion, and repeated scans keep re-promoting under pressure.
  config.store_budget = MakeSegment(64, 0)->MemoryUsage() * 5;
  RawTableState state(info, config);

  for (int i = 0; i < 3; ++i) {
    ScanMetrics metrics;
    VerifyScan(&state, {3}, 640, &metrics);
    EXPECT_EQ(metrics.rows_from_store + metrics.rows_from_cache +
                  metrics.rows_from_raw,
              640u);
  }
  EXPECT_GT(state.segments().stats(kStore).evictions, 0u);
  EXPECT_LE(state.segments().stats(kStore).bytes,
            state.segments().stats(kStore).quota);
  EXPECT_GT(state.segments().stats(kStore).segments, 0u);
}

TEST_F(StoreScanTest, AppendKeepsPromotedPrefixAndPromotesTail) {
  NoDbConfig config = StoreConfig();
  config.rows_per_block = 16;
  // 100 rows: blocks 0-5 full, block 6 holds 4 rows.
  std::string content;
  for (int r = 0; r < 100; ++r) {
    content += std::to_string(r) + "," + std::to_string(r * 2) + "\n";
  }
  std::string path = dir_->FilePath("t.csv");
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  RawTableInfo info{"t", path,
                    Schema::Make({{"a", DataType::kInt64},
                                  {"b", DataType::kInt64}}),
                    CsvDialect()};
  RawTableState state(info, config);

  auto scan_all = [&](ScanMetrics* metrics, size_t expect) {
    RawScanOperator scan(&state, {0, 1}, metrics);
    auto result = QueryResult::Drain(&scan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), expect);
    for (size_t r = 0; r < expect; ++r) {
      ASSERT_EQ(result->Row(r)[0], Value::Int64(static_cast<int64_t>(r)));
      ASSERT_EQ(result->Row(r)[1],
                Value::Int64(static_cast<int64_t>(r) * 2));
    }
  };
  scan_all(nullptr, 100);
  scan_all(nullptr, 100);
  ASSERT_EQ(ProtectedRows(state.segments(), 0), 100u);

  // Clean append of 28 rows: blocks 6 and 7 become full.
  auto app = OpenAppendableFile(path);
  ASSERT_TRUE(app.ok());
  std::string extra;
  for (int r = 100; r < 128; ++r) {
    extra += std::to_string(r) + "," + std::to_string(r * 2) + "\n";
  }
  ASSERT_TRUE((*app)->Append(extra).ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kAppended);

  // The partial tail block (6) was dropped; full blocks 0-5 survive.
  EXPECT_EQ(ProtectedRows(state.segments(), 0), 96u);
  EXPECT_TRUE(state.segments().Contains(0, 5, kStore));
  EXPECT_FALSE(state.segments().Contains(0, 6, kStore));

  // First post-append scan: prefix from the store, tail re-parsed and
  // re-promoted as its blocks fill.
  ScanMetrics after;
  scan_all(&after, 128);
  EXPECT_EQ(after.rows_from_store, 96u);
  EXPECT_EQ(ProtectedRows(state.segments(), 0), 128u);

  ScanMetrics hot;
  scan_all(&hot, 128);
  EXPECT_EQ(hot.rows_from_store, 128u);
}

TEST_F(StoreScanTest, RewriteDropsStoreAndHeat) {
  auto info = WriteFixture("t", 120, 3);
  RawTableState state(info, StoreConfig());
  VerifyScan(&state, {0, 1}, 120);
  VerifyScan(&state, {0, 1}, 120);
  ASSERT_GT(state.segments().stats(kStore).segments, 0u);
  ASSERT_GE(state.stats().access_heat(0), 2u);

  std::string fresh;
  for (int r = 0; r < 30; ++r) fresh += "7,8,9\n";
  ASSERT_TRUE(WriteStringToFile(info.path, fresh).ok());
  auto change = state.CheckForUpdates();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
  EXPECT_EQ(state.segments().stats(kStore).segments, 0u);
  EXPECT_EQ(state.stats().access_heat(0), 0u);

  RawScanOperator scan(&state, {0, 1, 2}, nullptr);
  auto result = QueryResult::Drain(&scan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 30u);
  EXPECT_EQ(result->Row(0)[0], Value::Int64(7));
}

// ---------------------------------------------------------------------
// Engine-level: background promotion and concurrent serving.

class StoreEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-store-engine");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    path_ = dir_->FilePath("t.csv");
    std::string content;
    for (int r = 0; r < 3000; ++r) {
      content += std::to_string(r) + "," + std::to_string(r % 13) + "," +
                 std::to_string(r * 3) + "\n";
    }
    ASSERT_TRUE(WriteStringToFile(path_, content).ok());
    schema_ = Schema::Make({{"id", DataType::kInt64},
                            {"grp", DataType::kInt64},
                            {"x", DataType::kInt64}});
    ASSERT_TRUE(
        catalog_.RegisterTable({"t", path_, schema_, CsvDialect()}).ok());
  }

  std::unique_ptr<TempDir> dir_;
  Catalog catalog_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
};

TEST_F(StoreEngineTest, BackgroundPromotionCompletesWhatLimitScansSkip) {
  NoDbConfig config;
  config.rows_per_block = 64;
  config.promote_after_accesses = 2;
  NoDbEngine engine(catalog_, config);

  // LIMIT abandons the scan after the first batch: piggybacking alone
  // cannot cover the file, so the background pass must finish the job.
  ASSERT_TRUE(engine.Execute("SELECT id FROM t LIMIT 10").ok());
  ASSERT_TRUE(engine.Execute("SELECT id FROM t LIMIT 10").ok());
  engine.WaitForPromotions();

  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->map().rows_complete());
  EXPECT_EQ(state->map().known_rows(), 3000u);
  EXPECT_EQ(ProtectedRows(state->segments(), 0), 3000u);

  auto hot = engine.Execute("SELECT id FROM t LIMIT 10");
  ASSERT_TRUE(hot.ok());
  EXPECT_GT(hot->metrics.scan.rows_from_store, 0u);
  EXPECT_EQ(hot->metrics.scan.fields_converted, 0u);
}

TEST_F(StoreEngineTest, FullyMaterializedPresetLoadsOnFirstTouch) {
  NoDbConfig config = NoDbConfig::FullyMaterialized();
  config.rows_per_block = 128;
  NoDbEngine engine(catalog_, config);

  auto first = engine.Execute("SELECT id, x FROM t WHERE x > 30");
  ASSERT_TRUE(first.ok());
  engine.WaitForPromotions();
  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(ProtectedRows(state->segments(), 0), 3000u);
  EXPECT_EQ(ProtectedRows(state->segments(), 2), 3000u);

  auto second = engine.Execute("SELECT id, x FROM t WHERE x > 30");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->metrics.scan.rows_from_store, 3000u);
  EXPECT_EQ(second->result.CanonicalRows(), first->result.CanonicalRows());
}

TEST_F(StoreEngineTest, StoreToggleDisablesServingButKeepsResults) {
  NoDbConfig config;
  config.rows_per_block = 64;
  config.promote_after_accesses = 2;
  NoDbEngine engine(catalog_, config);
  const char* sql = "SELECT grp, x FROM t WHERE id < 500 ORDER BY id";

  auto baseline = engine.Execute(sql);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(engine.Execute(sql).ok());
  engine.WaitForPromotions();

  engine.SetStoreEnabled(false);
  auto off = engine.Execute(sql);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->metrics.scan.rows_from_store, 0u);
  EXPECT_EQ(off->result.CanonicalRows(), baseline->result.CanonicalRows());

  engine.SetStoreEnabled(true);
  auto on = engine.Execute(sql);
  ASSERT_TRUE(on.ok());
  EXPECT_GT(on->metrics.scan.rows_from_store, 0u);
  EXPECT_EQ(on->result.CanonicalRows(), baseline->result.CanonicalRows());
}

TEST_F(StoreEngineTest, QueriesRacingRewritesAnswerOneFileVersion) {
  // Four clients query while the file is atomically replaced, over and
  // over, by versions of different lengths and row widths. Every query
  // starts on one version and must answer exactly that version's rows
  // — or fail with the clean error of a scan that can no longer locate
  // rows on its old file — and no stale row, chunk or segment may leak
  // into a later version's answers.
  struct Version {
    std::string content;
    std::string answer;  // "n,s" canonical row
  };
  std::vector<Version> versions;
  for (int v = 0; v < 3; ++v) {
    Version version;
    const int64_t first = v * 100000;
    const int64_t rows = 2000 + v * 700;
    int64_t sum = 0;
    for (int64_t id = first; id < first + rows; ++id) {
      version.content += std::to_string(id) + "," + std::to_string(id % 13) +
                         "," + std::to_string(id * 3) + "\n";
      sum += id * 3;
    }
    version.answer = std::to_string(rows) + "|" + std::to_string(sum);
    versions.push_back(std::move(version));
  }
  ASSERT_TRUE(WriteFileAtomic(path_, versions[0].content).ok());

  NoDbConfig config;
  config.rows_per_block = 64;
  config.promote_after_accesses = 2;
  NoDbEngine engine(catalog_, config);
  const char* sql = "SELECT COUNT(*) AS n, SUM(x) AS s FROM t";

  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        auto outcome = engine.Execute(sql);
        if (!outcome.ok()) {
          EXPECT_TRUE(outcome.status().IsIOError())
              << outcome.status().ToString();
          continue;
        }
        const QueryResult& result = outcome->result;
        ASSERT_EQ(result.num_rows(), 1u);
        std::string got = result.Row(0)[0].ToString() + "|" +
                          result.Row(0)[1].ToString();
        bool known = false;
        for (const Version& v : versions) known = known || got == v.answer;
        EXPECT_TRUE(known) << got;
        ++answered;
      }
    });
  }
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(WriteFileAtomic(path_, versions[i % 3].content).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  stop = true;
  for (auto& th : clients) th.join();
  engine.WaitForPromotions();
  EXPECT_GT(answered.load(), 0);

  // Settled on the last version, the adapted engine answers it.
  auto settled = engine.Execute(sql);
  ASSERT_TRUE(settled.ok()) << settled.status().ToString();
  EXPECT_EQ(settled->result.Row(0)[0].ToString() + "|" +
                settled->result.Row(0)[1].ToString(),
            versions[30 % 3].answer);
}

TEST_F(StoreEngineTest, ConcurrentPromotionStaysByteIdentical) {
  NoDbConfig config;
  config.rows_per_block = 32;  // many blocks promoting concurrently
  config.promote_after_accesses = 2;
  // A constrained store keeps eviction racing promotion and serving.
  config.store_budget = 64 * 1024;
  NoDbEngine engine(catalog_, config);

  LoadFirstEngine reference(catalog_, LoadProfile::kPostgres);
  ASSERT_TRUE(reference.Initialize().ok());

  const std::vector<std::string> unique = {
      "SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM t GROUP BY grp "
      "ORDER BY grp",
      "SELECT id, x FROM t WHERE x > 600 ORDER BY id LIMIT 25",
      "SELECT COUNT(*) AS n FROM t WHERE grp = 7",
      "SELECT MIN(x) AS lo, MAX(x) AS hi FROM t",
      "SELECT id FROM t WHERE id >= 2990 ORDER BY id",
  };
  std::vector<std::string> batch;
  std::vector<std::vector<std::string>> expected;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& sql : unique) batch.push_back(sql);
  }
  for (const auto& sql : batch) {
    auto ref = reference.Execute(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    expected.push_back(ref->result.CanonicalRows());
  }

  // Three rounds over shared state: cold, promoting, store-served —
  // with background promotion passes overlapping the later rounds.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ConcurrentBatchOutcome outcome = engine.ExecuteConcurrent(batch, 8);
    ASSERT_EQ(outcome.reports.size(), batch.size());
    EXPECT_EQ(outcome.failures(), 0u);
    for (size_t i = 0; i < outcome.reports.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i) + ": " + batch[i]);
      ASSERT_TRUE(outcome.reports[i].status.ok())
          << outcome.reports[i].status.ToString();
      EXPECT_EQ(outcome.reports[i].result.CanonicalRows(), expected[i]);
    }
  }
  engine.WaitForPromotions();

  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_GT(state->segments().counters().promotions, 0u);
  EXPECT_GT(state->segments().counters().block_hits, 0u);
  EXPECT_LE(state->segments().stats(kStore).bytes,
            state->segments().stats(kStore).quota);
}

}  // namespace
}  // namespace nodb
