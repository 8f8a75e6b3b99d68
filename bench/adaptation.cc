// Experiment E3 — §4.2 Query Adaptation.
//
// Epochs of Select-Project queries over shifting parts of the input
// file, with constrained map/cache budgets: response times drop within
// an epoch as structures warm, jump at epoch boundaries when the
// workload moves, and old-epoch state is evicted (LRU). Each query row
// also reports its storage-tier breakdown — rows served from the
// shadow store vs the raw cache vs the raw file — showing hot columns
// graduating to the store as their heat crosses the promotion
// threshold. Prints the per-query response-time series plus eviction
// counters — the data behind the demo's "query adaptation"
// visualization.
//
// Usage: adaptation [tuples]   (default 100000; CI smoke passes less)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "engines/nodb_engine.h"
#include "util/stopwatch.h"

using namespace nodb;
using namespace nodb::bench;

int main(int argc, char** argv) {
  PrintHeader("E3 / query adaptation across workload epochs");
  uint64_t tuples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  Workload w = MakeIntWorkload("adapt", tuples, 40);

  NoDbConfig config;
  config.rows_per_block = 4096;
  // One epoch's 5-attribute window fits; three epochs' history does not.
  config.positional_map_budget = 12u << 20;
  config.cache_budget = 14u << 20;
  NoDbEngine engine(w.catalog, config);

  constexpr int kEpochs = 4;
  constexpr int kQueriesPerEpoch = 8;

  std::printf(
      "\nepoch,query,attr_window,total_ms,tokenize_ms,convert_ms,io_ms,"
      "rows_store,rows_cache,rows_raw,cache_hit_blocks,map_evictions,"
      "cache_evictions,store_evictions\n");
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    int base = epoch * 10;  // windows: 0-4, 10-14, 20-24, 30-34
    for (int q = 0; q < kQueriesPerEpoch; ++q) {
      int a = base + (q % 4);
      std::string sql = "SELECT attr" + std::to_string(a) + ", attr" +
                        std::to_string(a + 1) + " FROM adapt WHERE attr" +
                        std::to_string(a) + " < " +
                        std::to_string(30000000 + q * 5000000) +
                        " LIMIT 1000000";
      auto outcome = CheckOk(engine.Execute(sql), "query");
      // Settle background promotion so the next query's tier column
      // reflects a deterministic store.
      engine.WaitForPromotions();
      const RawTableState* state = engine.table_state("adapt");
      std::printf(
          "%d,%d,attr%d-%d,%.2f,%.2f,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu,"
          "%llu,%llu\n",
          epoch, epoch * kQueriesPerEpoch + q, a, a + 1,
          outcome.metrics.total_ns / 1e6,
          outcome.metrics.scan.tokenize_ns / 1e6,
          outcome.metrics.scan.convert_ns / 1e6,
          outcome.metrics.scan.io_ns / 1e6,
          static_cast<unsigned long long>(
              outcome.metrics.scan.rows_from_store),
          static_cast<unsigned long long>(
              outcome.metrics.scan.rows_from_cache),
          static_cast<unsigned long long>(
              outcome.metrics.scan.rows_from_raw),
          static_cast<unsigned long long>(
              outcome.metrics.scan.cache_block_hits),
          static_cast<unsigned long long>(state->map().evictions()),
          static_cast<unsigned long long>(
              state->segments().stats(SegmentClass::kProbationary).evictions),
          static_cast<unsigned long long>(
              state->segments().stats(SegmentClass::kProtected).evictions));
    }
  }

  const RawTableState* state = engine.table_state("adapt");
  std::printf(
      "\nshape: within an epoch queries speed up (warm structures, then "
      "store-served rows); at each epoch boundary the first query is "
      "slow again; total evictions map=%llu cache=%llu store=%llu show "
      "old epochs being dropped\n",
      static_cast<unsigned long long>(state->map().evictions()),
      static_cast<unsigned long long>(
          state->segments().stats(SegmentClass::kProbationary).evictions),
      static_cast<unsigned long long>(
          state->segments().stats(SegmentClass::kProtected).evictions));
  return 0;
}
