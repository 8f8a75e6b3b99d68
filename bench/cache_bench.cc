// Experiment E7 — cache ablation (google-benchmark).
//
// §3.2: repeated access to hot attributes is served from the binary
// cache, eliminating tokenizing, parsing *and* raw-file I/O. The
// budget sweep shows graceful degradation when the hot set does not
// fit.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "exec/query_result.h"
#include "raw/raw_scan.h"

using namespace nodb;
using namespace nodb::bench;

namespace {

constexpr uint64_t kTuples = 20000;
constexpr uint32_t kAttrs = 20;

Workload& SharedWorkload() {
  static Workload* workload =
      new Workload(MakeIntWorkload("cache", kTuples, kAttrs));
  return *workload;
}

RawTableInfo Info() {
  Workload& w = SharedWorkload();
  return {"cache", w.path, w.schema, CsvDialect()};
}

void DrainScan(RawTableState* state,
               const std::vector<uint32_t>& attrs) {
  RawScanOperator scan(state, attrs, nullptr);
  auto result = QueryResult::Drain(&scan);
  CheckOk(result.status(), "scan");
}

/// Hot two-attribute scan with the cache off: every query re-parses.
void BM_HotScanNoCache(benchmark::State& state) {
  NoDbConfig config;
  config.enable_cache = false;
  config.enable_statistics = false;
  RawTableState table(Info(), config);
  CheckOk(table.Open(), "open");
  DrainScan(&table, {3, 7});  // warm the map only
  for (auto _ : state) {
    DrainScan(&table, {3, 7});
  }
  state.SetItemsProcessed(state.iterations() * kTuples);
}
BENCHMARK(BM_HotScanNoCache)->Unit(benchmark::kMillisecond);

/// The same scan fully cache-served.
void BM_HotScanWarmCache(benchmark::State& state) {
  NoDbConfig config;
  config.enable_statistics = false;
  RawTableState table(Info(), config);
  CheckOk(table.Open(), "open");
  DrainScan(&table, {3, 7});  // warm map + cache
  for (auto _ : state) {
    DrainScan(&table, {3, 7});
  }
  state.SetItemsProcessed(state.iterations() * kTuples);
}
BENCHMARK(BM_HotScanWarmCache)->Unit(benchmark::kMillisecond);

/// Budget sweep over a 4-attribute hot set (~1.5 MiB binary): small
/// budgets thrash, larger ones converge to the warm-cache cost.
void BM_CacheBudgetSweep(benchmark::State& state) {
  NoDbConfig config;
  config.enable_statistics = false;
  config.cache_budget = static_cast<size_t>(state.range(0));
  RawTableState table(Info(), config);
  CheckOk(table.Open(), "open");
  std::vector<uint32_t> hot = {1, 5, 9, 13};
  DrainScan(&table, hot);
  for (auto _ : state) {
    DrainScan(&table, hot);
  }
  state.SetItemsProcessed(state.iterations() * kTuples);
  state.counters["hit_blocks"] = static_cast<double>(
      table.segments().counters().hits);
  state.counters["evictions"] =
      static_cast<double>(
          table.segments().stats(SegmentClass::kProbationary).evictions);
}
BENCHMARK(BM_CacheBudgetSweep)
    ->Arg(0)
    ->Arg(256 << 10)
    ->Arg(1 << 20)
    ->Arg(16 << 20)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
