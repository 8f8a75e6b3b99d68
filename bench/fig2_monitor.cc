// Experiment E2 — Figure 2: the System Monitoring Panel.
//
// Runs a query sequence whose attribute windows shift over the file and
// emits, after every query, the panel the demo GUI shows: positional
// map and cache utilization, structure sizes, per-attribute access
// counts and coverage. A CSV series of utilization-per-query is printed
// for plotting the Figure-2 "Cache Utilization (%)" curve.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "engines/nodb_engine.h"
#include "monitor/panel.h"
#include "util/stopwatch.h"

using namespace nodb;
using namespace nodb::bench;

int main() {
  PrintHeader("E2 / Figure 2 - system monitoring panel");
  Workload w = MakeIntWorkload("mon", 60000, 30);

  NoDbConfig config;
  // Budgets sized so the workload fills a visible fraction and finally
  // overflows the map, as the demo's utilization bars show.
  config.positional_map_budget = 6u << 20;
  config.cache_budget = 24u << 20;
  NoDbEngine engine(w.catalog, config);

  struct Step {
    const char* label;
    std::string sql;
  };
  Step steps[] = {
      {"q1: first contact (attrs 0-2)",
       "SELECT attr0, attr1, attr2 FROM mon WHERE attr0 < 50000000"},
      {"q2: same window again (warm)",
       "SELECT attr0, attr1, attr2 FROM mon WHERE attr1 < 50000000"},
      {"q3: shift right (attrs 10-14)",
       "SELECT attr10, attr12, attr14 FROM mon WHERE attr12 < 50000000"},
      {"q4: far window (attrs 25-29)",
       "SELECT attr25, attr27, attr29 FROM mon WHERE attr27 < 50000000"},
      {"q5: aggregate over mixed attrs",
       "SELECT SUM(attr5) AS s, AVG(attr20) AS a FROM mon"},
      {"q6: full-width touch",
       "SELECT COUNT(*) AS n FROM mon WHERE attr29 > 0"},
  };

  std::printf("\nquery,map_utilization,cache_utilization,map_chunks,"
              "cache_segments,cache_hits,cache_misses\n");
  std::string panels;
  int qid = 0;
  for (const Step& step : steps) {
    ++qid;
    CheckOk(engine.Execute(step.sql).status(), step.label);
    const RawTableState* state = engine.table_state("mon");
    const SegmentStore::ClassStats cache =
        state->segments().stats(SegmentClass::kProbationary);
    const SegmentStore::Counters lookups = state->segments().counters();
    std::printf("%d,%.4f,%.4f,%zu,%zu,%llu,%llu\n", qid,
                state->map().utilization(), cache.utilization(),
                state->map().num_chunks(), cache.segments,
                static_cast<unsigned long long>(lookups.hits),
                static_cast<unsigned long long>(lookups.misses));
    panels += "\nafter ";
    panels += step.label;
    panels += ":\n";
    panels += MonitorPanel::RenderTableState(*state);
  }
  std::printf("%s", panels.c_str());

  // --- the GUI's "vary the available space" interaction: re-run the
  // same workload under different map/cache budgets and report how
  // much of the adaptive benefit survives.
  std::printf(
      "\n--- budget interaction (same 6-query workload re-run) ---\n");
  std::printf("map_budget,cache_budget,workload_ms,map_evictions,"
              "cache_evictions,cache_hit_blocks\n");
  struct BudgetCase {
    size_t map;
    size_t cache;
  };
  BudgetCase cases[] = {
      {64u << 20, 256u << 20},  // effectively unlimited
      {6u << 20, 24u << 20},    // the run above
      {1u << 20, 4u << 20},     // tight
      {64u << 10, 256u << 10},  // thrashing
  };
  for (const BudgetCase& c : cases) {
    NoDbConfig budget_config;
    budget_config.positional_map_budget = c.map;
    budget_config.cache_budget = c.cache;
    NoDbEngine budget_engine(w.catalog, budget_config);
    Stopwatch watch;
    for (const Step& step : steps) {
      CheckOk(budget_engine.Execute(step.sql).status(), step.label);
    }
    // Second pass over the same workload shows retention quality.
    for (const Step& step : steps) {
      CheckOk(budget_engine.Execute(step.sql).status(), step.label);
    }
    const RawTableState* state = budget_engine.table_state("mon");
    std::printf("%s,%s,%.1f,%llu,%llu,%llu\n",
                FormatBytes(c.map).c_str(), FormatBytes(c.cache).c_str(),
                watch.ElapsedMillis(),
                static_cast<unsigned long long>(state->map().evictions()),
                static_cast<unsigned long long>(
                    state->segments()
                        .stats(SegmentClass::kProbationary)
                        .evictions),
                static_cast<unsigned long long>(
                    state->segments().counters().hits));
  }
  return 0;
}
