// Experiment E8 — selective parsing taken into the scan: predicate
// pushdown + per-block zone maps vs the FilterOperator-only plan.
//
// §3: with row-oriented raw files, selective tokenizing cannot save
// I/O but slashes CPU cost. Pushdown extends the idea to WHERE: per
// block only the predicate columns parse (phase 1), the remaining
// projection columns parse for qualifying rows only (phase 2), and
// zone maps skip blocks provably disjoint from the predicate without
// locating a single row. This driver sweeps selectivities
// {0.001, 0.01, 0.1, 1.0} of a range predicate over a *clustered*
// attribute and prints a CSV of four modes per selectivity:
//
//   off     enable_pushdown=false (FilterOperator above the scan)
//   push    pushdown on, zone maps off
//   zones   pushdown + zone maps on
//   scalar  zones plan on the scalar fallback kernels (enable_simd=off)
//
// Each mode runs the query three times against its own engine — cold
// (raw), warm (cache), and store-warm (after WaitForPromotions) — and
// every run's rows are verified byte-identical to the mode-off plan,
// so the CSV doubles as a correctness check across all three storage
// tiers. Exits non-zero on any mismatch, if the 0.001-selectivity
// zones run fails to skip at least half the blocks once warm, or if a
// warm or store run of `push` or `zones` at selectivity 1.0 converts
// any phase-2 field: when every row of a block passes, its phase-2
// columns were parsed for the whole block and must be cached like
// phase-1 columns. (The gate counts fields, so timing noise cannot
// trip it.)
//
// Usage: selective_bench [tuples]   (default 200000; CI smoke passes
// less)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engines/nodb_engine.h"
#include "io/file.h"
#include "util/stopwatch.h"

using namespace nodb;
using namespace nodb::bench;

namespace {

constexpr uint32_t kPayloadCols = 6;

struct ModeSpec {
  const char* name;
  bool pushdown;
  bool zones;
  bool simd;
};

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("E8 / predicate pushdown + zone maps vs filter-only");
  uint64_t tuples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  // The skip gate needs at least two row-blocks (4096 rows each): a
  // single-block fixture can never skip its own matching block.
  if (tuples < 10000) tuples = 10000;

  // Clustered fixture: id ascending, payload columns pseudo-random —
  // the NeedleTail-style layout where block skipping pays most.
  TempDir dir = CheckOk(TempDir::Create("nodb-selective"), "temp dir");
  std::string path = dir.FilePath("sel.csv");
  {
    std::string content;
    content.reserve(tuples * 40);
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (uint64_t r = 0; r < tuples; ++r) {
      content += std::to_string(r);
      for (uint32_t c = 0; c < kPayloadCols; ++c) {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
        content += ',';
        content += std::to_string(h % 1000000);
      }
      content += '\n';
    }
    CheckOk(WriteStringToFile(path, content), "write fixture");
  }
  std::vector<Field> fields = {{"id", DataType::kInt64}};
  for (uint32_t c = 0; c < kPayloadCols; ++c) {
    fields.push_back(Field{"p" + std::to_string(c), DataType::kInt64});
  }
  auto schema = Schema::Make(std::move(fields));
  Catalog catalog;
  CheckOk(catalog.RegisterTable({"sel", path, schema, CsvDialect()}),
          "register");

  // The SIMD tentpole's hard gate on this fixture too: structural
  // indexing with the active tier must beat the scalar kernels >= 3x.
  GateStructuralSpeedup(path, CsvDialect(), 3.0);

  // `scalar` is the zones plan with enable_simd=false: the full
  // pushdown + zone-map machinery running on the fallback kernels must
  // stay byte-identical to everything else.
  const double selectivities[] = {0.001, 0.01, 0.1, 1.0};
  const ModeSpec modes[] = {{"off", false, false, true},
                            {"push", true, false, true},
                            {"zones", true, true, true},
                            {"scalar", true, true, false}};
  const char* run_names[] = {"cold", "warm", "store"};

  std::printf(
      "\nselectivity,mode,run,ms,rows_out,rows_scanned,zone_skipped_blocks,"
      "zone_skipped_rows,pruned,p1_fields,p2_fields,rows_store,rows_cache,"
      "rows_raw,identical\n");

  bool all_identical = true;
  uint64_t warm_zone_skips_at_lowest = 0;
  uint64_t warm_zone_total_blocks = 0;
  uint64_t warm_full_pass_phase2 = 0;
  for (double sel : selectivities) {
    uint64_t cut = static_cast<uint64_t>(static_cast<double>(tuples) * sel);
    if (cut == 0) cut = 1;
    std::string sql = "SELECT id, p0, p1 FROM sel WHERE id < " +
                      std::to_string(cut);

    // The mode-off plan's rows are this selectivity's ground truth.
    std::vector<std::string> expected;
    for (const ModeSpec& mode : modes) {
      NoDbConfig config;
      config.enable_pushdown = mode.pushdown;
      config.enable_zone_maps = mode.zones;
      config.enable_simd = mode.simd;
      NoDbEngine engine(catalog, config);
      for (int run = 0; run < 3; ++run) {
        auto outcome = CheckOk(engine.Execute(sql), "query");
        engine.WaitForPromotions();
        const ScanMetrics& scan = outcome.metrics.scan;
        std::vector<std::string> rows = outcome.result.CanonicalRows();
        if (mode.pushdown == false && run == 0) expected = rows;
        bool identical = rows == expected;
        all_identical = all_identical && identical;
        const std::string name = mode.name;
        if ((name == "push" || name == "zones") && run > 0 && sel == 1.0) {
          warm_full_pass_phase2 += scan.pushdown_phase2_fields;
        }
        if (mode.zones && run > 0 && sel == selectivities[0]) {
          warm_zone_skips_at_lowest += scan.zone_skipped_blocks;
          warm_zone_total_blocks +=
              (tuples + config.rows_per_block - 1) / config.rows_per_block;
        }
        std::printf(
            "%.3f,%s,%s,%.2f,%zu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
            "%llu,%llu,%s\n",
            sel, mode.name, run_names[run],
            outcome.metrics.total_ns / 1e6, rows.size(),
            static_cast<unsigned long long>(scan.rows_scanned),
            static_cast<unsigned long long>(scan.zone_skipped_blocks),
            static_cast<unsigned long long>(scan.zone_skipped_rows),
            static_cast<unsigned long long>(scan.pushdown_rows_pruned),
            static_cast<unsigned long long>(scan.pushdown_phase1_fields),
            static_cast<unsigned long long>(scan.pushdown_phase2_fields),
            static_cast<unsigned long long>(scan.rows_from_store),
            static_cast<unsigned long long>(scan.rows_from_cache),
            static_cast<unsigned long long>(scan.rows_from_raw),
            identical ? "yes" : "NO");
      }
    }
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: pushdown plans diverged from the filter-only "
                 "plan\n");
    return 1;
  }
  // Acceptance: at 0.1%% selectivity over the clustered attribute the
  // warm zone-map runs must skip at least half of all blocks.
  if (warm_zone_skips_at_lowest * 2 < warm_zone_total_blocks) {
    std::fprintf(stderr,
                 "FAIL: zone maps skipped %llu of %llu blocks at the "
                 "lowest selectivity (expected >= 50%%)\n",
                 static_cast<unsigned long long>(warm_zone_skips_at_lowest),
                 static_cast<unsigned long long>(warm_zone_total_blocks));
    return 1;
  }
  // Acceptance: at 100% selectivity every block passes whole, so warm
  // runs find the phase-2 columns resident and convert none of them.
  if (warm_full_pass_phase2 != 0) {
    std::fprintf(stderr,
                 "FAIL: warm push/zones runs at selectivity 1.0 converted "
                 "%llu phase-2 fields (expected 0)\n",
                 static_cast<unsigned long long>(warm_full_pass_phase2));
    return 1;
  }
  std::printf(
      "\nshape: `push` converts far fewer phase-2 fields as selectivity "
      "drops; `zones` additionally skips disjoint blocks outright once "
      "warm (%llu of %llu at 0.1%% selectivity), with byte-identical "
      "rows on raw, cache and store tiers\n",
      static_cast<unsigned long long>(warm_zone_skips_at_lowest),
      static_cast<unsigned long long>(warm_zone_total_blocks));
  return 0;
}
