// Experiment E10 — TPC-H workload (the substrate of the SIGMOD'12
// evaluation this demo showcases).
//
// Generates lineitem + orders raw files, then runs Q1-shaped,
// Q6-shaped and a join query on every engine. Conventional engines pay
// their load first; PostgresRaw is measured cold (first touch) and
// warm (adapted). Cross-engine row counts are verified to agree.
//
// Hard gates (non-zero exit): the structural-scan speedup, cross-engine
// row identity, the {scalar, SIMD} x {1, 2, 8}-thread identity sweep,
// the warm tracing overhead, and first-touch coverage — a fresh
// threaded engine's cold run of every query (at least 2 workers, even
// on one core) must parse no row from the raw file itself
// (scan.rows_from_raw == 0), proving the parallel first touch committed
// every block that query's scan needs. The coverage gate checks a
// count, so timing noise cannot fail it.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/tpch.h"
#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "io/temp_dir.h"
#include "util/thread_pool.h"

using namespace nodb;
using namespace nodb::bench;

namespace {

int64_t MedianNs(std::vector<int64_t> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: path for a Chrome-trace JSONL export of the
  // traced overhead-gate runs (CI uploads it as an artifact).
  const char* trace_path = argc >= 2 ? argv[1] : nullptr;
  PrintHeader("E10 / TPC-H-shaped workload on raw files");
  auto dir = CheckOk(TempDir::Create("nodb-tpch"), "temp dir");
  TpchSpec spec;
  spec.scale_factor = 0.01;  // ~15k orders, ~60k lineitems
  std::string li_path = dir.FilePath("lineitem.tbl");
  std::string ord_path = dir.FilePath("orders.tbl");
  uint64_t li_rows = CheckOk(GenerateTpchLineitem(li_path, spec), "lineitem");
  uint64_t ord_rows = CheckOk(GenerateTpchOrders(ord_path, spec), "orders");
  std::printf("lineitem: %llu rows, orders: %llu rows\n",
              static_cast<unsigned long long>(li_rows),
              static_cast<unsigned long long>(ord_rows));

  Catalog catalog;
  CheckOk(catalog.RegisterTable({"lineitem", li_path, TpchLineitemSchema(),
                                 CsvDialect::Pipe()}),
          "register");
  CheckOk(catalog.RegisterTable(
              {"orders", ord_path, TpchOrdersSchema(), CsvDialect::Pipe()}),
          "register");

  struct NamedQuery {
    const char* name;
    const char* sql;
  };
  NamedQuery queries[] = {
      {"Q1 (pricing summary)",
       "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
       "SUM(l_extendedprice) AS sum_base, "
       "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc, "
       "AVG(l_quantity) AS avg_qty, COUNT(*) AS n FROM lineitem "
       "WHERE l_shipdate <= DATE '1998-08-01' "
       "GROUP BY l_returnflag, l_linestatus "
       "ORDER BY l_returnflag, l_linestatus"},
      {"Q6 (forecast revenue)",
       "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
       "WHERE l_shipdate >= DATE '1994-01-01' "
       "AND l_shipdate < DATE '1995-01-01' "
       "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"},
      {"QJ (urgent lineitems)",
       "SELECT COUNT(*) AS n, SUM(l.l_extendedprice) AS s "
       "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
       "WHERE o.o_orderpriority = '1-URGENT'"},
  };

  // The SIMD tentpole's hard gate: stage-1 structural indexing of the
  // raw lineitem file must beat the scalar fallback kernels >= 3x.
  GateStructuralSpeedup(li_path, CsvDialect::Pipe(), 3.0);

  // Store-on vs store-off: the same repeated query, once over the
  // cached-raw path (map+cache warm, store disabled) and once served
  // from the shadow column store (hot columns promoted after the warm
  // run) — the paper's adaptive-loading payoff in one column pair.
  NoDbEngine raw(catalog, NoDbConfig(), "PostgresRaw");
  // Scalar twin: identical configuration with enable_simd=false, so the
  // cold-column pair below is the before/after of the SIMD kernels.
  NoDbConfig scalar_config;
  scalar_config.enable_simd = false;
  NoDbEngine raw_scalar(catalog, scalar_config, "PostgresRaw.scalar");
  NoDbConfig nostore_config;
  nostore_config.enable_store = false;
  NoDbEngine raw_nostore(catalog, nostore_config, "PostgresRaw.nostore");
  // Before/after for the parallel first touch: same engine, same
  // queries, but a cold table's first query pre-builds the NoDB
  // structures with one worker per hardware core.
  NoDbConfig par_config;
  par_config.num_threads = 0;  // 0 = one thread per core
  NoDbEngine raw_par(catalog, par_config, "PostgresRaw.par");
  LoadFirstEngine pg(catalog, LoadProfile::kPostgres);
  int64_t load_ns = CheckOk(pg.Initialize(), "load");
  std::printf("PostgreSQL load time: %s (PostgresRaw: none)\n",
              FormatNanos(load_ns).c_str());
  std::printf("parallel scan threads: %u\n\n",
              static_cast<unsigned>(ThreadPool::DefaultThreadCount()));

  bool all_match = true;
  bool first_touch_covered = true;
  // Data-to-query, like for like: each query's first (cold) PostgresRaw
  // run against PostgreSQL's load plus its run of the same query.
  int64_t raw_cold_total_ns = 0;
  int64_t pg_total_ns = load_ns;
  std::printf(
      "%-24s %12s %12s %12s %12s %12s %12s  match  store rows s/c/r\n",
      "query", "Scalar.cold", "Raw.cold", "Raw.par.cold", "Raw.warm.off",
      "Raw.warm.on", "PostgreSQL");
  for (const auto& q : queries) {
    auto scalar_cold = CheckOk(raw_scalar.Execute(q.sql), q.name);
    auto cold = CheckOk(raw.Execute(q.sql), q.name);
    auto par_cold = CheckOk(raw_par.Execute(q.sql), q.name);
    // Second touch crosses the promotion threshold; settle background
    // promotion so the third run measures pure store serving.
    auto warm_on = CheckOk(raw.Execute(q.sql), q.name);
    raw.WaitForPromotions();
    auto hot_on = CheckOk(raw.Execute(q.sql), q.name);
    // Store-off twin: warm its structures the same number of times.
    CheckOk(raw_nostore.Execute(q.sql), q.name);
    CheckOk(raw_nostore.Execute(q.sql), q.name);
    auto hot_off = CheckOk(raw_nostore.Execute(q.sql), q.name);
    auto conv = CheckOk(pg.Execute(q.sql), q.name);
    bool match =
        cold.result.CanonicalRows() == conv.result.CanonicalRows() &&
        warm_on.result.CanonicalRows() == conv.result.CanonicalRows() &&
        hot_on.result.CanonicalRows() == conv.result.CanonicalRows() &&
        hot_off.result.CanonicalRows() == conv.result.CanonicalRows() &&
        par_cold.result.CanonicalRows() == conv.result.CanonicalRows() &&
        scalar_cold.result.CanonicalRows() == conv.result.CanonicalRows();
    all_match = all_match && match;
    {
      // Raw.par.cold above is cold only for the tables no earlier query
      // touched; the coverage gate needs every table cold.
      NoDbConfig touch_config;
      touch_config.num_threads = std::max<uint32_t>(
          2, static_cast<uint32_t>(ThreadPool::DefaultThreadCount()));
      NoDbEngine touch(catalog, touch_config, "PostgresRaw.touch");
      auto first = CheckOk(touch.Execute(q.sql), q.name);
      all_match = all_match && first.result.CanonicalRows() ==
                                   conv.result.CanonicalRows();
      if (first.metrics.scan.rows_from_raw != 0) {
        first_touch_covered = false;
        std::fprintf(stderr, "%s: threaded cold run parsed %llu raw rows\n",
                     q.name,
                     static_cast<unsigned long long>(
                         first.metrics.scan.rows_from_raw));
      }
    }
    raw_cold_total_ns += cold.metrics.total_ns;
    pg_total_ns += conv.metrics.total_ns;
    std::printf("%-24s %12s %12s %12s %12s %12s %12s  %-5s %llu/%llu/%llu\n",
                q.name, FormatNanos(scalar_cold.metrics.total_ns).c_str(),
                FormatNanos(cold.metrics.total_ns).c_str(),
                FormatNanos(par_cold.metrics.total_ns).c_str(),
                FormatNanos(hot_off.metrics.total_ns).c_str(),
                FormatNanos(hot_on.metrics.total_ns).c_str(),
                FormatNanos(conv.metrics.total_ns).c_str(),
                match ? "yes" : "NO!",
                static_cast<unsigned long long>(
                    hot_on.metrics.scan.rows_from_store),
                static_cast<unsigned long long>(
                    hot_on.metrics.scan.rows_from_cache),
                static_cast<unsigned long long>(
                    hot_on.metrics.scan.rows_from_raw));
  }

  // Byte-identity sweep over the kernel/thread matrix: fresh engines,
  // {scalar, SIMD} x {1, 2, 8} threads, all against the load-first
  // reference. Failing this (or any per-query match above) fails the
  // bench — CI's guarantee that the SIMD tiers are pure accelerators.
  {
    const char* probe_sql = queries[1].sql;  // Q6: ints, doubles, dates
    auto reference = CheckOk(pg.Execute(probe_sql), "identity reference");
    const auto want = reference.result.CanonicalRows();
    for (const bool enable_simd : {false, true}) {
      for (const uint32_t threads : {1u, 2u, 8u}) {
        NoDbConfig config;
        config.enable_simd = enable_simd;
        config.num_threads = threads;
        NoDbEngine probe(catalog, config, "identity-probe");
        auto got = CheckOk(probe.Execute(probe_sql), "identity probe");
        if (got.result.CanonicalRows() != want) {
          std::fprintf(stderr,
                       "FAIL: identity sweep diverged (simd=%d threads=%u)\n",
                       enable_simd ? 1 : 0, threads);
          return 1;
        }
      }
    }
    std::printf(
        "\nidentity sweep: {scalar,simd} x {1,2,8} threads byte-identical "
        "to PostgreSQL\n");
  }
  if (!all_match) {
    std::fprintf(stderr, "FAIL: cross-engine row sets diverged\n");
    return 1;
  }
  if (!first_touch_covered) {
    std::fprintf(stderr,
                 "FAIL: the parallel first touch left blocks to the "
                 "threaded engine's cold runs\n");
    return 1;
  }
  std::printf(
      "first-touch coverage: every threaded cold run parsed 0 raw rows\n");

  // Tracing overhead gate: the warm path (everything adapted, store
  // serving) is where per-span bookkeeping would hurt, so measure it
  // there. Trials interleave tracer-off and tracer-on executions to
  // cancel drift, and medians absorb scheduler noise. Hard gate: the
  // traced median must stay within 3% of untraced (plus a small
  // absolute epsilon — warm queries run in microseconds, where a
  // single page fault outweighs any bookkeeping).
  {
    const char* probe_sql = queries[1].sql;  // Q6, fully warm on `raw`
    constexpr int kTrials = 21;
    constexpr int64_t kEpsilonNs = 100'000;
    if (trace_path != nullptr) raw.tracer().SetPath(trace_path);
    std::vector<int64_t> off_ns, on_ns;
    for (int i = 0; i < kTrials; ++i) {
      raw.tracer().SetEnabled(false);
      off_ns.push_back(
          CheckOk(raw.Execute(probe_sql), "overhead off").metrics.total_ns);
      raw.tracer().SetEnabled(true);
      on_ns.push_back(
          CheckOk(raw.Execute(probe_sql), "overhead on").metrics.total_ns);
    }
    raw.tracer().SetEnabled(false);
    int64_t med_off = MedianNs(off_ns);
    int64_t med_on = MedianNs(on_ns);
    double overhead =
        med_off > 0
            ? 100.0 * static_cast<double>(med_on - med_off) /
                  static_cast<double>(med_off)
            : 0.0;
    std::printf(
        "\ntrace overhead (warm Q6, median of %d interleaved trials): "
        "off %s, on %s (%+.1f%%)\n",
        kTrials, FormatNanos(med_off).c_str(), FormatNanos(med_on).c_str(),
        overhead);
    if (med_on > med_off + med_off * 3 / 100 + kEpsilonNs) {
      std::fprintf(stderr,
                   "FAIL: tracing overhead above 3%% on the warm path\n");
      return 1;
    }
    if (trace_path != nullptr) {
      std::printf("trace spans appended to %s\n", trace_path);
    }
  }

  std::printf(
      "\ndata-to-query for the %zu-query workload, one run each:\n"
      "  PostgresRaw: %s (cold runs, zero load)\n"
      "  PostgreSQL:  %s (load + runs)\n",
      std::size(queries), FormatNanos(raw_cold_total_ns).c_str(),
      FormatNanos(pg_total_ns).c_str());
  return 0;
}
