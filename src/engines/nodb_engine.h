#ifndef NODB_ENGINES_NODB_ENGINE_H_
#define NODB_ENGINES_NODB_ENGINE_H_

#include <condition_variable>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "engines/engine.h"
#include "engines/query_session.h"
#include "exec/cancel.h"
#include "obs/trace.h"
#include "persist/image.h"
#include "raw/nodb_config.h"
#include "raw/table_state.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace nodb {

namespace obs {
class PlanProfiler;
}  // namespace obs

/// The PostgresRaw reproduction: executes SQL directly over raw CSV
/// files with zero loading, adaptively building the positional map,
/// cache and statistics as side-effects of query execution.
///
/// With `NoDbConfig::Baseline()` this same engine *is* the paper's
/// Baseline contestant (naive external-files access): identical query
/// plans, no auxiliary structures — which is exactly the comparison
/// Figure 3 makes.
///
/// Execute() is safe to call from many threads at once: concurrent
/// queries share each table's adaptive state (map, cache, statistics),
/// all internally synchronized, so every query both profits from and
/// contributes to what earlier queries learned. ExecuteConcurrent()
/// packages that as a multi-client batch on a shared worker pool.
/// External file updates are detected at query start; replacing or
/// rewriting a table while queries are in flight is memory-safe but
/// those in-flight queries may observe either file generation.
class NoDbEngine final : public Engine {
 public:
  NoDbEngine(Catalog catalog, NoDbConfig config,
             std::string name = "PostgresRaw");

  /// Waits for in-flight background promotions before tearing down the
  /// table states they walk.
  ~NoDbEngine() override;

  std::string_view name() const override { return name_; }

  /// In-situ: nothing to do. Registers no I/O, returns ~0.
  Result<int64_t> Initialize() override;

  /// Recognizes a leading `EXPLAIN [ANALYZE]` and routes it to the
  /// plan-only / instrumented execution paths; the answer comes back
  /// as a one-column text result. Everything else executes normally,
  /// recording per-query trace spans when tracer() is enabled.
  Result<QueryOutcome> Execute(std::string_view sql) override
      EXCLUDES(states_mu_, totals_mu_);

  /// Incremental delivery: batches stream to `sink` straight from the
  /// Volcano drain without materializing the result (the server front
  /// end's path). EXPLAIN [ANALYZE] still materializes its text block
  /// and replays it through the sink. Null sink = Execute.
  Result<QueryOutcome> ExecuteStreaming(std::string_view sql,
                                        BatchSink* sink) override
      EXCLUDES(states_mu_, totals_mu_);

  /// Runs every query of `sqls` against the shared adaptive state from
  /// a pool of `clients` concurrent sessions (0 = one per hardware
  /// core). Clients pull queries from the batch in order, so the batch
  /// behaves like `clients` users hammering the same tables. Reports
  /// come back in input order with per-query status, result, metrics
  /// and start/finish stamps; one query failing does not abort the
  /// rest.
  /// `cancel` (may be null) is polled by every query of the batch at
  /// its batch boundaries: firing it makes the remaining queries
  /// return Status::Cancelled instead of rows — the graceful-drain
  /// deadline path.
  ConcurrentBatchOutcome ExecuteConcurrent(
      const std::vector<std::string>& sqls, uint32_t clients = 0,
      const QueryCancelFlag* cancel = nullptr);

  Result<std::string> Explain(std::string_view sql) override
      EXCLUDES(states_mu_);

  /// Cumulative race accounting. The reference is unsynchronized —
  /// read it between batches, not while queries are in flight.
  /// NO_THREAD_SAFETY_ANALYSIS: deliberately hands out an unguarded
  /// reference to a totals_mu_-guarded member; the quiescence contract
  /// above is the synchronization.
  const EngineTotals& totals() const override NO_THREAD_SAFETY_ANALYSIS {
    return totals_;
  }

  /// Runtime component toggles (the demo GUI's switches). Applies to
  /// future queries on all tables; existing structures are retained
  /// (disabled components are simply not consulted or populated).
  void SetPositionalMapEnabled(bool enabled) EXCLUDES(states_mu_);
  void SetCacheEnabled(bool enabled) EXCLUDES(states_mu_);
  void SetStatisticsEnabled(bool enabled) EXCLUDES(states_mu_);
  void SetStoreEnabled(bool enabled) EXCLUDES(states_mu_);

  /// Blocks until every scheduled background promotion pass has
  /// finished (tests and benches that want a deterministic store).
  void WaitForPromotions() EXCLUDES(promo_mu_);

  /// Adaptive state of `table` (for the monitoring panel and tests);
  /// nullptr before the first query touches the table.
  const RawTableState* table_state(const std::string& table) const
      EXCLUDES(states_mu_);

  /// Re-checks the raw file behind `table` right now (demo "Updates"
  /// scenario). Queries also run this check automatically.
  Result<FileChange> RefreshTable(const std::string& table)
      EXCLUDES(states_mu_);

  /// Points `table` at a different raw file, dropping adaptive state.
  /// Requires no queries in flight on that table.
  Status ReplaceTable(const RawTableInfo& info) EXCLUDES(states_mu_);

  /// Freezes `table`'s adaptive state (positional map, statistics,
  /// zone maps, shadow store) into its crash-safe sidecar
  /// (persist/snapshot.h; placement governed by
  /// NoDbConfig::snapshot_path). Settles in-flight background
  /// promotions first so the saved store matches what the next query
  /// would have seen. Refused when snapshot_mode is kOff, and when the
  /// table has no adaptive state yet (freezing a cold table would
  /// clobber a previous process's populated sidecar with an empty
  /// one).
  Status SaveSnapshot(const std::string& table)
      EXCLUDES(states_mu_, promo_mu_);

  /// Saves every table that has adaptive state (kAuto teardown path;
  /// also handy before a planned shutdown). Best effort: returns the
  /// first error but attempts every table.
  Status SaveAllSnapshots() EXCLUDES(states_mu_, promo_mu_);

  /// Validates `table`'s sidecar against the live raw file and thaws
  /// every intact section into the (cold) table state. Degradation is
  /// graceful: missing/stale/corrupt state is simply rebuilt by
  /// queries, reported in the returned RecoveryReport — an error
  /// Status means only that snapshots are off. A warm table recovers
  /// nothing (live structures always win).
  Result<persist::RecoveryReport> LoadSnapshot(const std::string& table)
      EXCLUDES(states_mu_);

  /// Boot-time configuration (immutable). The runtime component
  /// toggles the Set*Enabled methods flip live on the engine and the
  /// table states, not here.
  const NoDbConfig& config() const { return config_; }
  Catalog& catalog() { return catalog_; }

  /// Per-query span collector (obs/trace.h). Seeded from
  /// NoDbConfig::trace_mode / trace_path; flip at runtime with
  /// tracer().SetEnabled() (the shell's `\trace on|off`).
  obs::Tracer& tracer() { return tracer_; }

 private:
  class Factory;

  /// Execute() minus the EXPLAIN routing: runs `sql` with optional
  /// operator profiling, collects the trace and folds the query's
  /// metrics into the global registry. `sink` (may be null) receives
  /// result batches incrementally instead of materialization.
  Result<QueryOutcome> ExecuteQuery(std::string_view sql,
                                    obs::PlanProfiler* profile,
                                    BatchSink* sink)
      EXCLUDES(states_mu_, totals_mu_);

  /// The parse/plan/drain pipeline, spans recorded into `trace` (may
  /// be null = tracing off).
  Result<QueryOutcome> RunQuery(std::string_view sql,
                                obs::PlanProfiler* profile,
                                obs::TraceContext* trace, BatchSink* sink)
      EXCLUDES(states_mu_, totals_mu_);

  Result<RawTableState*> GetOrCreateState(const std::string& table)
      EXCLUDES(states_mu_);

  /// Runs the parallel first touch (raw/parallel_scan.h) over `attrs`
  /// when the config asks for threads, the table is still cold and the
  /// positional-map component is on. At most one attempt per file
  /// generation; a no-op at num_threads <= 1. Its outcome is ignored:
  /// the query's own scan reports any failure.
  void MaybeParallelPrewarm(RawTableState* state,
                            const std::vector<uint32_t>& attrs);

  /// The shared client pool, created on first concurrent batch and
  /// grown (replaced) when a batch asks for more workers; batches hold
  /// a shared_ptr so an in-flight batch keeps its pool alive.
  std::shared_ptr<ThreadPool> ClientPool(uint32_t threads)
      EXCLUDES(pool_mu_);

  /// After a query completes: for every table whose hot attributes are
  /// not fully materialized, claims and submits one background
  /// promotion pass (store/promoter.h) to the shared pool.
  /// `triggered_by` is the trace id of the triggering query (0 = not
  /// traced), stamped into the background pass's own trace.
  void SchedulePromotions(uint64_t triggered_by)
      EXCLUDES(states_mu_, promo_mu_, pool_mu_);

  /// Pushes the engine-level component flags down to every table
  /// state.
  void ApplyComponentFlagsLocked() REQUIRES(states_mu_);

  std::string name_;
  Catalog catalog_;

  /// Boot-time configuration, immutable after construction (the
  /// runtime component toggles live in flags_ below, so reads of
  /// config_ never need a lock).
  const NoDbConfig config_;

  /// Guards states_ (lookup/insert; values have stable addresses and
  /// are never erased) and the engine-level component toggles.
  mutable Mutex states_mu_;
  std::unordered_map<std::string, std::unique_ptr<RawTableState>> states_
      GUARDED_BY(states_mu_);
  /// Engine-level component toggles (the demo GUI's switches), pushed
  /// down to every table state whenever they change.
  ComponentFlags flags_ GUARDED_BY(states_mu_);

  Mutex totals_mu_;
  EngineTotals totals_ GUARDED_BY(totals_mu_);

  /// Internally synchronized; declared before the pool so background
  /// passes drained during pool teardown can still collect traces.
  obs::Tracer tracer_;

  /// Background-promotion accounting. Declared before the pool so a
  /// queued promotion task drained by the pool's destructor still
  /// finds these alive.
  Mutex promo_mu_;
  std::condition_variable promo_cv_;
  size_t promo_pending_ GUARDED_BY(promo_mu_) = 0;

  Mutex pool_mu_;
  std::shared_ptr<ThreadPool> client_pool_ GUARDED_BY(pool_mu_);
};

}  // namespace nodb

#endif  // NODB_ENGINES_NODB_ENGINE_H_
