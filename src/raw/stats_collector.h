#ifndef NODB_RAW_STATS_COLLECTOR_H_
#define NODB_RAW_STATS_COLLECTOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/expr.h"
#include "sql/planner.h"
#include "types/column_vector.h"
#include "types/schema.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/thread_annotations.h"

namespace nodb {

/// Per-attribute statistics built on-the-fly during raw scans
/// (paper §3.3): only for *requested* attributes, from values that were
/// parsed anyway, incrementally covering more of the file as queries
/// touch more of it.
///
/// Thread-safe: one internal mutex serializes observation against the
/// planner-side estimator reads, so concurrent queries can fold blocks
/// in while another query's planner consults the same attribute. The
/// sketches themselves are order-dependent (reservoir, KMV), so
/// concurrent workloads may produce different — equally valid —
/// estimates than a serial replay; query *results* never depend on
/// them.
class AttributeStats {
 public:
  static constexpr size_t kReservoirSize = 512;
  static constexpr size_t kKmvSize = 256;

  explicit AttributeStats(DataType type);

  /// Folds a parsed column segment into the stats.
  void Observe(const ColumnVector& column) EXCLUDES(mu_);

  /// Forgets everything observed (file rewritten) without destroying
  /// the object, so pointers handed to planners stay valid.
  void Reset() EXCLUDES(mu_);

  uint64_t row_count() const {
    MutexLock lock(mu_);
    return count_;
  }
  uint64_t null_count() const {
    MutexLock lock(mu_);
    return nulls_;
  }
  double null_fraction() const {
    MutexLock lock(mu_);
    return count_ == 0 ? 0.0
                       : static_cast<double>(nulls_) /
                             static_cast<double>(count_);
  }
  std::optional<double> numeric_min() const {
    MutexLock lock(mu_);
    return min_;
  }
  std::optional<double> numeric_max() const {
    MutexLock lock(mu_);
    return max_;
  }

  /// KMV (k minimum values) distinct-count estimate.
  double EstimateDistinct() const EXCLUDES(mu_);

  /// Fraction of non-null values satisfying `op` against `literal`,
  /// estimated from the reservoir sample. nullopt when the sample is
  /// empty or types are incompatible.
  std::optional<double> EstimateCompareSelectivity(CompareOp op,
                                                   const Value& literal) const
      EXCLUDES(mu_);

  /// Fraction of sampled strings matching a LIKE pattern.
  std::optional<double> EstimateLikeSelectivity(std::string_view pattern,
                                                bool negated) const
      EXCLUDES(mu_);

  /// Equi-width histogram over the sample (numeric attributes).
  std::vector<uint64_t> SampleHistogram(size_t buckets) const
      EXCLUDES(mu_);

  /// Serializable copy of the sketch state (persist/). The reservoir
  /// RNG is not part of the image: a thawed reservoir resumes with a
  /// fresh stream, which is just another valid sample order (the
  /// sketches are order-dependent by design; estimates, never results,
  /// depend on them).
  struct Image {
    uint64_t count = 0;
    uint64_t nulls = 0;
    bool has_min = false;
    double min = 0;
    bool has_max = false;
    double max = 0;
    std::vector<uint64_t> kmv;
    std::vector<double> numeric_sample;
    std::vector<std::string> string_sample;
    uint64_t sampled_stream = 0;
  };

  Image ExportImage() const;

  /// Restores an image into untouched stats; false (no-op) once any
  /// value has been observed.
  bool ImportImage(Image image);

  DataType type() const { return type_; }

 private:
  void Sample(double numeric, std::string_view text) REQUIRES(mu_);
  double EstimateDistinctLocked() const REQUIRES(mu_);

  const DataType type_;
  mutable Mutex mu_;
  uint64_t count_ GUARDED_BY(mu_) = 0;
  uint64_t nulls_ GUARDED_BY(mu_) = 0;
  std::optional<double> min_ GUARDED_BY(mu_);
  std::optional<double> max_ GUARDED_BY(mu_);
  // The k smallest distinct value hashes, ascending.
  std::vector<uint64_t> kmv_ GUARDED_BY(mu_);
  std::vector<double> numeric_sample_ GUARDED_BY(mu_);
  std::vector<std::string> string_sample_ GUARDED_BY(mu_);
  uint64_t sampled_stream_ GUARDED_BY(mu_) = 0;  // reservoir index
  Random rng_ GUARDED_BY(mu_){0x5747u};
};

/// All attributes of one raw table. Blocks already folded in are
/// remembered so repeated scans do not double-count.
///
/// Thread-safe: a collector-level mutex guards the observed-block set
/// and the lazily-created per-attribute slots. Slots are created once
/// and reset in place on Clear(), so AttributeStats pointers handed
/// out by GetStats stay valid for the collector's lifetime.
class StatsCollector {
 public:
  explicit StatsCollector(std::shared_ptr<Schema> schema);

  /// Folds `column` (the parsed values of `attr` for row-block `block`)
  /// into the table stats, once per (attr, block).
  void ObserveBlock(uint32_t attr, uint64_t block,
                    const ColumnVector& column) EXCLUDES(mu_);

  bool HasStats(uint32_t attr) const EXCLUDES(mu_);

  const AttributeStats* GetStats(uint32_t attr) const {
    MutexLock lock(mu_);
    return attrs_[attr].get();
  }

  /// Attributes with any statistics (for the monitoring panel).
  std::vector<uint32_t> CoveredAttributes() const EXCLUDES(mu_);

  /// Access heat: how many scans requested each attribute. Recorded
  /// unconditionally (cheap counters, independent of the statistics
  /// toggle) — this is what drives shadow-store promotion. Heat is
  /// dropped together with the statistics on Clear(): a rewritten file
  /// restarts the adaptive-loading cycle from scratch.
  void RecordAccessHeat(const std::vector<uint32_t>& attrs) EXCLUDES(mu_);
  uint64_t access_heat(uint32_t attr) const EXCLUDES(mu_);
  std::vector<uint64_t> access_heat_counts() const EXCLUDES(mu_);

  /// Per-tenant slice of the heat above: RecordAccessHeat additionally
  /// buckets each access under the calling thread's tenant
  /// (obs::ScopedTenantLabel::CurrentId(); 0 = untagged), so the
  /// server can show which tenant made an attribute hot. Promotion
  /// thresholds deliberately stay global-sum — a column hot across
  /// tenants is promoted once and serves everyone. Process-local only:
  /// not persisted in snapshots.
  uint64_t access_heat_for_tenant(uint32_t tenant, uint32_t attr) const
      EXCLUDES(mu_);
  /// Tenant ids with any recorded heat, ascending.
  std::vector<uint32_t> HeatTenants() const EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);

  /// Serializable copy of the whole collector (persist/): per-attribute
  /// sketches (absent for never-observed attributes), access heat and
  /// the observed-(attr, block) dedup set.
  struct Image {
    std::vector<std::optional<AttributeStats::Image>> attrs;
    std::vector<uint64_t> heat;
    std::vector<uint64_t> observed;  // (attr<<40)|block keys
  };

  Image ExportImage() const;

  /// Restores an image into a cold collector (nothing observed, no
  /// heat); false and no-op otherwise, or when the image's attribute
  /// count does not match this table's schema.
  bool ImportImage(Image image);

 private:
  std::shared_ptr<Schema> schema_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<AttributeStats>> attrs_ GUARDED_BY(mu_);
  std::vector<uint64_t> heat_ GUARDED_BY(mu_);  // per-attr scan requests
  /// tenant id -> per-attr scan requests (the per-tenant partition of
  /// heat_; only tenants that actually queried the table appear).
  std::unordered_map<uint32_t, std::vector<uint64_t>> tenant_heat_
      GUARDED_BY(mu_);
  std::unordered_set<uint64_t> observed_
      GUARDED_BY(mu_);  // (attr<<40)|block keys
};

/// Per-(attribute, row-block) min/max summaries — zone maps — collected
/// alongside the on-the-fly statistics whenever a scan, first-touch
/// pass or store promotion has a fully parsed block segment in hand
/// (the values were parsed anyway; summarizing them is one extra pass,
/// paid once per block). A pushed range/equality predicate provably
/// disjoint from a block's [min, max] lets the scan skip the block
/// without locating a single row.
///
/// Admission mirrors the shadow store: an entry is installed only for
/// a segment that provably covers its whole block, and entries are
/// generation-tagged — a scan that opened against a since-rewritten
/// file cannot repopulate the cleared maps with old-file summaries, so
/// a stale map can never skip live rows. Invalidation also mirrors the
/// store: Clear() on rewrite (advances the generation),
/// DropBlocksFrom() on append (the block containing the old frontier
/// gains rows). Entries are immutable once installed (any two
/// observers parsed identical bytes).
///
/// NULL-bearing and NaN-bearing blocks are marked non-skippable;
/// string attributes are not summarized.
///
/// Zone maps are deliberately unbudgeted, like the positional map's
/// row index (and unlike the chunk/segment LRUs): one ~56-byte entry
/// summarizes a whole (attribute, row-block) — about 0.02 bytes per
/// row per attribute, two orders of magnitude below the row index's
/// 8 bytes per row that any mapped table already carries. Evicting
/// them would trade away exactly the summaries that make skips
/// possible while saving memory that rounds to nothing next to the
/// structures that are budgeted.
///
/// Thread-safe: one internal mutex, no I/O under it.
class ZoneMaps {
 public:
  struct Entry {
    bool is_int = false;  ///< int64/date payload: exact integer bounds
    int64_t min_i = 0;
    int64_t max_i = 0;
    double min_d = 0;  ///< bounds under GetNumeric's double view
    double max_d = 0;
    uint64_t rows = 0;       ///< rows the observed segment held
    bool has_null = false;   ///< block contains NULLs: never skip
    bool non_null = false;   ///< at least one non-null value observed
    bool unsafe = false;     ///< NaN observed: bounds unusable
  };

  /// Summarizes `column` (the parsed values of `attr` for `block`) into
  /// an entry; first install wins. Rejected when `generation` is stale
  /// or the attribute is a string. The caller guarantees the column
  /// covers the entire block.
  void Observe(uint32_t attr, uint64_t block, const ColumnVector& column,
               uint64_t generation) EXCLUDES(mu_);

  std::optional<Entry> Get(uint32_t attr, uint64_t block) const
      EXCLUDES(mu_);
  bool Contains(uint32_t attr, uint64_t block) const EXCLUDES(mu_);

  /// The current file generation; snapshot before opening the file a
  /// scan will parse from, pass back to Observe.
  uint64_t generation() const EXCLUDES(mu_);

  /// Drops every entry of block >= `first_block` (append: the block
  /// containing the old frontier is about to gain rows).
  void DropBlocksFrom(uint64_t first_block) EXCLUDES(mu_);

  /// Drops everything and advances the generation (file rewritten).
  void Clear() EXCLUDES(mu_);

  size_t num_entries() const EXCLUDES(mu_);

  /// Serializable copy of the summaries (persist/). The generation is
  /// deliberately not part of the image — it is a process-local
  /// in-flight-scan fence, meaningless across restarts.
  struct Image {
    struct EntryImage {
      uint32_t attr = 0;
      uint64_t block = 0;
      Entry entry;
    };
    std::vector<EntryImage> entries;
  };

  Image ExportImage() const;

  /// Restores an image into empty zone maps; false and no-op once any
  /// entry exists.
  bool ImportImage(Image image);

 private:
  static uint64_t KeyOf(uint32_t attr, uint64_t block) {
    return (static_cast<uint64_t>(attr) << 40) | block;
  }

  mutable Mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mu_);
  uint64_t generation_ GUARDED_BY(mu_) = 0;
};

/// Bridges table statistics into the planner's SelectivityEstimator
/// seam. Bound predicates reference projected column positions, so
/// resolution goes through the column *name* back to the table schema.
class StatsSelectivityEstimator final : public SelectivityEstimator {
 public:
  /// Registers `stats` for `table`. Pointers must outlive the planner.
  void Register(const std::string& table, const StatsCollector* stats,
                std::shared_ptr<Schema> schema);

  std::optional<double> EstimateSelectivity(
      const std::string& table, const Expr& predicate) const override;

 private:
  struct TableEntry {
    const StatsCollector* stats;
    std::shared_ptr<Schema> schema;
  };
  std::unordered_map<std::string, TableEntry> tables_;
};

}  // namespace nodb

#endif  // NODB_RAW_STATS_COLLECTOR_H_
