#ifndef NODB_RAW_RAW_SCAN_H_
#define NODB_RAW_RAW_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "csv/tokenizer.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "io/buffered_reader.h"
#include "raw/scan_metrics.h"
#include "raw/table_state.h"

namespace nodb {

/// The in-situ scan operator — PostgresRaw's replacement for the leaf
/// of a conventional query plan (paper §3).
///
/// The scan works one row-block at a time, and every batch it emits is
/// (the qualifying rows of) exactly one block. A predicate-free scan is
/// the same loop with no pushed conjuncts. Per block it:
///   1. skips the block outright when a zone map proves it disjoint
///      from a pushed range/equality conjunct;
///   2. else serves it whole from the segment store when every needed
///      column is protected there — zero-copy views of the segments,
///      with no row location, map lookup, tokenizing or parsing;
///   3. else locates every row of the block (from the positional map's
///      row index when known, otherwise by scanning for newlines and
///      teaching the map), takes each needed column from a resident
///      segment (either class) when there is one, and for the others
///      finds spans — exactly from a map chunk, or by tokenizing from
///      the nearest map anchor, never past the last needed attribute
///      (*selective tokenizing*) — and converts only those spans
///      (*selective parsing*). Phase-1 columns (the pushed conjuncts'
///      columns, or the whole projection when nothing was pushed)
///      parse for every row; the conjuncts vectorize over them; the
///      remaining (phase-2) columns parse for qualifying rows only;
///   4. feeds every column it parsed for the whole block to the segment
///      store, the statistics and the zone maps — one insert per
///      (attribute, block), probationary, or protected for attributes
///      whose access heat crossed the promotion threshold (piggybacked
///      promotion; a resident probationary segment is promoted in
///      place) — and records the phase-1 spans as a map chunk (per the
///      distance policy);
///   5. emits a block all of whose rows pass as views of its built and
///      resident segments; a partly passing block's rows are copied out
///      (*selective tuple formation*).
///
/// Raw-parsed, cache-served and store-served blocks interleave freely
/// and results are byte-identical either way. Store serving and zone
/// skipping require the positional-map component (the raw residue
/// relies on it to locate rows after a served or skipped block).
///
/// All NoDB structures honor the per-table NoDbConfig; with everything
/// disabled this operator *is* the paper's "Baseline" external-files
/// scan.
///
/// A scan snapshots the map's and segment store's generations at Open.
/// If the file is rewritten under it, its publications are dropped,
/// its lookups miss, and it finishes its own query from its own handle
/// on the old file (see LocateStaleRow).
///
/// Many operators may scan the same RawTableState concurrently. Each
/// operator keeps all parsing state private and interacts with the
/// shared structures only through their synchronized interfaces:
/// per block it snapshots the published row bounds (SnapshotRows) and
/// pins a chunk plan (PrepareBlock), then locates, tokenizes and
/// parses rows without any locking; finished segments and chunks are
/// published in short exclusive sections at the end of the block. Only
/// the undiscovered tail serializes (the map's discovery baton) —
/// queries never wait on each other's parsing, only on publication of
/// rows nobody has walked yet.
class RawScanOperator final : public ExecOperator {
 public:
  /// `projection`: table attribute indices to emit, ascending. May be
  /// empty (COUNT(*) plans): rows are located but nothing is parsed.
  /// `metrics` (optional) receives the scan's cost breakdown.
  /// `internal`: an engine-internal pass (the store promoter) — it
  /// does not record attribute accesses, so usage counts and promotion
  /// heat keep meaning "scans the workload requested".
  RawScanOperator(RawTableState* state, std::vector<uint32_t> projection,
                  ScanMetrics* metrics, bool internal = false);

  /// Arms predicate pushdown: `predicates` are boolean conjuncts bound
  /// over this scan's *output* schema (every referenced column is in
  /// the projection). The scan then evaluates them two-phase per block
  /// — tokenize/parse only the predicate columns for every row,
  /// vectorize the conjuncts over that partial batch, and parse the
  /// remaining projection columns only for qualifying rows — and,
  /// when zone maps are enabled, skips blocks provably disjoint from a
  /// pushed range/equality predicate without locating a single row.
  /// Emitted rows are exactly the rows a FilterOperator cascade over
  /// the unfiltered scan would keep (NULL predicates drop the row,
  /// like SQL WHERE). Call before Open.
  void SetPushdownPredicates(std::vector<ExprPtr> predicates);

  Status Open() override;
  Result<BatchPtr> Next() override;
  std::shared_ptr<Schema> output_schema() const override { return schema_; }

 private:
  Result<bool> LocateRow(uint64_t row, uint64_t* start, uint64_t* end);

  /// The file was rewritten since Open: locates rows privately (as with
  /// the map off) on this scan's handle from the end of the last row it
  /// located or jumped past (see JumpTo); when that end is unknown the
  /// scan fails with an IOError.
  Result<bool> LocateStaleRow(uint64_t row, uint64_t* start, uint64_t* end);

  /// The one lookup per (attr, block): a resident segment that provably
  /// covers the block (with the cache off, only a protected one, with
  /// the store on), or nullptr. Counts a cache block hit or miss.
  std::shared_ptr<const ColumnVector> LookupSegment(uint32_t attr,
                                                    uint64_t block);

  /// The one insert per (attr, block): protected when `hot` and the
  /// segment provably covers the block, else probationary (cache on).
  void InsertSegment(uint32_t attr, uint64_t block,
                     std::shared_ptr<const ColumnVector> segment, bool hot);

  /// A pushed `col op literal` conjunct in zone-checkable form.
  struct ZonePredicate {
    uint32_t attr = 0;  // table attribute index
    CompareOp op = CompareOp::kEq;
    bool lit_is_int = false;
    int64_t lit_i = 0;
    double lit_d = 0;
  };

  /// One call processes exactly one row-block: zone-skips it, serves
  /// it from the store, or parses it raw/from resident segments — and
  /// returns the block's qualifying rows (possibly an empty batch;
  /// nullptr for a skipped block or past the end of the file).
  Result<BatchPtr> NextBlock();
  bool ZoneSkipsBlock(uint64_t block, uint64_t* rows_in_block) const;
  Result<BatchPtr> ParseRawBlock(uint64_t block);

  /// Serves `block` whole as a zero-copy view of its protected
  /// segments, filtered by the pushed conjuncts if any, after the
  /// serve-time validation: all attributes must agree on the row
  /// count, and a short segment must match the completed row index
  /// *right now* (a stale pre-append tail fails, is evicted, and the
  /// block re-parses raw). False when the block is not served.
  Result<bool> ServeStoreBlock(uint64_t block, BatchPtr* staged);

  /// Moves the cursor to `row` past a served or skipped block, taking
  /// the end of the last row jumped over from the map's row index (if
  /// it still describes this scan's file) for LocateStaleRow.
  void JumpTo(uint64_t row);

  /// The output column for `segment`'s rows [0, rows) of which
  /// `passing` pass (per pass_ unless all do): `segment` itself when
  /// it holds exactly all of them, else a copy.
  std::shared_ptr<ColumnVector> OutputColumn(
      const std::shared_ptr<const ColumnVector>& segment, size_t rows,
      size_t passing) const;

  /// Reads row `r` of the current block (bounds in row_spans_).
  Status ReadRow(size_t r, Slice* line);

  /// Decodes and converts the field at [start, end] of `line` into
  /// `out`, reporting a parse error against table `row` and the
  /// attribute of projection `slot`.
  Status ConvertField(Slice line, uint32_t start, uint32_t end, size_t slot,
                      uint64_t row, ColumnVector* out);

  /// Evaluates every pushed conjunct over `batch`, folding SQL
  /// three-valued logic to keep/drop (NULL drops). Fills `pass`
  /// (size = batch rows) and returns the number of qualifying rows;
  /// with no conjuncts every row passes and `pass` is left untouched.
  Result<size_t> EvaluatePushdown(const RecordBatch& batch,
                                  std::vector<char>* pass) const;

  /// Tokenizes the spans of `subset` (indices into `probe_attrs`,
  /// which the block plan was prepared with) for one row, writing into
  /// `starts`/`ends` parallel to `subset`. `count_blind` attributes a
  /// from-byte-0 walk to map_blind_rows — pass it on the first pass
  /// over a row only, so two-phase rows count once like any other.
  Status TokenizeSpans(Slice line, uint64_t row,
                       const std::optional<PositionalMap::BlockPlan>& plan,
                       const std::vector<uint32_t>& probe_attrs,
                       const std::vector<size_t>& subset, uint32_t* starts,
                       uint32_t* ends, bool count_blind);

  /// True when `segment_rows` provably covers the whole of `block`
  /// (full block, or the tail of the row index complete for the file
  /// as this scan opened it) — the rule shared by serving a resident
  /// segment and promoting one.
  bool SegmentCoversBlock(size_t segment_rows, uint64_t block) const;

  /// PositionalMap::CompleteRows for the file as this scan opened it
  /// (UINT64_MAX without the map).
  uint64_t CompleteRows() const;

  /// The one zone-map admission path for this scan: installs a summary
  /// for (attr, block) iff collection is on, the attribute's payload
  /// is summarizable, `segment` provably covers the block, and no
  /// entry exists yet. Safe to call with any parsed segment — resident
  /// or freshly built.
  void MaybeObserveZone(uint32_t attr, uint64_t block,
                        const ColumnVector& segment);

  RawTableState* state_;
  std::vector<uint32_t> projection_;
  ScanMetrics* metrics_;
  ScanMetrics local_metrics_;  // used when metrics == nullptr
  bool internal_ = false;      // engine-internal pass: no access records

  std::shared_ptr<Schema> schema_;
  std::string table_name_;  // snapshotted for error messages
  std::string table_path_;
  CsvTokenizer tokenizer_;
  std::unique_ptr<BufferedReader> reader_;

  bool use_map_ = false;
  bool use_cache_ = false;
  bool use_stats_ = false;
  bool use_store_ = false;    // promotion side effects enabled
  bool serve_store_ = false;  // store fast path enabled (needs the map)
  bool collect_zones_ = false;  // summarize full blocks into zone maps
  bool skip_zones_ = false;     // prune blocks via zone maps (needs map)
  uint64_t segment_generation_ = 0;  // file generation this scan parses
  uint64_t map_generation_ = 0;      // ditto, for the positional map
  uint64_t zone_generation_ = 0;     // ditto, for the zone maps

  // Predicate pushdown (empty = no conjuncts: every slot is phase 1).
  std::vector<ExprPtr> predicates_;
  std::vector<bool> phase1_slot_;  // slot parses for every row of a block
  std::vector<ZonePredicate> zone_preds_;  // zone-checkable conjuncts

  uint64_t row_ = 0;
  uint64_t local_offset_ = 0;  // discovery cursor when the map is off
  uint64_t next_row_ = 0;      // row after the last one located...
  uint64_t next_offset_ = 0;   // ...and where it starts
  bool exhausted_ = false;
  uint64_t header_skip_ = 0;   // bytes of header line (has_header files)

  // Lock-free row location: published bounds of rows
  // [window_first_, window_first_ + window_rows_), snapshotted from the
  // map; window_bounds_ has window_rows_ + 1 entries (see SnapshotRows).
  uint64_t window_first_ = 0;
  uint32_t window_rows_ = 0;
  std::vector<uint64_t> window_bounds_;

  std::vector<bool> promote_attr_;  // projection slot is promotion-hot

  // Reused scratch.
  std::vector<uint32_t> starts_;  // per-row field starts (tokenizer)
  std::string decode_scratch_;

  // Reused per-block scratch.
  std::vector<std::pair<uint64_t, uint64_t>> row_spans_;  // [start, end)
  std::vector<char> pass_;  // row passes the pushed conjuncts
};

}  // namespace nodb

#endif  // NODB_RAW_RAW_SCAN_H_
