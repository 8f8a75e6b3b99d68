#include "raw/raw_scan.h"

#include <algorithm>
#include <cassert>

#include "csv/value_parser.h"
#include "simd/simd.h"
#include "util/stopwatch.h"

namespace nodb {

namespace {

/// Accumulates (wall time − I/O time that elapsed inside the region)
/// into `sink`, keeping the Figure-3 categories disjoint: physical read
/// time is accounted once, by the reader.
class PhaseTimer {
 public:
  PhaseTimer(int64_t* sink, const BufferedReader* reader)
      : sink_(sink), reader_(reader), io_before_(reader->io_nanos()) {}
  ~PhaseTimer() {
    *sink_ +=
        watch_.ElapsedNanos() - (reader_->io_nanos() - io_before_);
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  int64_t* sink_;
  const BufferedReader* reader_;
  int64_t io_before_;
  Stopwatch watch_;
};

/// Zone-map attributes summarize only numeric-ish payloads.
bool ZoneEligibleType(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble ||
         type == DataType::kDate;
}

/// True when every row of a block with the given bounds provably fails
/// `op` against the literal — the zone-map pruning rule. Bounds and
/// literal are compared exactly like CompareExpr::Evaluate compares
/// rows: exact int64 when both sides are integral, otherwise through
/// the double view (a monotone conversion, so converted bounds remain
/// bounds).
template <typename T>
bool ZoneDisjoint(CompareOp op, T min, T max, T lit) {
  switch (op) {
    case CompareOp::kEq:
      return lit < min || lit > max;
    case CompareOp::kNe:
      return min == max && min == lit;
    case CompareOp::kLt:
      return min >= lit;
    case CompareOp::kLe:
      return min > lit;
    case CompareOp::kGt:
      return max <= lit;
    case CompareOp::kGe:
      return max < lit;
  }
  return false;
}

}  // namespace

RawScanOperator::RawScanOperator(RawTableState* state,
                                 std::vector<uint32_t> projection,
                                 ScanMetrics* metrics, bool internal)
    : state_(state),
      projection_(std::move(projection)),
      metrics_(metrics != nullptr ? metrics : &local_metrics_),
      internal_(internal),
      table_name_(state->info().name),
      table_path_(state->info().path),
      tokenizer_(state->info().dialect,
                 simd::LevelFor(state->config().enable_simd)) {
  std::vector<size_t> indices(projection_.begin(), projection_.end());
  schema_ = state_->info().schema->Project(indices);
}

void RawScanOperator::SetPushdownPredicates(
    std::vector<ExprPtr> predicates) {
  predicates_ = std::move(predicates);
}

Status RawScanOperator::Open() {
  const NoDbConfig& config = state_->config();
  ComponentFlags flags = state_->component_flags();
  use_map_ = flags.map;
  use_cache_ = flags.cache;
  use_stats_ = flags.stats;
  use_store_ = flags.store;
  // Serving from the store needs the map: the raw residue of a hybrid
  // plan locates rows through it after a store-served block.
  serve_store_ = use_store_ && use_map_ && !projection_.empty();
  // Snapshot the generations *before* taking the file handle: if the
  // file is rewritten after this point, they move on and this scan's
  // publications are dropped rather than poisoning the cleared
  // structures with old-file rows, chunks and segments.
  segment_generation_ = state_->segments().generation();
  map_generation_ = state_->map().generation();
  // Zone maps follow the same discipline: collect summaries whenever
  // the config asks for them, but prune blocks only when predicates
  // were pushed and the map can resume the scan at the next block.
  collect_zones_ = config.enable_zone_maps;
  skip_zones_ =
      config.enable_zone_maps && use_map_ && !predicates_.empty();
  zone_generation_ = state_->zones().generation();

  // Recovered-vs-rebuilt provenance: this scan runs over structures a
  // snapshot restored, not ones this process built (persist/).
  persist::RecoveryReport recovery = state_->recovery();
  if (use_map_ && recovery.map_recovered) {
    ++metrics_->scans_using_recovered_map;
  }
  if (serve_store_ && recovery.store_recovered) {
    ++metrics_->scans_using_recovered_store;
  }

  // Pushdown analysis: which projection slots parse for every row of
  // a block (phase 1: the predicate columns, or the whole projection
  // when nothing was pushed), and which conjuncts are zone-checkable
  // `col op lit`.
  phase1_slot_.assign(projection_.size(), predicates_.empty());
  zone_preds_.clear();
  for (const ExprPtr& p : predicates_) {
    std::vector<size_t> cols;
    p->CollectColumns(&cols);
    for (size_t c : cols) {
      NODB_CHECK(c < projection_.size());
      phase1_slot_[c] = true;
    }
    const auto* cmp = dynamic_cast<const CompareExpr*>(p.get());
    if (cmp == nullptr) continue;
    const auto* ref =
        dynamic_cast<const ColumnRefExpr*>(cmp->left().get());
    const auto* lit =
        dynamic_cast<const LiteralExpr*>(cmp->right().get());
    CompareOp op = cmp->op();
    if (ref == nullptr || lit == nullptr) {
      ref = dynamic_cast<const ColumnRefExpr*>(cmp->right().get());
      lit = dynamic_cast<const LiteralExpr*>(cmp->left().get());
      if (ref == nullptr || lit == nullptr) continue;
      // Mirror the operator: lit < col  ==  col > lit.
      switch (op) {
        case CompareOp::kLt:
          op = CompareOp::kGt;
          break;
        case CompareOp::kLe:
          op = CompareOp::kGe;
          break;
        case CompareOp::kGt:
          op = CompareOp::kLt;
          break;
        case CompareOp::kGe:
          op = CompareOp::kLe;
          break;
        default:
          break;
      }
    }
    if (!ZoneEligibleType(ref->type())) continue;
    ZonePredicate zp;
    zp.attr = projection_[ref->index()];
    zp.op = op;
    const Value& v = lit->value();
    if (v.is_int64()) {
      zp.lit_is_int = true;
      zp.lit_i = v.int64();
      zp.lit_d = static_cast<double>(v.int64());
    } else if (v.is_date()) {
      zp.lit_is_int = true;
      zp.lit_i = v.date_days();
      zp.lit_d = static_cast<double>(v.date_days());
    } else if (v.is_double()) {
      zp.lit_d = v.dbl();
    } else {
      continue;  // NULL/string literal: evaluate, never zone-prune
    }
    zone_preds_.push_back(zp);
  }

  std::shared_ptr<RandomAccessFile> file = state_->file();
  if (file == nullptr) {
    NODB_RETURN_NOT_OK(state_->Open());
    file = state_->file();
  }
  // The reader keeps this handle for the whole scan, so a concurrent
  // reopen of the table cannot pull the file out from under us.
  reader_ = std::make_unique<BufferedReader>(std::move(file),
                                             config.read_buffer_bytes);
  NODB_RETURN_NOT_OK(reader_->Refresh());

  row_ = 0;
  exhausted_ = false;
  window_first_ = 0;
  window_rows_ = 0;
  window_bounds_.clear();

  // Header line: data rows start after it.
  header_skip_ = 0;
  if (state_->info().dialect.has_header && reader_->file_size() > 0) {
    uint64_t header_end = 0;
    Status s = reader_->FindNewline(0, &header_end);
    header_skip_ = std::min<uint64_t>(header_end + 1, reader_->file_size());
    (void)s;  // a header-only file simply has zero data rows
  }
  if (use_map_) {
    state_->map().EnsureDiscoveryStartsAt(header_skip_);
  }
  local_offset_ = header_skip_;
  next_row_ = 0;
  next_offset_ = header_skip_;

  if (!internal_) state_->RecordAttributeAccess(projection_);

  // Snapshot promotion heat after recording this access, so the scan
  // that crosses the threshold is the one that promotes.
  promote_attr_.assign(projection_.size(), false);
  if (use_store_) {
    for (size_t i = 0; i < projection_.size(); ++i) {
      promote_attr_[i] = state_->stats().access_heat(projection_[i]) >=
                         config.promote_after_accesses;
    }
  }

  uint32_t max_attr = projection_.empty() ? 0 : projection_.back();
  starts_.assign(max_attr + 2, 0);
  return Status::OK();
}

Result<bool> RawScanOperator::LocateRow(uint64_t row, uint64_t* start,
                                        uint64_t* end) {
  const uint64_t file_size = reader_->file_size();
  if (!use_map_) {
    if (local_offset_ >= file_size) return false;
    *start = local_offset_;
    PhaseTimer timer(&metrics_->parsing_ns, reader_.get());
    Status s = reader_->FindNewline(*start, end);
    if (!s.ok() && !s.IsOutOfRange()) return s;
    local_offset_ = *end + 1;
    return true;
  }

  PositionalMap& map = state_->map();
  const uint32_t rows_per_block = state_->config().rows_per_block;
  while (true) {
    // Fast path: the row's bounds are in the local snapshot window —
    // no locking, plain array indexing.
    if (row >= window_first_ && row < window_first_ + window_rows_) {
      size_t i = static_cast<size_t>(row - window_first_);
      *start = window_bounds_[i];
      *end = window_bounds_[i + 1] - 1;
      next_row_ = row + 1;
      next_offset_ = window_bounds_[i + 1];
      return true;
    }

    // Refill the window with whatever is published from `row` to the
    // end of its block (scans advance monotonically, so nothing before
    // `row` is needed again).
    uint32_t remaining =
        rows_per_block - static_cast<uint32_t>(row % rows_per_block);
    PositionalMap::RowSnapshot snap =
        map.SnapshotRows(row, remaining, &window_bounds_);
    window_first_ = row;
    window_rows_ = snap.rows;
    if (snap.generation != map_generation_) {
      return LocateStaleRow(row, start, end);
    }
    if (snap.rows > 0) continue;
    if (snap.complete && row >= snap.known_rows) return false;

    // The row is past the published frontier: take the discovery baton
    // and walk the tail to the end of the row's block in one round —
    // the bounds land in the local window, so a cold sequential scan
    // pays one baton acquisition per block, not per row. Other threads
    // block here only for rows nobody has walked yet.
    PositionalMap::Discovery discovery(&map, map_generation_);
    uint64_t resume = 0;
    uint64_t frontier_row = 0;
    while (discovery.NeedsRow(row, &resume, &frontier_row)) {
      if (resume >= file_size) {
        // End of the file as this scan opened it. (An append since
        // then reopened the index at a larger size, which ignores
        // this mark; later scans see the new rows.)
        discovery.MarkComplete(file_size);
        return false;
      }
      const uint64_t block_end =
          (row / rows_per_block + 1) * uint64_t{rows_per_block};
      uint64_t cursor = resume;
      uint64_t cursor_row = frontier_row;
      window_bounds_.clear();
      window_rows_ = 0;
      while (cursor_row < block_end && cursor < file_size) {
        uint64_t line_end = 0;
        {
          PhaseTimer timer(&metrics_->parsing_ns, reader_.get());
          Status s = reader_->FindNewline(cursor, &line_end);
          if (!s.ok() && !s.IsOutOfRange()) return s;
        }
        discovery.PublishRow(cursor, line_end);
        if (cursor_row >= row) window_bounds_.push_back(cursor);
        cursor = line_end + 1;
        ++cursor_row;
      }
      if (cursor >= file_size) discovery.MarkComplete(file_size);
      if (!window_bounds_.empty()) {
        window_bounds_.push_back(cursor);  // sentinel: last end + 1
        window_first_ = row;
        window_rows_ = static_cast<uint32_t>(window_bounds_.size() - 1);
        break;  // the fast path serves `row` from the fresh window
      }
      // File ended before reaching `row`; NeedsRow decides next.
    }
    // Another thread published past `row`, the window was walked, or
    // the file was rewritten; loop to serve or finish.
  }
}

Result<bool> RawScanOperator::LocateStaleRow(uint64_t row, uint64_t* start,
                                             uint64_t* end) {
  if (row != next_row_) {
    return Status::IOError(table_name_ + ": raw file " + table_path_ +
                           " was rewritten during the scan");
  }
  use_map_ = false;
  serve_store_ = false;
  skip_zones_ = false;
  local_offset_ = next_offset_;
  return LocateRow(row, start, end);
}

void RawScanOperator::MaybeObserveZone(uint32_t attr, uint64_t block,
                                       const ColumnVector& segment) {
  // Summaries admit exactly like store segments: the values must
  // provably cover the whole block, else a skip could hide rows.
  if (!collect_zones_ || !ZoneEligibleType(segment.type())) return;
  if (!SegmentCoversBlock(segment.size(), block)) return;
  if (state_->zones().Contains(attr, block)) return;
  state_->zones().Observe(attr, block, segment, zone_generation_);
}

std::shared_ptr<const ColumnVector> RawScanOperator::LookupSegment(
    uint32_t attr, uint64_t block) {
  if (!use_cache_ && !use_store_) return nullptr;
  SegmentClass cls = SegmentClass::kProbationary;
  auto seg = state_->segments().Get(attr, block, segment_generation_, &cls);
  if (seg != nullptr &&
      (use_cache_ || (use_store_ && cls == SegmentClass::kProtected)) &&
      SegmentCoversBlock(seg->size(), block)) {
    ++metrics_->cache_block_hits;
    return seg;
  }
  ++metrics_->cache_block_misses;
  return nullptr;
}

void RawScanOperator::InsertSegment(
    uint32_t attr, uint64_t block,
    std::shared_ptr<const ColumnVector> segment, bool hot) {
  const bool promote = hot && SegmentCoversBlock(segment->size(), block);
  if (!promote && !use_cache_) return;
  state_->segments().Put(
      attr, block, std::move(segment),
      promote ? SegmentClass::kProtected : SegmentClass::kProbationary,
      segment_generation_);
}

bool RawScanOperator::SegmentCoversBlock(size_t segment_rows,
                                         uint64_t block) const {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  if (segment_rows >= rows_per_block) return true;
  const uint64_t known = CompleteRows();
  if (known == UINT64_MAX) return false;
  const uint64_t first = block * uint64_t{rows_per_block};
  const uint64_t expected =
      first >= known ? 0 : std::min<uint64_t>(rows_per_block, known - first);
  return segment_rows >= expected;
}

uint64_t RawScanOperator::CompleteRows() const {
  return use_map_ ? state_->map().CompleteRows(reader_->file_size())
                  : UINT64_MAX;
}

// ----------------------------------------------------------- the block loop

Result<BatchPtr> RawScanOperator::Next() {
  BatchPtr batch;
  while (batch == nullptr && !exhausted_) {
    NODB_ASSIGN_OR_RETURN(batch, NextBlock());
    // A skipped or fully filtered block: keep walking. The operator
    // contract forbids empty non-final batches (drains stop on them).
    if (batch != nullptr && batch->num_rows() == 0) batch.reset();
  }
  metrics_->io_ns += reader_->io_nanos();
  metrics_->bytes_read += reader_->bytes_read();
  reader_->ResetCounters();
  return batch;
}

Result<BatchPtr> RawScanOperator::NextBlock() {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t block = row_ / rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};

  // ---- zone pruning: a block provably disjoint from a pushed
  // range/equality conjunct advances the cursor without locating,
  // tokenizing or parsing a single row — on any serving tier.
  if (skip_zones_ && !zone_preds_.empty()) {
    uint64_t block_rows = 0;
    bool skip;
    {
      PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
      skip = ZoneSkipsBlock(block, &block_rows);
    }
    if (skip) {
      ++metrics_->zone_skipped_blocks;
      metrics_->zone_skipped_rows += block_rows;
      JumpTo(first + block_rows);
      if (block_rows < rows_per_block) {
        exhausted_ = true;  // the entry was validated as the file tail
      }
      return BatchPtr();
    }
  }

  if (serve_store_) {
    BatchPtr staged;
    NODB_ASSIGN_OR_RETURN(bool served, ServeStoreBlock(block, &staged));
    if (served) return staged;
  }

  return ParseRawBlock(block);
}

void RawScanOperator::JumpTo(uint64_t row) {
  row_ = row;
  // The rows jumped over were never located, so read where the last
  // one ends from the row index: should the file be rewritten later,
  // LocateStaleRow resumes from there on this scan's own handle. A
  // snapshot already stale leaves the cursor behind, and that
  // fallback fails cleanly instead.
  std::vector<uint64_t> bounds;
  PositionalMap::RowSnapshot snap =
      state_->map().SnapshotRows(row - 1, 1, &bounds);
  if (snap.generation == map_generation_ && snap.rows == 1) {
    next_row_ = row;
    next_offset_ = bounds[1];
  }
}

bool RawScanOperator::ZoneSkipsBlock(uint64_t block,
                                     uint64_t* rows_in_block) const {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};
  const ZoneMaps& zones = state_->zones();
  // Summaries of a file rewritten since Open say nothing about ours.
  if (zones.generation() != zone_generation_) return false;
  for (const ZonePredicate& zp : zone_preds_) {
    std::optional<ZoneMaps::Entry> entry = zones.Get(zp.attr, block);
    if (!entry.has_value()) continue;
    const ZoneMaps::Entry& e = *entry;
    // NULL-bearing (and NaN-bearing, and all-NULL) blocks are never
    // skipped: their rows' fate is decided row-by-row, exactly like
    // FilterOperator would.
    if (e.has_null || e.unsafe || !e.non_null) continue;
    // The entry must provably cover the block *right now*: a full
    // block, or the tail of the currently-complete row index. (Append
    // truncation and generation tagging make stale entries disappear,
    // but serve-time validation keeps even a racing one harmless.)
    if (e.rows < rows_per_block && first + e.rows != CompleteRows()) {
      continue;
    }
    bool disjoint =
        e.is_int && zp.lit_is_int
            ? ZoneDisjoint<int64_t>(zp.op, e.min_i, e.max_i, zp.lit_i)
            : ZoneDisjoint<double>(zp.op, e.min_d, e.max_d, zp.lit_d);
    if (disjoint) {
      *rows_in_block = std::min<uint64_t>(e.rows, rows_per_block);
      return true;
    }
  }
  return false;
}

Result<bool> RawScanOperator::ServeStoreBlock(uint64_t block,
                                              BatchPtr* staged) {
  const uint32_t rows_per_block = state_->config().rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};
  std::vector<std::shared_ptr<const ColumnVector>> segments;
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    if (!state_->segments().GetProtectedBlock(
            projection_, block, segment_generation_, &segments)) {
      return false;
    }
  }
  // Serve-time validation. A short segment claims to be the file's
  // tail, which would end the scan at its last row — so it must match
  // the completed row index *right now*; and all attributes of the
  // block must agree on its row count. A stale segment (e.g. a
  // pre-append tail committed by a racing promotion) fails these, is
  // evicted, and the block re-parses through the raw path.
  const size_t rows = segments[0]->size();
  bool aligned = true;
  for (const auto& seg : segments) aligned = aligned && seg->size() == rows;
  if (!aligned || (rows < rows_per_block && first + rows != CompleteRows())) {
    // Rewrites need no check here: the generation fence already made
    // the probe miss.
    state_->segments().DropBlocks(block, block + 1);
    return false;
  }
  // The store's fully parsed segments are the cheapest zone-map
  // source there is — summarize any block the maps do not know yet.
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    for (size_t c = 0; c < segments.size(); ++c) {
      MaybeObserveZone(projection_[c], block, *segments[c]);
    }
  }

  // Vectorize the pushed conjuncts (if any) straight over the promoted
  // segments (a read-only batch view; segments are immutable,
  // shared-owned).
  std::vector<std::shared_ptr<ColumnVector>> view;
  view.reserve(segments.size());
  for (const auto& seg : segments) {
    view.push_back(std::const_pointer_cast<ColumnVector>(seg));
  }
  auto out = std::make_shared<RecordBatch>(schema_, view, rows);
  NODB_ASSIGN_OR_RETURN(size_t passing, EvaluatePushdown(*out, &pass_));
  if (passing < rows) {
    for (size_t c = 0; c < view.size(); ++c) {
      view[c] = OutputColumn(segments[c], rows, passing);
    }
    out = std::make_shared<RecordBatch>(schema_, std::move(view), passing);
  }
  ++metrics_->store_block_hits;
  metrics_->rows_scanned += rows;
  metrics_->rows_from_store += rows;
  metrics_->pushdown_rows_pruned += rows - passing;
  JumpTo(first + rows);
  if (rows < rows_per_block) exhausted_ = true;  // validated tail
  *staged = std::move(out);
  return true;
}

Result<size_t> RawScanOperator::EvaluatePushdown(
    const RecordBatch& batch, std::vector<char>* pass) const {
  const size_t n = batch.num_rows();
  if (predicates_.empty()) return n;
  pass->assign(n, 1);
  size_t passing = n;
  for (const ExprPtr& predicate : predicates_) {
    NODB_ASSIGN_OR_RETURN(auto mask, predicate->Evaluate(batch));
    for (size_t i = 0; i < n; ++i) {
      if (!(*pass)[i]) continue;
      // SQL WHERE semantics: NULL folds to "drop", like FilterOperator.
      if (mask->IsNull(i) || mask->GetInt64(i) == 0) {
        (*pass)[i] = 0;
        --passing;
      }
    }
  }
  return passing;
}

Status RawScanOperator::TokenizeSpans(
    Slice line, uint64_t row,
    const std::optional<PositionalMap::BlockPlan>& plan,
    const std::vector<uint32_t>& probe_attrs,
    const std::vector<size_t>& subset, uint32_t* starts, uint32_t* ends,
    bool count_blind) {
  PhaseTimer timer(&metrics_->tokenize_ns, reader_.get());
  uint32_t progress_field = 0;
  uint32_t progress_off = 0;
  bool had_help = false;
  for (size_t k = 0; k < subset.size(); ++k) {
    size_t j = subset[k];
    uint32_t attr = probe_attrs[j];
    PositionalMap::Probe probe;
    if (plan.has_value()) {
      probe = plan->Lookup(row, j);
    }
    if (probe.exact) {
      starts[k] = probe.start;
      ends[k] = probe.end;
      ++metrics_->map_exact_probes;
      had_help = true;
      if (attr + 1 > progress_field) {
        progress_field = attr + 1;
        progress_off = std::min<uint32_t>(
            probe.end + 1, static_cast<uint32_t>(line.size()));
      }
      continue;
    }
    if (probe.anchor_attr > progress_field) {
      progress_field = probe.anchor_attr;
      progress_off = std::min<uint32_t>(
          probe.anchor_rel, static_cast<uint32_t>(line.size()));
      ++metrics_->map_anchor_probes;
      had_help = true;
    }
    uint32_t before = progress_field;
    uint32_t high = tokenizer_.ScanStarts(line, progress_field,
                                          progress_off, attr + 1,
                                          starts_.data());
    if (high < attr + 1) {
      return Status::ParseError(
          table_name_ + ": row " + std::to_string(row) + " has " +
          std::to_string(high) + " fields, attribute " +
          std::to_string(attr) + " requested (file " + table_path_ + ")");
    }
    metrics_->fields_tokenized += attr + 1 - before;
    starts[k] = starts_[attr];
    ends[k] = starts_[attr + 1] - 1;
    progress_field = attr + 1;
    progress_off = std::min<uint32_t>(
        starts_[attr + 1], static_cast<uint32_t>(line.size()));
  }
  if (count_blind && !had_help && !subset.empty()) {
    ++metrics_->map_blind_rows;
  }
  return Status::OK();
}

std::shared_ptr<ColumnVector> RawScanOperator::OutputColumn(
    const std::shared_ptr<const ColumnVector>& segment, size_t rows,
    size_t passing) const {
  if (passing == rows && segment->size() == rows) {
    return std::const_pointer_cast<ColumnVector>(segment);
  }
  auto column = std::make_shared<ColumnVector>(segment->type());
  column->Reserve(passing);
  for (size_t r = 0; r < rows; ++r) {
    if (passing == rows || pass_[r]) column->AppendFrom(*segment, r);
  }
  return column;
}

Status RawScanOperator::ReadRow(size_t r, Slice* line) {
  const auto [start, end] = row_spans_[r];
  if (end <= start) {
    *line = Slice();
    return Status::OK();
  }
  return reader_->ReadAt(start, static_cast<size_t>(end - start), line);
}

Status RawScanOperator::ConvertField(Slice line, uint32_t start,
                                     uint32_t end, size_t slot,
                                     uint64_t row, ColumnVector* out) {
  Slice raw = CsvTokenizer::RawField(line, start, end + 1);
  Slice text = tokenizer_.DecodeField(raw, &decode_scratch_);
  Status s = ValueParser::ParseInto(text, out->type(), out);
  if (!s.ok()) {
    return Status::ParseError(table_name_ + ": row " + std::to_string(row) +
                              ", attribute " +
                              std::to_string(projection_[slot]) + ": " +
                              s.message());
  }
  ++metrics_->fields_converted;
  return Status::OK();
}

Result<BatchPtr> RawScanOperator::ParseRawBlock(uint64_t block) {
  const NoDbConfig& config = state_->config();
  const uint32_t rows_per_block = config.rows_per_block;
  const uint64_t first = block * uint64_t{rows_per_block};
  PositionalMap& map = state_->map();

  // Locate the block's first row before probing anything: past the end
  // of the file there is no block to look up.
  row_spans_.clear();
  {
    uint64_t start = 0;
    uint64_t end = 0;
    NODB_ASSIGN_OR_RETURN(bool ok, LocateRow(first, &start, &end));
    if (!ok) {
      exhausted_ = true;
      return BatchPtr();
    }
    row_spans_.emplace_back(start, end);
  }

  // ---- resolve segment residency and split the probes into phases:
  // phase-1 columns parse for every row, the rest only for qualifying
  // rows (phase 2).
  const size_t n_slots = projection_.size();
  std::vector<std::shared_ptr<const ColumnVector>> cached(n_slots);
  std::vector<std::shared_ptr<ColumnVector>> built(n_slots);
  std::vector<uint32_t> probe_attrs;
  std::vector<size_t> probe_slots;
  std::vector<size_t> p1_idx, p2_idx;  // indices into probe_attrs
  for (size_t i = 0; i < n_slots; ++i) {
    uint32_t attr = projection_[i];
    cached[i] = LookupSegment(attr, block);
    if (cached[i] != nullptr) continue;
    built[i] = std::make_shared<ColumnVector>(schema_->field(i).type);
    if (phase1_slot_[i]) {
      p1_idx.push_back(probe_attrs.size());
      built[i]->Reserve(rows_per_block);
    } else {
      p2_idx.push_back(probe_attrs.size());
    }
    probe_attrs.push_back(attr);
    probe_slots.push_back(i);
  }

  std::optional<PositionalMap::BlockPlan> plan;
  std::optional<PositionalMap::ChunkBuilder> chunk;
  if (use_map_ && !probe_attrs.empty()) {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    plan = map.PrepareBlock(first, probe_attrs);
    // The distance policy still decides per combination, but only the
    // phase-1 columns have spans for every row of the block — the
    // chunk records exactly those.
    if (plan->generation() != map_generation_) {
      plan.reset();  // chunks of a rewritten file: tokenize blind
    } else if (!p1_idx.empty() && map.ShouldIndexCombination(*plan)) {
      std::vector<uint32_t> chunk_attrs;
      chunk_attrs.reserve(p1_idx.size());
      for (size_t j : p1_idx) chunk_attrs.push_back(probe_attrs[j]);
      chunk = map.StartChunk(first, chunk_attrs, map_generation_);
    }
  }

  // ---- phase 1: locate every row of the block, tokenize and convert
  // the phase-1 columns. A block whose columns are all resident reads
  // no row bytes — the paper's "eliminating the need to access hot raw
  // data".
  std::vector<uint32_t> p1_starts(p1_idx.size());
  std::vector<uint32_t> p1_ends(p1_idx.size());
  Slice line;
  for (uint64_t r = first; r < first + rows_per_block; ++r) {
    if (r > first) {
      uint64_t start = 0;
      uint64_t end = 0;
      NODB_ASSIGN_OR_RETURN(bool ok, LocateRow(r, &start, &end));
      if (!ok) break;
      row_spans_.emplace_back(start, end);
    }
    if (p1_idx.empty()) continue;
    NODB_RETURN_NOT_OK(ReadRow(r - first, &line));
    NODB_RETURN_NOT_OK(TokenizeSpans(line, r, plan, probe_attrs, p1_idx,
                                     p1_starts.data(), p1_ends.data(),
                                     /*count_blind=*/true));
    {
      PhaseTimer timer(&metrics_->convert_ns, reader_.get());
      for (size_t k = 0; k < p1_idx.size(); ++k) {
        size_t slot = probe_slots[p1_idx[k]];
        NODB_RETURN_NOT_OK(ConvertField(line, p1_starts[k], p1_ends[k],
                                        slot, r, built[slot].get()));
      }
    }
    if (chunk.has_value()) {
      PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
      chunk->AddRow(p1_starts.data(), p1_ends.data());
    }
  }
  const size_t rows = row_spans_.size();
  if (!predicates_.empty()) {
    metrics_->pushdown_phase1_fields += rows * p1_idx.size();
  }

  // ---- vectorize the conjuncts over the partial batch. Phase-2 slots
  // hold empty (or resident) columns no predicate references.
  std::vector<std::shared_ptr<ColumnVector>> columns(n_slots);
  for (size_t i = 0; i < n_slots; ++i) {
    if (built[i] != nullptr) {
      columns[i] = built[i];
    } else {
      NODB_CHECK(cached[i]->size() >= rows);
      columns[i] = std::const_pointer_cast<ColumnVector>(cached[i]);
    }
  }
  NODB_ASSIGN_OR_RETURN(
      size_t passing,
      EvaluatePushdown(RecordBatch(schema_, columns, rows), &pass_));
  // Every row passes: phase 2 parses whole columns too.
  const bool whole = passing == rows;

  // ---- phase 2: qualifying rows only — tokenize/convert the
  // remaining columns (the paper's selective tuple formation, now
  // predicate-aware).
  std::vector<uint32_t> p2_starts(p2_idx.size());
  std::vector<uint32_t> p2_ends(p2_idx.size());
  if (passing > 0 && !p2_idx.empty()) {
    for (size_t j : p2_idx) built[probe_slots[j]]->Reserve(passing);
    for (size_t r = 0; r < rows; ++r) {
      if (!whole && !pass_[r]) continue;
      NODB_RETURN_NOT_OK(ReadRow(r, &line));
      // Blind-row attribution happened in phase 1 (when phase-1
      // columns probed) — count here only when phase 2 is the row's
      // first tokenize pass.
      NODB_RETURN_NOT_OK(TokenizeSpans(line, first + r, plan, probe_attrs,
                                       p2_idx, p2_starts.data(),
                                       p2_ends.data(),
                                       /*count_blind=*/p1_idx.empty()));
      PhaseTimer timer(&metrics_->convert_ns, reader_.get());
      for (size_t k = 0; k < p2_idx.size(); ++k) {
        size_t slot = probe_slots[p2_idx[k]];
        NODB_RETURN_NOT_OK(ConvertField(line, p2_starts[k], p2_ends[k],
                                        slot, first + r, built[slot].get()));
      }
    }
    metrics_->pushdown_phase2_fields += passing * p2_idx.size();
  }

  // ---- side effects: every column parsed for the whole block — phase
  // 1 always, phase 2 when every row passed — feeds the segment store,
  // statistics and zone maps; phase-2 columns of a partly passing block
  // teach nothing. Only phase-1 spans were recorded for the map.
  {
    PhaseTimer timer(&metrics_->nodb_ns, reader_.get());
    if (chunk.has_value() && chunk->rows() > 0) {
      map.CommitChunk(std::move(*chunk));
    }
    for (size_t i = 0; i < n_slots; ++i) {
      uint32_t attr = projection_[i];
      const bool hot = use_store_ && promote_attr_[i];
      if (built[i] != nullptr) {
        if (!whole && !phase1_slot_[i]) continue;
        MaybeObserveZone(attr, block, *built[i]);
        if (use_stats_) {
          state_->stats().ObserveBlock(attr, block, *built[i]);
        }
        InsertSegment(attr, block, built[i], hot);
      } else {
        MaybeObserveZone(attr, block, *cached[i]);
        if (hot) InsertSegment(attr, block, cached[i], true);
      }
    }
  }

  // ---- form the output: a fully passing block is emitted as views of
  // its built and resident segments; otherwise the qualifying rows are
  // copied out (phase-2 columns already hold exactly those).
  for (size_t i = 0; i < n_slots; ++i) {
    if (built[i] != nullptr && !phase1_slot_[i]) continue;
    columns[i] = OutputColumn(columns[i], rows, passing);
  }

  metrics_->rows_scanned += rows;
  metrics_->pushdown_rows_pruned += rows - passing;
  if (probe_attrs.empty()) {
    metrics_->rows_from_cache += rows;
  } else {
    metrics_->rows_from_raw += rows;
  }
  row_ = first + rows;
  if (rows < rows_per_block) exhausted_ = true;  // end of file
  return std::make_shared<RecordBatch>(schema_, std::move(columns), passing);
}

}  // namespace nodb
