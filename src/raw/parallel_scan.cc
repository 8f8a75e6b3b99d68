#include "raw/parallel_scan.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "io/buffered_reader.h"
#include "raw/raw_scan.h"
#include "simd/simd.h"
#include "simd/structural_index.h"
#include "util/thread_pool.h"

namespace nodb {

namespace {

/// The rows starting in one newline-aligned byte range.
struct RangeRows {
  std::vector<uint64_t> starts;  // absolute offsets, file order
  uint64_t end_cursor = 0;       // one past the last row's terminator
  Status status;
};

/// Discovers every row starting in [begin, end). The range is read in
/// slabs of up to `read_buffer_bytes` whose newlines the structural
/// indexer lists; a slab that ends mid-row is re-read from that row's
/// start, and one holding no complete row grows until it reaches a
/// newline or the range end. An unterminated final row of the file is
/// closed at end of file, as the serial scan's FindNewline closes it.
void DiscoverRange(const RawTableState& state,
                   std::shared_ptr<RandomAccessFile> file, uint64_t begin,
                   uint64_t end, RangeRows* out) {
  const size_t buffer_bytes = state.config().read_buffer_bytes;
  BufferedReader reader(std::move(file), buffer_bytes);
  const simd::StructuralIndexer indexer(
      state.info().dialect, simd::LevelFor(state.config().enable_simd),
      /*want_fields=*/false);
  simd::StructuralIndex index;

  uint64_t offset = begin;
  out->end_cursor = begin;
  while (offset < end) {
    size_t want =
        static_cast<size_t>(std::min<uint64_t>(end - offset, buffer_bytes));
    Slice slab;
    while (true) {
      out->status = reader.ReadAt(offset, want, &slab);
      if (out->status.ok() && slab.size() < want) {
        out->status = Status::IOError(state.info().path + " shrank");
      }
      if (!out->status.ok()) return;
      indexer.Index(slab.data(), slab.size(), offset, &index);
      if (!index.newlines.empty() || offset + slab.size() >= end) break;
      want = static_cast<size_t>(std::min<uint64_t>(end - offset, want * 2));
    }
    const uint64_t slab_end = offset + slab.size();
    uint64_t row = offset;
    for (uint32_t newline : index.newlines) {
      out->starts.push_back(row);
      row = offset + newline + 1;
    }
    if (slab_end >= end && row < slab_end) {
      out->starts.push_back(row);  // final row of the file, unterminated
      row = slab_end + 1;
    }
    out->end_cursor = row;
    offset = row;
  }
}

/// Step 1: discovers the data rows on `num_ranges` newline-aligned byte
/// ranges in parallel and publishes the whole row index at once.
Status DiscoverRowIndex(RawTableState* state, ThreadPool* pool,
                        uint64_t num_ranges) {
  // The generation before the file handle: a rewrite after this point
  // drops the publication.
  const uint64_t map_generation = state->map().generation();
  const std::shared_ptr<RandomAccessFile> file = state->file();
  BufferedReader reader(file, state->config().read_buffer_bytes);
  NODB_RETURN_NOT_OK(reader.Refresh());
  const uint64_t file_size = reader.file_size();

  // Data rows start after the header line, if any.
  uint64_t data_begin = 0;
  if (state->info().dialect.has_header && file_size > 0) {
    uint64_t header_end = 0;
    Status s = reader.FindNewline(0, &header_end);
    (void)s;  // a header-only file simply has zero data rows
    data_begin = std::min<uint64_t>(header_end + 1, file_size);
  }

  // Range i owns every row whose start falls in [bounds[i],
  // bounds[i+1]). A target inside the previous boundary's row yields an
  // empty range at that boundary; later targets still split normally.
  const uint64_t data_size = file_size - data_begin;
  num_ranges = std::max<uint64_t>(1, std::min(num_ranges, data_size));
  std::vector<uint64_t> bounds{data_begin};
  for (uint64_t i = 1; i < num_ranges; ++i) {
    const uint64_t target = data_begin + data_size * i / num_ranges;
    uint64_t aligned = bounds.back();
    if (target > bounds.back()) {
      // First row start at or after `target`: one past the first
      // newline at offset >= target - 1.
      uint64_t newline = 0;
      Status s = reader.FindNewline(target - 1, &newline);
      if (!s.ok() && !s.IsOutOfRange()) return s;
      aligned = std::min<uint64_t>(newline + 1, file_size);
    }
    bounds.push_back(std::max(aligned, bounds.back()));
  }
  bounds.push_back(file_size);

  std::vector<RangeRows> ranges(bounds.size() - 1);
  ParallelFor(pool, ranges.size(), [&](size_t i) {
    DiscoverRange(*state, file, bounds[i], bounds[i + 1], &ranges[i]);
  });

  // The cursor is one past the last row's end, taken from the last
  // range that owns rows (trailing ranges can be empty).
  uint64_t cursor = data_begin;
  std::vector<uint64_t> starts;
  for (const RangeRows& range : ranges) {
    NODB_RETURN_NOT_OK(range.status);
    if (range.starts.empty()) continue;
    starts.insert(starts.end(), range.starts.begin(), range.starts.end());
    cursor = range.end_cursor;
  }
  // Under the baton, so a concurrent serial scan cannot extend the index
  // underneath the publication: it waits at its first undiscovered row
  // and then finds the whole file published at once.
  PositionalMap::Discovery baton(&state->map(), map_generation);
  state->map().PublishRowIndex(std::move(starts), cursor, file_size,
                               map_generation);
  return Status::OK();
}

}  // namespace

Status ParallelFirstTouch(RawTableState* state, std::vector<uint32_t> attrs,
                          uint32_t num_threads) {
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  for (uint32_t attr : attrs) {
    if (attr >= state->info().schema->num_fields()) {
      return Status::InvalidArgument(
          "parallel first touch: attribute " + std::to_string(attr) +
          " out of range for table " + state->info().name);
    }
  }
  if (!state->component_flags().map) return Status::OK();
  if (state->file() == nullptr) {
    NODB_RETURN_NOT_OK(state->Open());
  }

  const uint32_t threads = std::max<uint32_t>(1, num_threads);
  ThreadPool pool(threads);
  if (state->map().known_rows() == 0 && !state->map().rows_complete()) {
    NODB_RETURN_NOT_OK(DiscoverRowIndex(state, &pool, threads));
  }
  if (attrs.empty()) return Status::OK();

  // Step 2: every worker drains row-blocks through its own scan until
  // one comes back as the last (or past the end), or any block fails.
  std::atomic<uint64_t> next_block{0};
  std::atomic<bool> failed{false};
  std::vector<Status> outcomes(threads);
  ParallelFor(&pool, threads, [&](size_t worker) {
    RawScanOperator scan(state, attrs, nullptr, /*internal=*/true);
    Status& status = outcomes[worker];
    status = scan.Open();
    for (bool more = true; status.ok() && more && !failed;) {
      Result<bool> block = scan.ScanBlock(next_block++);
      status = block.status();
      more = block.ok() && *block;
    }
    if (!status.ok()) failed = true;
  });
  for (const Status& status : outcomes) NODB_RETURN_NOT_OK(status);
  return Status::OK();
}

}  // namespace nodb
