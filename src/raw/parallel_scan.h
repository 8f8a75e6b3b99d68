#ifndef NODB_RAW_PARALLEL_SCAN_H_
#define NODB_RAW_PARALLEL_SCAN_H_

#include <cstdint>
#include <vector>

#include "raw/table_state.h"
#include "util/result.h"

namespace nodb {

/// Outcome of a parallel chunked scan (for benches and tests).
struct ParallelScanStats {
  uint64_t rows = 0;          ///< data rows discovered
  uint64_t byte_chunks = 0;   ///< newline-aligned file chunks scanned
  uint64_t threads = 0;       ///< pool size used
};

/// Parallel first-touch scan: builds the table's NoDB structures — row
/// index, positional-map chunks, probationary segments and statistics
/// for `attrs` — in one multi-threaded pass over the raw file.
///
/// The file's data region is partitioned into `num_threads`
/// newline-aligned byte chunks; a worker per chunk discovers tuple
/// boundaries, tokenizes and parses exactly the requested attributes
/// (selective tokenizing/parsing, as the serial scan would), and
/// accumulates a local fragment. Fragments are then merged on the
/// calling thread *in file order*, so the resulting PositionalMap,
/// SegmentStore and StatsCollector contents — and therefore all query
/// results — are byte-identical to what the serial RawScanOperator
/// produces, for any thread count.
///
/// Honors the per-component enable flags of the state's NoDbConfig:
/// disabled structures are not populated. `attrs` must be table
/// attribute indices (they are sorted and deduplicated internally) and
/// may be empty, in which case only tuple boundaries are discovered.
///
/// Mutates nothing on failure: a malformed row surfaces the same
/// ParseError the serial scan would raise, with the state untouched.
/// Intended for a *cold* table (no known rows, empty cache); the
/// engine's adaptive serial path remains the one that refines warm
/// state.
Result<ParallelScanStats> ParallelChunkedScan(RawTableState* state,
                                              std::vector<uint32_t> attrs,
                                              uint32_t num_threads);

}  // namespace nodb

#endif  // NODB_RAW_PARALLEL_SCAN_H_
