#ifndef NODB_RAW_PARALLEL_SCAN_H_
#define NODB_RAW_PARALLEL_SCAN_H_

#include <cstdint>
#include <vector>

#include "raw/table_state.h"
#include "util/status.h"

namespace nodb {

/// Parallel first touch: builds the table's NoDB structures for
/// `attrs` with `num_threads` workers, in two steps.
///   1. Row discovery (cold index only): each worker lists the newlines
///      of one newline-aligned byte range with the SIMD structural
///      indexer, and the row starts are published at once
///      (PositionalMap::PublishRowIndex) under the discovery baton.
///      Rows are cut on raw '\n' like the serial scan cuts them, so
///      quoted files need no special case.
///   2. Row-blocks: each worker drains block numbers from a shared
///      counter through its own internal RawScanOperator::ScanBlock, so
///      every map chunk, segment, statistic and zone entry is committed
///      by the serial scan's block loop.
///
/// A no-op without the positional-map component: blocks are addressed
/// through the row index. Best effort: a failing block stays
/// uncommitted and the first failure is returned; other blocks stay
/// committed. Statistics fold in block-completion order, so their
/// sketches (never query results) may differ from a serial scan's.
Status ParallelFirstTouch(RawTableState* state, std::vector<uint32_t> attrs,
                          uint32_t num_threads);

}  // namespace nodb

#endif  // NODB_RAW_PARALLEL_SCAN_H_
