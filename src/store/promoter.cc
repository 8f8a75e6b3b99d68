#include "store/promoter.h"

#include "obs/metrics.h"
#include "raw/raw_scan.h"
#include "raw/scan_metrics.h"
#include "util/stopwatch.h"

namespace nodb {

std::vector<uint32_t> HotAttributes(const RawTableState& state) {
  const uint32_t threshold = state.config().promote_after_accesses;
  std::vector<uint64_t> heat = state.stats().access_heat_counts();
  std::vector<uint32_t> hot;
  for (uint32_t a = 0; a < heat.size(); ++a) {
    if (heat[a] >= threshold) hot.push_back(a);
  }
  return hot;
}

bool PromotionPending(const RawTableState& state,
                      const std::vector<uint32_t>& hot_attrs) {
  if (hot_attrs.empty()) return false;
  if (!state.map().rows_complete()) return true;  // undiscovered rows
  const uint64_t known = state.map().known_rows();
  const std::vector<uint64_t> rows = state.segments().protected_rows();
  for (uint32_t attr : hot_attrs) {
    if (attr >= rows.size() || rows[attr] < known) return true;
  }
  return false;
}

Status PromoteHotColumns(RawTableState* state,
                         const std::vector<uint32_t>& hot_attrs) {
  if (hot_attrs.empty()) return Status::OK();
  static obs::Counter* passes = obs::MetricsRegistry::Global().GetCounter(
      "nodb_promoter_passes_total", "Background promotion passes run");
  static obs::LatencyHistogram* pass_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "nodb_promoter_pass_ns", "Background promotion pass duration");
  passes->Add(1);
  Stopwatch watch;
  // The scan's own piggybacked promotion does all the work: every
  // committed block of a hot column lands in the store, so draining
  // the scan is the promotion pass. `internal`: this pass is not a
  // workload access, so it leaves usage counts and heat untouched.
  ScanMetrics scratch;
  RawScanOperator scan(state, hot_attrs, &scratch, /*internal=*/true);
  NODB_RETURN_NOT_OK(scan.Open());
  while (true) {
    NODB_ASSIGN_OR_RETURN(BatchPtr batch, scan.Next());
    if (batch == nullptr || batch->num_rows() == 0) break;
  }
  pass_ns->Record(watch.ElapsedNanos());
  return Status::OK();
}

}  // namespace nodb
