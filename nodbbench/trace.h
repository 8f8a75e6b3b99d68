// Spans recorded by the benchmark around its calls into the engine's
// layers. Nothing here reaches inside the engine: a query span is
// broken down using the QueryMetrics the call already returns.
#ifndef NODBBENCH_TRACE_H_
#define NODBBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "monitor/query_metrics.h"
#include "util/status.h"

namespace nodbbench {

/// One timed interval charged to a layer. Spans of one query (or one
/// set-up call) share a trace id; parent_id 0 marks the root.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  std::string layer;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// True for the root of a query's tree (as opposed to set-up calls).
  bool query = false;

  int64_t duration() const { return end_ns - start_ns; }
};

/// Monotonic clock shared by every span, in nanoseconds.
int64_t NowNs();

/// In-memory span store of one thread. Ids carry the recorder's id in
/// their top 16 bits, so recorders of concurrent clients merge without
/// collisions.
class SpanRecorder {
 public:
  explicit SpanRecorder(uint16_t recorder_id = 0)
      : next_id_(static_cast<uint64_t>(recorder_id) << 48) {}

  uint64_t NewTrace() { return ++next_id_; }
  uint64_t Record(uint64_t trace, uint64_t parent, std::string layer,
                  std::string name, int64_t start_ns, int64_t end_ns,
                  bool query = false);

  /// Breaks an in-process Engine::Execute call [start, end] into the
  /// spans its metrics describe: the root (layer `engines`), then the
  /// phases parse (sql), plan (sql) and drain (exec), and under drain
  /// the scan categories io (io), locate (raw), tokenize and convert
  /// (csv) and upkeep (raw). Children are laid end to end from their
  /// parent's start and clipped to it, so the self times of the tree
  /// sum exactly to the root's wall time. Returns the trace id.
  uint64_t RecordLocalQuery(int64_t start_ns, int64_t end_ns,
                            const nodb::QueryMetrics& metrics);

  /// A ClientConnection::Execute round trip [start, end]: the root is
  /// the client-observed call (layer `server`); the server-reported
  /// total_ns becomes an `engines` child centred in it, broken down as
  /// in RecordLocalQuery. The root's self time is the wire time.
  uint64_t RecordRemoteQuery(int64_t start_ns, int64_t end_ns,
                             const nodb::QueryMetrics& metrics);

  /// Charges what the benchmark does for a traced query after the call
  /// returned (recording its spans, reading file sizes) to `obs`: the
  /// query's root span, which ended at `end_ns`, is extended to now and
  /// gains an `obs` child covering the extension. Returns the new end.
  int64_t ChargeBookkeeping(uint64_t trace, int64_t end_ns);

  void Append(const SpanRecorder& other);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void RecordBreakdown(uint64_t trace, uint64_t engine_span,
                       int64_t start_ns, int64_t end_ns,
                       const nodb::QueryMetrics& metrics);

  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers (each child clipped to the
/// span). Index-aligned with `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-layer self time, split into query trees and set-up calls.
struct LayerTimes {
  std::map<std::string, int64_t> query_ns;
  std::map<std::string, int64_t> other_ns;
  int64_t query_wall_ns = 0;  ///< summed root durations of query trees
  uint64_t queries = 0;
  /// Query trees whose self times do not sum to their root's wall time
  /// (0 by construction; checked, not assumed).
  uint64_t unbalanced = 0;
};
LayerTimes SummarizeLayers(const std::vector<Span>& spans);

/// Writes `spans` as a Chrome trace-viewer JSON array (one complete
/// event per span, args carry the span and parent ids).
nodb::Status WriteChromeTrace(const std::vector<Span>& spans,
                              const std::string& path);

}  // namespace nodbbench

#endif  // NODBBENCH_TRACE_H_
