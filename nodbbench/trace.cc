#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace nodbbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::Record(uint64_t trace, uint64_t parent,
                              std::string layer, std::string name,
                              int64_t start_ns, int64_t end_ns, bool query) {
  Span span;
  span.trace_id = trace;
  span.span_id = ++next_id_;
  span.parent_id = parent;
  span.layer = std::move(layer);
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  span.query = query;
  spans_.push_back(std::move(span));
  return spans_.back().span_id;
}

namespace {

/// Places children end to end inside [start, end).
class Cursor {
 public:
  Cursor(SpanRecorder* recorder, uint64_t trace, uint64_t parent,
         int64_t start_ns, int64_t end_ns)
      : recorder_(recorder),
        trace_(trace),
        parent_(parent),
        at_(start_ns),
        end_(end_ns) {}

  /// Returns the child's id and its clipped [start, end).
  uint64_t Next(const char* layer, const char* name, int64_t duration_ns,
                int64_t* start_ns = nullptr, int64_t* end_ns = nullptr) {
    const int64_t start = at_;
    const int64_t end =
        std::min(end_, start + std::max<int64_t>(0, duration_ns));
    at_ = end;
    if (start_ns != nullptr) *start_ns = start;
    if (end_ns != nullptr) *end_ns = end;
    return recorder_->Record(trace_, parent_, layer, name, start, end);
  }

 private:
  SpanRecorder* recorder_;
  uint64_t trace_;
  uint64_t parent_;
  int64_t at_;
  int64_t end_;
};

}  // namespace

void SpanRecorder::RecordBreakdown(uint64_t trace, uint64_t engine_span,
                                   int64_t start_ns, int64_t end_ns,
                                   const nodb::QueryMetrics& metrics) {
  Cursor phases(this, trace, engine_span, start_ns, end_ns);
  phases.Next("sql", "parse", metrics.parse_ns);
  phases.Next("sql", "plan", metrics.plan_ns);
  int64_t drain_start = 0;
  int64_t drain_end = 0;
  const uint64_t drain =
      phases.Next("exec", "drain", metrics.drain_ns, &drain_start, &drain_end);
  const nodb::ScanMetrics& scan = metrics.scan;
  Cursor categories(this, trace, drain, drain_start, drain_end);
  categories.Next("io", "read", scan.io_ns);
  categories.Next("raw", "locate", scan.parsing_ns);
  categories.Next("csv", "tokenize", scan.tokenize_ns);
  categories.Next("csv", "convert", scan.convert_ns);
  categories.Next("raw", "upkeep", scan.nodb_ns);
}

uint64_t SpanRecorder::RecordLocalQuery(int64_t start_ns, int64_t end_ns,
                                        const nodb::QueryMetrics& metrics) {
  const uint64_t trace = NewTrace();
  const uint64_t root = Record(trace, 0, "engines", "Engine::Execute",
                               start_ns, end_ns, /*query=*/true);
  RecordBreakdown(trace, root, start_ns, std::max(start_ns, end_ns), metrics);
  return trace;
}

uint64_t SpanRecorder::RecordRemoteQuery(int64_t start_ns, int64_t end_ns,
                                         const nodb::QueryMetrics& metrics) {
  const uint64_t trace = NewTrace();
  end_ns = std::max(start_ns, end_ns);
  const uint64_t root = Record(trace, 0, "server", "ClientConnection::Execute",
                               start_ns, end_ns, /*query=*/true);
  const int64_t wall = end_ns - start_ns;
  const int64_t engine_ns = std::clamp<int64_t>(metrics.total_ns, 0, wall);
  const int64_t engine_start = start_ns + (wall - engine_ns) / 2;
  const uint64_t engine =
      Record(trace, root, "engines", "Engine::ExecuteStreaming", engine_start,
             engine_start + engine_ns);
  RecordBreakdown(trace, engine, engine_start, engine_start + engine_ns,
                  metrics);
  return trace;
}

int64_t SpanRecorder::ChargeBookkeeping(uint64_t trace, int64_t end_ns) {
  // The root is the first span of its trace, and the trace is the
  // recorder's latest.
  size_t root = spans_.size();
  while (root > 0 && spans_[root - 1].trace_id == trace) --root;
  const int64_t now = NowNs();
  if (root == spans_.size()) return now;
  spans_[root].end_ns = std::max(spans_[root].end_ns, now);
  Record(trace, spans_[root].span_id, "obs", "trace bookkeeping", end_ns,
         spans_[root].end_ns);
  return spans_[root].end_ns;
}

void SpanRecorder::Append(const SpanRecorder& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].span_id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& child : spans) {
    auto it = index.find(child.parent_id);
    if (child.parent_id == 0 || it == index.end()) continue;
    const Span& parent = spans[it->second];
    const int64_t start = std::max(child.start_ns, parent.start_ns);
    const int64_t end = std::min(child.end_ns, parent.end_ns);
    if (end > start) covered[it->second].emplace_back(start, end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t open = 0;
    int64_t close = 0;
    bool have = false;
    for (const auto& [start, end] : intervals) {
      if (have && start <= close) {
        close = std::max(close, end);
        continue;
      }
      if (have) union_ns += close - open;
      open = start;
      close = end;
      have = true;
    }
    if (have) union_ns += close - open;
    self[i] = spans[i].duration() - union_ns;
  }
  return self;
}

LayerTimes SummarizeLayers(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::unordered_map<uint64_t, bool> query_trace;
  std::unordered_map<uint64_t, int64_t> root_wall;
  std::unordered_map<uint64_t, int64_t> self_sum;
  for (const Span& span : spans) {
    if (span.parent_id == 0 && span.query) {
      query_trace[span.trace_id] = true;
      root_wall[span.trace_id] += span.duration();
    }
  }
  LayerTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (query_trace.count(span.trace_id) != 0) {
      out.query_ns[span.layer] += self[i];
      self_sum[span.trace_id] += self[i];
    } else {
      out.other_ns[span.layer] += self[i];
    }
  }
  for (const auto& [trace, wall] : root_wall) {
    out.query_wall_ns += wall;
    ++out.queries;
    if (self_sum[trace] != wall) ++out.unbalanced;
  }
  return out;
}

nodb::Status WriteChromeTrace(const std::vector<Span>& spans,
                              const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return nodb::Status::IOError("cannot write " + path);
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":"
                 "%llu,\"parent\":%llu}}%s\n",
                 s.name.c_str(), s.layer.c_str(),
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration()) / 1e3,
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent_id),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", out);
  if (std::fclose(out) != 0) return nodb::Status::IOError("close " + path);
  return nodb::Status::OK();
}

}  // namespace nodbbench
