#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "catalog/catalog.h"
#include "engines/nodb_engine.h"
#include "io/file.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "simd/structural_index.h"
#include "stats.h"
#include "trace.h"

namespace nodbbench {

namespace {

/// p95 needs at least 10 samples beyond it: the timed phase runs past
/// --seconds until it has this many queries.
constexpr size_t kMinTimedQueries = 200;
/// Read slab of the structural-indexing pass (the scan's own stage-1
/// buffer size).
constexpr size_t kSlabBytes = size_t{1} << 20;
/// Fresh engines the unfenced change probe runs the change script on.
constexpr uint32_t kProbeRounds = 2;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// What one client thread observed; merged after the timed phase.
struct Observations {
  explicit Observations(uint16_t recorder_id = 0) : spans(recorder_id) {}

  Tally tally;
  std::string first_failure;
  /// Timed-phase latencies. In trace mode queries alternate between
  /// the two lists; otherwise every query is untraced.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  /// Per traced timed query: what the call returned, the bytes of the
  /// tables it reads, and (remote only) the client round trip.
  std::vector<nodb::QueryMetrics> traced;
  std::vector<double> traced_file_bytes;
  std::vector<double> traced_wire_us;
  SpanRecorder spans;

  void Merge(const Observations& other) {
    tally.Add(other.tally);
    if (first_failure.empty()) first_failure = other.first_failure;
    untraced_ms.insert(untraced_ms.end(), other.untraced_ms.begin(),
                       other.untraced_ms.end());
    traced_ms.insert(traced_ms.end(), other.traced_ms.begin(),
                     other.traced_ms.end());
    traced.insert(traced.end(), other.traced.begin(), other.traced.end());
    traced_file_bytes.insert(traced_file_bytes.end(),
                             other.traced_file_bytes.begin(),
                             other.traced_file_bytes.end());
    traced_wire_us.insert(traced_wire_us.end(), other.traced_wire_us.begin(),
                          other.traced_wire_us.end());
    spans.Append(other.spans);
  }
};

/// Per-run accumulators shared by the three workloads.
struct Context {
  Context(const Plan& plan, const std::vector<Answer>& oracle,
          const RunOptions& options)
      : plan(plan), oracle(oracle), options(options) {}

  const Plan& plan;
  const std::vector<Answer>& oracle;
  const RunOptions& options;
  Observations obs;  // main thread; client threads merge into it
  Observations probe;  // answers of the unfenced change probe

  std::vector<double> setup_s;
  std::vector<double> data_to_query_s;
  std::vector<double> first_query_ms;
  std::vector<double> post_append_ms;
  std::vector<double> promote_wait_ms;
  std::vector<double> index_gbps;
  double timed_wall_s = 0;
  uint64_t timed_queries = 0;
  uint64_t store_evictions = 0;
  uint64_t cache_evictions = 0;
  uint64_t server_rejected = 0;

  /// The span recorder for set-up calls, or null outside trace mode.
  SpanRecorder* spans() { return options.trace ? &obs.spans : nullptr; }
  std::string Path(const std::string& file) const {
    return options.dir + "/" + file;
  }
  /// The timed phase ends once it has run for --seconds and holds
  /// enough queries for p95, or at the hard cap.
  bool TimedPhaseDone(double elapsed_s, size_t queries) const {
    const double cap = std::min(4 * options.seconds, options.seconds + 90);
    return (elapsed_s >= options.seconds && queries >= kMinTimedQueries) ||
           elapsed_s >= cap;
  }
  /// The timed phase is split into one chunk per round, so set-up and
  /// timed samples are both spread over the whole run. Every chunk but
  /// the last lasts seconds / rounds; the last ends the phase.
  /// `pending` counts queries answered in the chunk but not yet added
  /// to timed_queries.
  bool ChunkDone(uint32_t round, double chunk_s, size_t pending = 0) const {
    if (round + 1 < plan.rounds) {
      return chunk_s >= options.seconds / plan.rounds;
    }
    return TimedPhaseDone(timed_wall_s + chunk_s, timed_queries + pending);
  }
};

uint64_t CounterValue(const char* name) {
  return nodb::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Adds one timed chunk's wall time and registry eviction deltas to the
/// run's totals.
class ChunkMeter {
 public:
  explicit ChunkMeter(Context* ctx)
      : ctx_(ctx),
        start_ns_(NowNs()),
        store_(CounterValue("nodb_store_evictions_total")),
        cache_(CounterValue("nodb_cache_evictions_total")) {}

  double elapsed_s() const { return Seconds(NowNs() - start_ns_); }

  /// Closes the chunk at `end_ns`, leaving out `excluded_ns` spent in
  /// change fences; returns its wall time in seconds.
  double Finish(int64_t end_ns, int64_t excluded_ns = 0) {
    const double wall_s = Seconds(end_ns - start_ns_ - excluded_ns);
    ctx_->timed_wall_s += wall_s;
    ctx_->store_evictions +=
        CounterValue("nodb_store_evictions_total") - store_;
    ctx_->cache_evictions +=
        CounterValue("nodb_cache_evictions_total") - cache_;
    return wall_s;
  }

 private:
  Context* ctx_;
  int64_t start_ns_;
  uint64_t store_;
  uint64_t cache_;
};

/// Runs `call` and charges its wall time to `layer` when tracing.
template <typename Call>
auto Spanned(SpanRecorder* spans, const char* layer, const char* name,
             Call&& call) {
  const int64_t start = NowNs();
  auto result = call();
  if (spans != nullptr) {
    spans->Record(spans->NewTrace(), 0, layer, name, start, NowNs());
  }
  return result;
}

double TouchedFileBytes(const Context& ctx, const std::string& sql) {
  double bytes = 0;
  for (const Table& table : ctx.plan.tables) {
    if (!Reads(sql, table.name)) continue;
    auto size = nodb::GetFileSize(ctx.Path(table.file));
    if (size.ok()) bytes += static_cast<double>(*size);
  }
  return bytes;
}

/// Sends one query through `call` (Engine::Execute or
/// ClientConnection::Execute), times it, checks its rows against the
/// oracle, and when `traced` records its span tree. Returns the
/// latency in ms.
template <typename Call>
double Ask(const Context& ctx, uint32_t query, bool traced, bool remote,
           Observations* obs, Call&& call) {
  const std::string& sql = ctx.plan.queries[query].sql;
  const int64_t start = NowNs();
  nodb::Result<nodb::QueryOutcome> outcome = call(sql);
  const int64_t end = NowNs();
  const bool match =
      outcome.ok() && Fingerprint(outcome->result) == ctx.oracle[query];
  const Outcome result = Classify(outcome.status(), match);
  obs->tally.Record(result);
  if (result != Outcome::kOk && obs->first_failure.empty()) {
    obs->first_failure =
        (outcome.ok() ? std::string("wrong rows")
                      : outcome.status().ToString()) +
        " for query " + std::to_string(query) + " (table state " +
        std::to_string(ctx.plan.queries[query].state) + "): " + sql;
  }
  if (!traced || !outcome.ok()) return Ms(end - start);
  // A traced query's latency includes the tracing work, so the traced
  // and untraced medians differ by what tracing costs.
  uint64_t trace = 0;
  if (remote) {
    trace = obs->spans.RecordRemoteQuery(start, end, outcome->metrics);
    obs->traced_wire_us.push_back(
        static_cast<double>(end - start - outcome->metrics.total_ns) / 1e3);
  } else {
    trace = obs->spans.RecordLocalQuery(start, end, outcome->metrics);
  }
  obs->traced.push_back(outcome->metrics);
  obs->traced_file_bytes.push_back(TouchedFileBytes(ctx, sql));
  return Ms(obs->spans.ChargeBookkeeping(trace, end) - start);
}

void RecordTimed(Observations* obs, bool traced, double ms) {
  (traced ? obs->traced_ms : obs->untraced_ms).push_back(ms);
}

nodb::Catalog MakeCatalog(const Context& ctx) {
  nodb::Catalog catalog;
  for (const Table& table : ctx.plan.tables) {
    nodb::Status status = catalog.RegisterTable(
        {table.name, ctx.Path(table.file), table.schema, table.dialect});
    if (!status.ok()) {
      std::fprintf(stderr, "register %s: %s\n", table.name.c_str(),
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  return catalog;
}

std::unique_ptr<nodb::NoDbEngine> Construct(Context& ctx) {
  return Spanned(ctx.spans(), "engines", "NoDbEngine::NoDbEngine", [&] {
    return std::make_unique<nodb::NoDbEngine>(MakeCatalog(ctx),
                                              ctx.plan.config);
  });
}

/// Settles background promotion; returns the wait.
int64_t WaitForPromotions(Context& ctx, nodb::NoDbEngine* engine,
                          const char* span = "NoDbEngine::WaitForPromotions") {
  const int64_t start = NowNs();
  Spanned(ctx.spans(), "store", span, [&] {
    engine->WaitForPromotions();
    return 0;
  });
  return NowNs() - start;
}

/// Applies an append or in-place rewrite step to its table's live file
/// through the engine's own WritableFile; `spans` may be null.
nodb::Status ApplyChange(Context& ctx, SpanRecorder* spans, const Step& step) {
  std::string target;
  for (const Table& table : ctx.plan.tables) {
    if (table.name == step.table) target = ctx.Path(table.file);
  }
  const bool rewrite = step.kind == Step::Kind::kRewrite;
  nodb::Status status = Spanned(
      spans, "io",
      rewrite ? "WritableFile::Append (rewrite)" : "WritableFile::Append",
      [&]() -> nodb::Status {
        auto file = rewrite ? nodb::OpenWritableFile(target)
                            : nodb::OpenAppendableFile(target);
        if (!file.ok()) return file.status();
        std::FILE* in = std::fopen(ctx.Path(step.part).c_str(), "rb");
        if (in == nullptr) return nodb::Status::IOError("open " + step.part);
        std::string chunk(kSlabBytes, '\0');
        size_t n = 0;
        nodb::Status status = nodb::Status::OK();
        while (status.ok() &&
               (n = std::fread(chunk.data(), 1, chunk.size(), in)) > 0) {
          status = (*file)->Append(nodb::Slice(chunk.data(), n));
        }
        std::fclose(in);
        NODB_RETURN_NOT_OK(status);
        return (*file)->Close();
      });
  if (!status.ok()) {
    return nodb::Status::IOError("table change failed: " + status.ToString());
  }
  return status;
}

/// Times simd::StructuralIndexer::Index over `path` in read-buffer
/// slabs, one span per call; returns GB/s of indexed bytes.
double IndexPass(Context& ctx, const Table& table) {
  const nodb::simd::StructuralIndexer indexer(table.dialect,
                                              nodb::simd::ActiveLevel());
  nodb::simd::StructuralIndex index;
  std::FILE* in = std::fopen(ctx.Path(table.file).c_str(), "rb");
  if (in == nullptr) return 0;
  std::string slab(kSlabBytes, '\0');
  uint64_t offset = 0;
  int64_t busy_ns = 0;
  size_t n = 0;
  while ((n = std::fread(slab.data(), 1, slab.size(), in)) > 0) {
    const int64_t start = NowNs();
    indexer.Index(slab.data(), n, offset, &index);
    const int64_t end = NowNs();
    busy_ns += end - start;
    ctx.obs.spans.Record(ctx.obs.spans.NewTrace(), 0, "simd",
                         "StructuralIndexer::Index", start, end);
    offset += n;
  }
  std::fclose(in);
  return busy_ns > 0 ? static_cast<double>(offset) / busy_ns : 0;
}

/// Applies a change step under a live engine, after a fence: waiting
/// for background promotion to settle. A change that lands while a
/// promotion pass scans the table can make later queries miss appended
/// rows or see rewritten ones stale (README.md, "Known engine defect");
/// ChangeProbe runs the same changes unfenced so the defect stays in
/// view. Adds the fence's wait, which no timed metric includes, to
/// `*fence_ns`.
nodb::Status ChangeTable(Context& ctx, nodb::NoDbEngine* engine,
                         const Step& step, int64_t* fence_ns) {
  *fence_ns += WaitForPromotions(ctx, engine,
                                 "NoDbEngine::WaitForPromotions (fence)");
  return ApplyChange(ctx, ctx.spans(), step);
}

/// The append-then-query steps after a timed phase.
template <typename Call>
nodb::Status PostAppendPhase(Context& ctx, nodb::NoDbEngine* engine,
                             bool remote, Call&& call) {
  int64_t fence_ns = 0;
  for (const Step& step : ctx.plan.script) {
    if (step.kind != Step::Kind::kQuery) {
      NODB_RETURN_NOT_OK(ChangeTable(ctx, engine, step, &fence_ns));
    } else {
      ctx.post_append_ms.push_back(
          Ask(ctx, step.query, false, remote, &ctx.obs, call));
    }
  }
  return nodb::Status::OK();
}

/// Destroys an engine and hands its freed heap back to the OS, so
/// peak_rss_mib measures one engine rather than the leftovers of
/// earlier set-up repetitions and scripts.
void Release(std::unique_ptr<nodb::NoDbEngine>* engine) {
  engine->reset();
  malloc_trim(0);
}

// ------------------------------------------------------------ workloads

/// Exploration scripts, each on a fresh engine over a fresh copy of the
/// never-queried file. Before each script, a set-up sample: another
/// fresh engine answers the script's first query.
nodb::Status ColdExplore(Context& ctx) {
  const Plan& plan = ctx.plan;
  const uint32_t first_query = plan.script.front().query;
  for (uint32_t script = 0;
       !ctx.TimedPhaseDone(ctx.timed_wall_s, ctx.timed_queries); ++script) {
    NODB_RETURN_NOT_OK(ResetTables(plan, ctx.options.dir));
    const int64_t setup_start = NowNs();
    auto engine = Construct(ctx);
    Ask(ctx, first_query, false, false, &ctx.obs,
        [&](const std::string& sql) { return engine->Execute(sql); });
    ctx.setup_s.push_back(Seconds(NowNs() - setup_start));
    Release(&engine);

    NODB_RETURN_NOT_OK(ResetTables(plan, ctx.options.dir));
    ChunkMeter chunk(&ctx);
    engine = Construct(ctx);
    int64_t last_answer = NowNs();
    int64_t fence_ns = 0;
    bool after_change = false;
    uint32_t position = 0;
    for (const Step& step : plan.script) {
      if (step.kind != Step::Kind::kQuery) {
        NODB_RETURN_NOT_OK(ChangeTable(ctx, engine.get(), step, &fence_ns));
        after_change = true;
        continue;
      }
      const bool traced =
          ctx.options.trace && (script + position) % 2 == 1;
      const double ms =
          Ask(ctx, step.query, traced, false, &ctx.obs,
              [&](const std::string& sql) { return engine->Execute(sql); });
      last_answer = NowNs();
      RecordTimed(&ctx.obs, traced, ms);
      if (position == 0) ctx.first_query_ms.push_back(ms);
      if (after_change) ctx.post_append_ms.push_back(ms);
      after_change = false;
      ++position;
      ++ctx.timed_queries;
    }
    ctx.data_to_query_s.push_back(chunk.Finish(last_answer, fence_ns));
    ctx.promote_wait_ms.push_back(Ms(WaitForPromotions(ctx, engine.get())));
    Release(&engine);
  }
  return nodb::Status::OK();
}

/// Repeated TPC-H-shaped queries on an adapted engine. Each round sets
/// up a fresh engine (cold pass, second pass, promotion) and then runs
/// its share of the timed phase on it.
nodb::Status WarmTpch(Context& ctx) {
  const Plan& plan = ctx.plan;
  NODB_RETURN_NOT_OK(ResetTables(plan, ctx.options.dir));
  std::unique_ptr<nodb::NoDbEngine> engine;
  auto execute = [&](const std::string& sql) { return engine->Execute(sql); };
  const std::vector<uint32_t>& schedule = plan.clients.front();
  size_t next = 0;  // schedule position, continued across rounds
  for (uint32_t round = 0; round < plan.rounds; ++round) {
    Release(&engine);
    const int64_t start = NowNs();
    engine = Construct(ctx);
    // Two passes cross the promotion threshold. Each query waits for
    // the background promotion it triggers, so every round adapts
    // through the same sequence of engine states; left to overlap the
    // next queries, promotion made this pass's time vary 3x from round
    // to round.
    int64_t wait_ns = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < plan.warmup.size(); ++i) {
        const double ms =
            Ask(ctx, plan.warmup[i], false, false, &ctx.obs, execute);
        if (pass == 0 && i == 0) ctx.first_query_ms.push_back(ms);
        wait_ns += WaitForPromotions(ctx, engine.get());
      }
      if (pass == 0) ctx.data_to_query_s.push_back(Seconds(NowNs() - start));
    }
    ctx.promote_wait_ms.push_back(Ms(wait_ns));
    ctx.setup_s.push_back(Seconds(NowNs() - start));

    ChunkMeter chunk(&ctx);
    for (; !ctx.ChunkDone(round, chunk.elapsed_s()); ++next) {
      const bool traced = ctx.options.trace && next % 2 == 1;
      RecordTimed(&ctx.obs, traced,
                  Ask(ctx, schedule[next % schedule.size()], traced, false,
                      &ctx.obs, execute));
      ++ctx.timed_queries;
    }
    chunk.Finish(NowNs());
  }
  return PostAppendPhase(ctx, engine.get(), false, execute);
}

/// A loopback Server with closed-loop wire clients. Each round sets up
/// a fresh engine, server and connections, runs the warm-up pass, and
/// then its share of the timed phase.
nodb::Status ServedMix(Context& ctx) {
  const Plan& plan = ctx.plan;
  const size_t clients = plan.clients.size();
  NODB_RETURN_NOT_OK(ResetTables(plan, ctx.options.dir));
  std::unique_ptr<nodb::NoDbEngine> engine;
  std::unique_ptr<nodb::server::Server> server;
  std::vector<nodb::server::ClientConnection> conns;
  auto teardown = [&]() -> nodb::Status {
    for (auto& conn : conns) conn.Close();
    conns.clear();
    nodb::Status status = nodb::Status::OK();
    if (server != nullptr) {
      server->RequestShutdown();
      status = server->Shutdown();
    }
    server.reset();
    Release(&engine);
    return status;
  };
  auto remote = [&](size_t c) {
    return [&conns, c](const std::string& sql) {
      return conns[c].Execute(sql);
    };
  };
  std::vector<size_t> next(clients, 0);  // per-client schedule position

  for (uint32_t round = 0; round < plan.rounds; ++round) {
    NODB_RETURN_NOT_OK(teardown());
    const int64_t start = NowNs();
    engine = Construct(ctx);
    server = Spanned(ctx.spans(), "server", "Server::Server", [&] {
      return std::make_unique<nodb::server::Server>(engine.get(),
                                                    plan.config);
    });
    NODB_RETURN_NOT_OK(Spanned(ctx.spans(), "server", "Server::Start",
                               [&] { return server->Start(); }));
    for (size_t c = 0; c < clients; ++c) {
      auto conn = Spanned(ctx.spans(), "server", "ClientConnection::Connect",
                          [&] {
                            return nodb::server::ClientConnection::Connect(
                                "127.0.0.1", server->port(), "bench",
                                "client" + std::to_string(c));
                          });
      if (!conn.ok()) return conn.status();
      conns.push_back(std::move(*conn));
    }
    // The warm-up pass goes through one connection, so the engine
    // adapts (and schedules promotion) in the same order every round.
    for (size_t i = 0; i < plan.warmup.size(); ++i) {
      const double ms =
          Ask(ctx, plan.warmup[i], false, true, &ctx.obs, remote(0));
      if (i == 0) ctx.first_query_ms.push_back(ms);
    }
    ctx.data_to_query_s.push_back(Seconds(NowNs() - start));
    ctx.promote_wait_ms.push_back(Ms(WaitForPromotions(ctx, engine.get())));
    ctx.setup_s.push_back(Seconds(NowNs() - start));

    ChunkMeter chunk(&ctx);
    const uint64_t rejected_before = server->Stats().rejected_total;
    std::atomic<bool> stop{false};
    std::atomic<size_t> answered{0};
    std::vector<std::thread> threads;
    // Span ids carry the recorder id, so every (round, client) recorder
    // gets its own; 0 is the main thread's.
    std::vector<Observations> timed;
    for (size_t c = 0; c < clients; ++c) {
      timed.emplace_back(static_cast<uint16_t>(1 + round * clients + c));
    }
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const std::vector<uint32_t>& schedule = plan.clients[c];
        for (; !stop.load(std::memory_order_relaxed); ++next[c]) {
          const bool traced = ctx.options.trace && next[c] % 2 == 1;
          RecordTimed(&timed[c], traced,
                      Ask(ctx, schedule[next[c] % schedule.size()], traced,
                          true, &timed[c], remote(c)));
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    while (!ctx.ChunkDone(round, chunk.elapsed_s(),
                          answered.load(std::memory_order_relaxed))) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto& thread : threads) thread.join();
    chunk.Finish(NowNs());
    ctx.timed_queries += answered.load();
    for (const auto& o : timed) ctx.obs.Merge(o);
    ctx.server_rejected += server->Stats().rejected_total - rejected_before;
  }

  NODB_RETURN_NOT_OK(PostAppendPhase(ctx, engine.get(), true, remote(0)));
  return teardown();
}

/// The workload's table changes with no fence, on a fresh in-process
/// engine: the warm-up pass twice (crossing the promotion threshold, so
/// promotion runs in the background), then the change script with every
/// answer checked. Its answers go to ctx.probe, not to the run's tally:
/// wrong ones are the known engine defect, reported on their own.
nodb::Status ChangeProbe(Context& ctx) {
  const Plan& plan = ctx.plan;
  for (uint32_t round = 0; round < kProbeRounds; ++round) {
    NODB_RETURN_NOT_OK(ResetTables(plan, ctx.options.dir));
    auto engine =
        std::make_unique<nodb::NoDbEngine>(MakeCatalog(ctx), plan.config);
    auto execute = [&](const std::string& sql) { return engine->Execute(sql); };
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t query : plan.warmup) {
        Ask(ctx, query, false, false, &ctx.probe, execute);
      }
    }
    for (const Step& step : plan.script) {
      if (step.kind == Step::Kind::kQuery) {
        Ask(ctx, step.query, false, false, &ctx.probe, execute);
      } else {
        NODB_RETURN_NOT_OK(ApplyChange(ctx, nullptr, step));
      }
    }
    engine->WaitForPromotions();
    Release(&engine);
  }
  return nodb::Status::OK();
}

// -------------------------------------------------------------- metrics

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void PrintSample(const char* name, const std::vector<double>& samples,
                 double value, const char* unit) {
  std::printf("  %-18s %12.4f %-5s (median of %zu)\n", name, value, unit,
              samples.size());
}

void EndToEnd(Context& ctx, RunReport* report) {
  std::vector<double> timed = ctx.obs.untraced_ms;
  timed.insert(timed.end(), ctx.obs.traced_ms.begin(), ctx.obs.traced_ms.end());
  const size_t n = timed.size();
  auto add = [&](const char* name, double value, const char* unit) {
    report->metrics.push_back({name, value, unit});
  };
  std::printf("end-to-end:\n");
  const double setup = Median(ctx.setup_s);
  const double dtq = Median(ctx.data_to_query_s);
  const double first = Median(ctx.first_query_ms);
  const double post = Median(ctx.post_append_ms);
  PrintSample("setup_s", ctx.setup_s, setup, "s");
  PrintSample("data_to_query_s", ctx.data_to_query_s, dtq, "s");
  PrintSample("first_query_ms", ctx.first_query_ms, first, "ms");
  PrintSample("post_append_ms", ctx.post_append_ms, post, "ms");
  const double p50 = Percentile(timed, 0.50);
  const double p95 = Percentile(timed, 0.95);
  std::printf("  %-18s %12.4f %-5s (n=%zu)\n", "query_p50_ms", p50, "ms", n);
  std::printf("  %-18s %12.4f %-5s (n=%zu, %zu samples beyond)\n",
              "query_p95_ms", p95, "ms", n, SamplesBeyond(n, 0.95));
  const double qps = Ratio(static_cast<double>(ctx.timed_queries),
                           ctx.timed_wall_s);
  std::printf("  %-18s %12.4f %-5s (%llu queries in %.3f s)\n", "qps", qps,
              "1/s", static_cast<unsigned long long>(ctx.timed_queries),
              ctx.timed_wall_s);
  const double rss = PeakRssMib();
  std::printf("  %-18s %12.4f %-5s\n", "peak_rss_mib", rss, "MiB");
  std::printf("  %-18s %12.6f        (%llu of %llu attempted)\n",
              "failed_frac", ctx.obs.tally.failed_frac(),
              static_cast<unsigned long long>(ctx.obs.tally.failed()),
              static_cast<unsigned long long>(ctx.obs.tally.attempted));
  add("setup_s", setup, "s");
  add("data_to_query_s", dtq, "s");
  add("first_query_ms", first, "ms");
  add("post_append_ms", post, "ms");
  add("query_p50_ms", p50, "ms");
  add("query_p95_ms", p95, "ms");
  add("qps", qps, "1/s");
  add("peak_rss_mib", rss, "MiB");
}

void PerLayer(Context& ctx, RunReport* report) {
  const Observations& obs = ctx.obs;
  nodb::ScanMetrics scan;
  double processing_ns = 0;
  double read_bytes = 0;
  double read_file_bytes = 0;
  std::vector<double> parse_us, plan_us, drain_ms, glue_us;
  for (size_t i = 0; i < obs.traced.size(); ++i) {
    const nodb::QueryMetrics& m = obs.traced[i];
    scan.Add(m.scan);
    processing_ns += static_cast<double>(m.processing_ns());
    if (m.scan.bytes_read > 0) {
      read_bytes += static_cast<double>(m.scan.bytes_read);
      read_file_bytes += obs.traced_file_bytes[i];
    }
    parse_us.push_back(static_cast<double>(m.parse_ns) / 1e3);
    plan_us.push_back(static_cast<double>(m.plan_ns) / 1e3);
    drain_ms.push_back(Ms(m.drain_ns));
    glue_us.push_back(
        static_cast<double>(m.total_ns - m.parse_ns - m.plan_ns - m.drain_ns) /
        1e3);
  }
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  const double rows = d(scan.rows_scanned);
  const double located = d(scan.rows_from_raw + scan.rows_from_cache);
  const double probes =
      d(scan.map_exact_probes + scan.map_anchor_probes + scan.map_blind_rows);
  const double untraced = Median(obs.untraced_ms);
  const double traced = Median(obs.traced_ms);

  report->metrics = {
      {"sql.parse_us", Median(parse_us), "us"},
      {"sql.plan_us", Median(plan_us), "us"},
      {"io.read_amp", Ratio(read_bytes, read_file_bytes), "ratio"},
      {"io.ns_per_row", Ratio(d(scan.io_ns), rows), "ns/row"},
      {"simd.index_gbps", Median(ctx.index_gbps), "GB/s"},
      {"csv.tokenize_ns_per_row",
       Ratio(d(scan.tokenize_ns), d(scan.rows_from_raw)), "ns/row"},
      {"csv.convert_ns_per_field",
       Ratio(d(scan.convert_ns), d(scan.fields_converted)), "ns/field"},
      {"csv.fields_converted",
       Ratio(d(scan.fields_converted), d(obs.traced.size())), "count/query"},
      {"raw.locate_ns_per_row", Ratio(d(scan.parsing_ns), located), "ns/row"},
      {"raw.upkeep_ns_per_row", Ratio(d(scan.nodb_ns), rows), "ns/row"},
      {"raw.map_exact_ratio", Ratio(d(scan.map_exact_probes), probes),
       "ratio"},
      {"raw.cache_hit_ratio",
       Ratio(d(scan.cache_block_hits),
             d(scan.cache_block_hits + scan.cache_block_misses)),
       "ratio"},
      {"raw.zone_skip_ratio",
       Ratio(d(scan.zone_skipped_rows), rows + d(scan.zone_skipped_rows)),
       "ratio"},
      {"raw.prune_ratio", Ratio(d(scan.pushdown_rows_pruned), rows), "ratio"},
      {"raw.rows_raw_frac", Ratio(d(scan.rows_from_raw), rows), "ratio"},
      {"raw.rows_cache_frac", Ratio(d(scan.rows_from_cache), rows), "ratio"},
      {"raw.rows_store_frac", Ratio(d(scan.rows_from_store), rows), "ratio"},
      {"store.promote_wait_ms", Median(ctx.promote_wait_ms), "ms"},
      {"store.evictions", d(ctx.store_evictions), "count"},
      {"cache.evictions", d(ctx.cache_evictions), "count"},
      {"exec.processing_ns_per_row", Ratio(processing_ns, rows), "ns/row"},
      {"exec.drain_ms", Median(drain_ms), "ms"},
      {"engines.glue_us", Median(glue_us), "us"},
      {"server.wire_us", Median(obs.traced_wire_us), "us"},
      {"server.rejected", d(ctx.server_rejected), "count"},
      {"obs.trace_overhead_pct",
       untraced > 0 ? (traced / untraced - 1) * 100 : 0, "%"},
  };
  std::printf("per-layer (%zu traced queries; untraced median %.4f ms over "
              "%zu, traced median %.4f ms over %zu):\n",
              obs.traced.size(), untraced, obs.untraced_ms.size(), traced,
              obs.traced_ms.size());
  for (const Metric& m : report->metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Prints per-layer self time (span minus covered children); returns
/// false if a query tree's self times do not sum to its wall time.
bool PrintLayerTimes(const Context& ctx) {
  const LayerTimes layers = SummarizeLayers(ctx.obs.spans.spans());
  std::printf("self time by layer, traced queries (%llu queries, %.3f ms "
              "wall):\n",
              static_cast<unsigned long long>(layers.queries),
              Ms(layers.query_wall_ns));
  for (const char* layer : {"sql", "io", "simd", "csv", "raw", "store", "exec",
                            "engines", "server", "obs"}) {
    auto it = layers.query_ns.find(layer);
    const int64_t ns = it == layers.query_ns.end() ? 0 : it->second;
    std::printf("  %-8s %12.3f ms %6.2f%%\n", layer, Ms(ns),
                100 * Ratio(static_cast<double>(ns),
                            static_cast<double>(layers.query_wall_ns)));
  }
  std::printf("self time by layer, set-up and table-change calls:\n");
  for (const auto& [layer, ns] : layers.other_ns) {
    std::printf("  %-8s %12.3f ms\n", layer.c_str(), Ms(ns));
  }
  std::printf("self times sum to query wall time: %llu of %llu queries\n",
              static_cast<unsigned long long>(layers.queries -
                                              layers.unbalanced),
              static_cast<unsigned long long>(layers.queries));
  return layers.unbalanced == 0;
}

}  // namespace

nodb::Status RunWorkload(const Plan& plan, const std::vector<Answer>& oracle,
                         const RunOptions& options, RunReport* report) {
  Context ctx(plan, oracle, options);
  std::printf("workload %s, seed %llu, %s pass, %.0f s timed\n  %s\n",
              WorkloadName(plan.workload),
              static_cast<unsigned long long>(plan.seed),
              options.trace ? "traced" : "untraced", options.seconds,
              plan.description.c_str());
  for (const Table& table : plan.tables) {
    auto size = nodb::GetFileSize(ctx.Path(table.base_part));
    std::printf("  %s: %.1f MiB raw\n", table.name.c_str(),
                size.ok() ? static_cast<double>(*size) / (1 << 20) : 0.0);
  }
  std::fflush(stdout);
  nodb::Status status;
  switch (plan.workload) {
    case Workload::kColdExplore:
      status = ColdExplore(ctx);
      break;
    case Workload::kWarmTpch:
      status = WarmTpch(ctx);
      break;
    case Workload::kServedMix:
      status = ServedMix(ctx);
      break;
  }
  NODB_RETURN_NOT_OK(status);
  NODB_RETURN_NOT_OK(ChangeProbe(ctx));

  const Tally& tally = ctx.obs.tally;
  report->attempted = tally.attempted;
  report->failed = tally.failed();
  report->correct = tally.mismatches == 0 && tally.errors == 0;
  std::printf("answers: %llu attempted, %llu wrong rows, %llu errors, %llu "
              "rejected\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.mismatches),
              static_cast<unsigned long long>(tally.errors),
              static_cast<unsigned long long>(tally.rejected));
  if (!ctx.obs.first_failure.empty()) {
    std::printf("first failure: %s\n", ctx.obs.first_failure.c_str());
  }
  const Tally& probe = ctx.probe.tally;
  std::printf("unfenced change probe: %llu of %llu answers wrong, %llu "
              "errors (known engine defect, README.md; not part of "
              "correct/failed)\n",
              static_cast<unsigned long long>(probe.mismatches),
              static_cast<unsigned long long>(probe.attempted),
              static_cast<unsigned long long>(probe.errors));
  if (!ctx.probe.first_failure.empty()) {
    std::printf("  first probe failure: %s\n",
                ctx.probe.first_failure.c_str());
  }
  const size_t timed = ctx.obs.untraced_ms.size() + ctx.obs.traced_ms.size();
  if (!SupportsPercentile(timed, 0.95)) {
    return nodb::Status::Internal(
        "timed phase ended with " + std::to_string(timed) +
        " queries, too few for p95 (needs " +
        std::to_string(kMinTimedQueries) + ")");
  }
  if (!options.trace) {
    EndToEnd(ctx, report);
    return nodb::Status::OK();
  }
  for (const Table& table : plan.tables) {
    if (table.name != "orders") {
      for (int pass = 0; pass < 3; ++pass) {
        ctx.index_gbps.push_back(IndexPass(ctx, table));
      }
      break;
    }
  }
  PerLayer(ctx, report);
  if (!PrintLayerTimes(ctx)) {
    return nodb::Status::Internal("per-layer self times do not sum to query "
                                  "wall time");
  }
  if (!options.trace_out.empty()) {
    NODB_RETURN_NOT_OK(
        WriteChromeTrace(ctx.obs.spans.spans(), options.trace_out));
    std::printf("trace: %zu spans written to %s\n",
                ctx.obs.spans.spans().size(), options.trace_out.c_str());
  }
  return nodb::Status::OK();
}

std::string ReportJson(const RunReport& report) {
  std::string json = std::string("{\"correct\": ") +
                     (report.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace nodbbench
