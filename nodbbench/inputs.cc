#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "datagen/tpch.h"

namespace nodbbench {

namespace {

/// splitmix64: every generated value is a pure function of (seed,
/// coordinates), so a row reads the same whichever chunk emits it.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Mix(uint64_t a, uint64_t b) { return Mix(a ^ Mix(b)); }
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) { return Mix(Mix(a, b), c); }

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_++); }
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [0, 1) from the top 53 bits.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

 private:
  uint64_t state_;
};

/// Zipf(theta) over ranks 0..n-1.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.Unit();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

uint64_t Scaled(uint64_t rows, double scale) {
  return std::max<uint64_t>(64, static_cast<uint64_t>(rows * scale));
}

std::string Str(uint64_t v) { return std::to_string(v); }

// ------------------------------------------------------------ wide ints

/// A wide all-integer table: clustered key `k` (ascending, ~3 apart),
/// low-cardinality group columns g0..g2, and value columns a0..aN-1 of
/// mixed digit widths.
struct WideSpec {
  uint32_t values = 0;
  std::vector<uint32_t> digits;  ///< per value column
  static constexpr uint32_t kGroupCards[3] = {4, 16, 64};

  std::shared_ptr<nodb::Schema> MakeSchema() const {
    std::vector<nodb::Field> fields = {{"k", nodb::DataType::kInt64}};
    for (int g = 0; g < 3; ++g) {
      fields.push_back({"g" + Str(g), nodb::DataType::kInt64});
    }
    for (uint32_t a = 0; a < values; ++a) {
      fields.push_back({"a" + Str(a), nodb::DataType::kInt64});
    }
    return nodb::Schema::Make(std::move(fields));
  }
  uint64_t Domain(uint32_t a) const {
    uint64_t d = 1;
    for (uint32_t i = 0; i < digits[a]; ++i) d *= 10;
    return d;
  }
  uint64_t KeyRange(uint64_t total_rows) const { return 3 * total_rows; }
};

/// Digit widths either cycle 2..7 over the value columns or are all 5;
/// either way every seed gives the same file size and the same cost per
/// attribute window, and only the values differ.
WideSpec MakeWideSpec(uint32_t values, bool mixed_widths) {
  WideSpec spec;
  spec.values = values;
  for (uint32_t a = 0; a < values; ++a) {
    spec.digits.push_back(mixed_widths ? 2 + a % 6 : 5);
  }
  return spec;
}

/// Rows [first, first + count) of a wide table whose cell values come
/// from `content_seed`.
void EmitWide(TextOut& out, const WideSpec& spec, uint64_t first,
              uint64_t count, uint64_t content_seed) {
  for (uint64_t r = first; r < first + count; ++r) {
    out.PutInt(3 * r + Mix(content_seed, r) % 3);
    for (uint32_t g = 0; g < 3; ++g) {
      out.PutChar(',');
      out.PutInt(Mix(content_seed, r, 100 + g) % WideSpec::kGroupCards[g]);
    }
    for (uint32_t a = 0; a < spec.values; ++a) {
      out.PutChar(',');
      out.PutInt(Mix(content_seed, r, 200 + a) % spec.Domain(a));
    }
    out.PutChar('\n');
  }
}

/// A part holding rows [first, first + count) of a wide table.
std::function<nodb::Status(const std::string&)> WidePart(
    const WideSpec& spec, uint64_t first, uint64_t count,
    uint64_t content_seed) {
  return [=](const std::string& path) -> nodb::Status {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return nodb::Status::IOError("cannot create " + path);
    TextOut out(file);
    EmitWide(out, spec, first, count, content_seed);
    nodb::Status status = out.Finish();
    if (std::fclose(file) != 0 && status.ok()) {
      status = nodb::Status::IOError("close " + path);
    }
    return status;
  };
}

// --------------------------------------------------------------- TPC-H

const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};

/// A spec whose num_orders() is exactly `orders`.
nodb::TpchSpec TpchOrders(uint64_t orders, uint64_t seed) {
  nodb::TpchSpec spec;
  spec.scale_factor = (static_cast<double>(orders) + 0.5) / 1500000;
  spec.seed = seed;
  return spec;
}

/// Copies the lines of the lineitem file `from` whose l_orderkey lies in
/// [first, last] to `to`. Lines are in l_orderkey order.
nodb::Status CopyOrderRange(const std::string& from, const std::string& to,
                            uint64_t first, uint64_t last) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!in || !out) return nodb::Status::IOError("cannot split " + from);
  std::string line;
  while (std::getline(in, line)) {
    const uint64_t key = std::strtoull(line.c_str(), nullptr, 10);
    if (key > last) break;
    if (key >= first) out << line << '\n';
  }
  out.close();
  if (!out) return nodb::Status::IOError("short write " + to);
  return nodb::Status::OK();
}

// ---------------------------------------------------------------- plans

uint32_t AddQuery(Plan* plan, uint32_t state, std::string klass,
                  std::string sql) {
  for (uint32_t i = 0; i < plan->queries.size(); ++i) {
    const Query& q = plan->queries[i];
    if (q.state == state && q.sql == sql) return i;
  }
  plan->queries.push_back({state, std::move(klass), std::move(sql)});
  return static_cast<uint32_t>(plan->queries.size() - 1);
}

Step QueryStep(uint32_t query) {
  Step step;
  step.query = query;
  return step;
}

Step ChangeStep(Step::Kind kind, std::string table, std::string part) {
  Step step;
  step.kind = kind;
  step.table = std::move(table);
  step.part = std::move(part);
  return step;
}

std::string MiB(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f MiB", bytes / (1 << 20));
  return buf;
}

/// cold_explore: a never-queried 48-column table explored through
/// shifting attribute windows, changed by two appends and one in-place
/// rewrite with queries in between.
void PlanColdExplore(Plan* plan, double scale) {
  const uint64_t rows = Scaled(140000, scale);
  const uint64_t chunk = std::max<uint64_t>(8, rows / 100);
  const WideSpec spec = MakeWideSpec(44, /*mixed_widths=*/true);
  const uint64_t content = Mix(plan->seed, 1);
  const uint64_t rewritten = Mix(plan->seed, 2);
  plan->tables.push_back(
      {"t", "t.csv", "t.base.csv", nodb::CsvDialect(), spec.MakeSchema()});
  plan->parts.push_back({"t.base.csv", WidePart(spec, 0, rows, content)});
  plan->parts.push_back(
      {"t.append1.csv", WidePart(spec, rows, chunk, content)});
  plan->parts.push_back(
      {"t.append2.csv", WidePart(spec, rows + chunk, chunk, content)});
  plan->parts.push_back(
      {"t.rewrite.csv", WidePart(spec, 0, rows, rewritten)});
  plan->states = {
      {{"t", {"t.base.csv"}}},
      {{"t", {"t.base.csv", "t.append1.csv"}}},
      {{"t", {"t.base.csv", "t.append1.csv", "t.append2.csv"}}},
      {{"t", {"t.rewrite.csv"}}},
  };

  // The window walk is the same for every seed (so is the work per
  // script); key ranges and thresholds come from the seed.
  Rng rng(Mix(plan->seed, 3));
  const uint32_t span = spec.values - 4;
  uint32_t window = 0;
  const char* const kinds[] = {"proj", "agg", "group"};
  uint32_t turn = 0;
  auto make = [&](uint32_t state, uint32_t w, const char* kind) {
    const std::string a = "a" + Str(w);
    const std::string b = "a" + Str(w + 1);
    const std::string c = "a" + Str(w + 2);
    const std::string d = "a" + Str(w + 3);
    std::string sql;
    if (std::string(kind) == "proj") {
      const uint64_t keys = spec.KeyRange(rows);
      const uint64_t width = std::max<uint64_t>(30, keys / 250);
      const uint64_t low = rng.Uniform(keys - width);
      sql = "SELECT k, " + a + ", " + b + " FROM t WHERE k BETWEEN " +
            Str(low) + " AND " + Str(low + width);
    } else if (std::string(kind) == "agg") {
      sql = "SELECT COUNT(*) AS n, SUM(" + c + ") AS s, MIN(" + d +
            ") AS lo FROM t WHERE " + a + " < " + Str(spec.Domain(w) / 10);
    } else {
      sql = "SELECT g" + Str(turn % 3) + ", COUNT(*) AS n, MAX(" + b +
            ") AS hi FROM t GROUP BY g" + Str(turn % 3);
    }
    return AddQuery(plan, state, kind, sql);
  };
  for (uint32_t i = 0; i < 8; ++i, ++turn) {
    plan->script.push_back(QueryStep(make(0, window, kinds[turn % 3])));
    window = (window + 3) % span;
  }
  const Step changes[] = {
      ChangeStep(Step::Kind::kAppend, "t", "t.append1.csv"),
      ChangeStep(Step::Kind::kAppend, "t", "t.append2.csv"),
      ChangeStep(Step::Kind::kRewrite, "t", "t.rewrite.csv"),
  };
  for (uint32_t state = 1; state <= 3; ++state) {
    plan->script.push_back(changes[state - 1]);
    // First after the change: revisit the state-th explored window, so
    // cached and mapped columns must be extended or rebuilt.
    plan->script.push_back(QueryStep(
        make(state, 3 * (state - 1), "agg")));
    for (uint32_t i = 0; i < 4; ++i, ++turn) {
      plan->script.push_back(QueryStep(make(state, window, kinds[turn % 3])));
      window = (window + 3) % span;
    }
  }
  plan->config.snapshot_mode = nodb::SnapshotMode::kOff;
  plan->description = "t: " + Str(rows) +
                      " rows x 48 int columns, appends of " + Str(chunk) +
                      " rows, one in-place rewrite; default budgets";
}

constexpr uint32_t kTpchAppends = 4;

/// warm_tpch: Q1/Q6/QJ-shaped queries with parameters from a fixed
/// seeded set, over lineitem/orders at SF 0.05, store promoted during
/// set-up.
void PlanWarmTpch(Plan* plan, double scale) {
  const uint64_t orders = Scaled(75000, scale);
  const uint64_t chunk = std::max<uint64_t>(4, orders / 200);
  const uint64_t seed = Mix(plan->seed, 4);
  plan->tables.push_back({"lineitem", "lineitem.tbl", "lineitem.base.tbl",
                          nodb::CsvDialect::Pipe(),
                          nodb::TpchLineitemSchema()});
  plan->tables.push_back({"orders", "orders.tbl", "orders.base.tbl",
                          nodb::CsvDialect::Pipe(), nodb::TpchOrdersSchema()});
  // lineitem is generated once for the base orders plus every appended
  // chunk; the base part and each append are order ranges of it.
  const std::string all = "lineitem.all.tbl";
  const uint64_t total = orders + kTpchAppends * chunk;
  plan->parts.push_back({all, [=](const std::string& path) {
                           return nodb::GenerateTpchLineitem(
                                      path, TpchOrders(total, seed))
                               .status();
                         }});
  auto order_range = [all](uint64_t first, uint64_t last) {
    return [=](const std::string& path) {
      return CopyOrderRange(
          std::filesystem::path(path).replace_filename(all).string(), path,
          first, last);
    };
  };
  plan->parts.push_back({"lineitem.base.tbl", order_range(1, orders)});
  plan->parts.push_back({"orders.base.tbl", [=](const std::string& path) {
                           return nodb::GenerateTpchOrders(
                                      path, TpchOrders(orders, seed))
                               .status();
                         }});
  std::vector<std::string> lineitem = {"lineitem.base.tbl"};
  plan->states.push_back(
      {{"lineitem", lineitem}, {"orders", {"orders.base.tbl"}}});
  for (uint64_t i = 0; i < kTpchAppends; ++i) {
    const std::string part = "lineitem.append" + Str(i + 1) + ".tbl";
    const uint64_t first = orders + 1 + i * chunk;
    plan->parts.push_back({part, order_range(first, first + chunk - 1)});
    lineitem.push_back(part);
    plan->states.push_back(
        {{"lineitem", lineitem}, {"orders", {"orders.base.tbl"}}});
  }

  Rng rng(Mix(plan->seed, 5));
  const char* const q1_cutoffs[] = {"1998-08-01", "1998-09-02", "1998-06-15",
                                    "1998-07-20"};
  auto q1 = [&](uint32_t state) {
    return AddQuery(
        plan, state, "q1",
        std::string("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS "
                    "sum_qty, SUM(l_extendedprice) AS sum_base, "
                    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc, "
                    "AVG(l_quantity) AS avg_qty, COUNT(*) AS n FROM lineitem "
                    "WHERE l_shipdate <= DATE '") +
            q1_cutoffs[rng.Uniform(4)] +
            "' GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus");
  };
  auto q6 = [&](uint32_t state) {
    const uint64_t year = 1993 + rng.Uniform(5);
    const uint64_t discount = 3 + rng.Uniform(5);  // hundredths
    return AddQuery(
        plan, state, state == 0 ? "q6" : "post",
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= DATE '" + Str(year) +
            "-01-01' AND l_shipdate < DATE '" + Str(year + 1) +
            "-01-01' AND l_discount BETWEEN 0.0" + Str(discount - 1) +
            " AND 0.0" + Str(discount + 1) + " AND l_quantity < " +
            Str(24 + rng.Uniform(2)));
  };
  auto qj = [&](uint32_t state) {
    return AddQuery(plan, state, "qj",
                    std::string("SELECT COUNT(*) AS n, SUM(l.l_extendedprice) "
                                "AS s FROM lineitem l JOIN orders o ON "
                                "l.l_orderkey = o.o_orderkey WHERE "
                                "o.o_orderpriority = '") +
                        kPriorities[rng.Uniform(5)] + "'");
  };
  // Three distinct variants per shape. Warm-up and timed schedule
  // alternate the shapes strictly, so every seed runs the same mix.
  std::vector<uint32_t> variants[3];
  const std::function<uint32_t(uint32_t)> shapes[3] = {q1, q6, qj};
  for (int s = 0; s < 3; ++s) {
    while (variants[s].size() < 3) {
      const uint32_t id = shapes[s](0);
      if (std::find(variants[s].begin(), variants[s].end(), id) ==
          variants[s].end()) {
        variants[s].push_back(id);
      }
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (const auto& shape : variants) plan->warmup.push_back(shape[i]);
  }
  std::vector<uint32_t> schedule;
  for (int i = 0; i < 20000; ++i) {
    schedule.push_back(variants[i % 3][rng.Uniform(3)]);
  }
  plan->clients.push_back(std::move(schedule));
  for (uint32_t state = 1; state <= kTpchAppends; ++state) {
    plan->script.push_back(ChangeStep(
        Step::Kind::kAppend, "lineitem",
        "lineitem.append" + Str(state) + ".tbl"));
    plan->script.push_back(QueryStep(q6(state)));
  }
  plan->config.snapshot_mode = nodb::SnapshotMode::kOff;
  plan->rounds = 7;
  plan->description = "lineitem ~" + Str(orders * 4) + " rows, orders " +
                      Str(orders) + " rows (SF " +
                      std::to_string(0.05 * scale).substr(0, 6) +
                      "), appends of " + Str(chunk) +
                      " orders' lines; default budgets (cache " +
                      MiB(static_cast<double>(plan->config.cache_budget)) +
                      ", store " +
                      MiB(static_cast<double>(plan->config.store_budget)) +
                      ")";
}

constexpr uint32_t kServedAppends = 10;

/// served_mix: four closed-loop wire clients sending mostly LIMIT
/// peeks, some clustered range aggregates and some group-bys over
/// Zipf-chosen column windows, with hot columns ~3x the budgets.
void PlanServedMix(Plan* plan, double scale) {
  const uint64_t rows = Scaled(100000, scale);
  const uint64_t chunk = std::max<uint64_t>(8, rows / 100);
  const WideSpec spec = MakeWideSpec(20, /*mixed_widths=*/false);
  const uint64_t content = Mix(plan->seed, 7);
  plan->tables.push_back(
      {"t", "t.csv", "t.base.csv", nodb::CsvDialect(), spec.MakeSchema()});
  plan->parts.push_back({"t.base.csv", WidePart(spec, 0, rows, content)});
  std::vector<std::string> t = {"t.base.csv"};
  plan->states.push_back({{"t", t}});
  for (uint64_t i = 0; i < kServedAppends; ++i) {
    const std::string part = "t.append" + Str(i + 1) + ".csv";
    const uint64_t first = rows + i * chunk;
    plan->parts.push_back({part, WidePart(spec, first, chunk, content)});
    t.push_back(part);
    plan->states.push_back({{"t", t}});
  }

  // Ten disjoint two-column windows a{2r}, a{2r+1}; rank r is drawn
  // Zipf(1.0) per query, so the skew (and the working set) is the same
  // for every seed. Parameters within a window come from the seed.
  Rng rng(Mix(plan->seed, 8));
  constexpr uint32_t kWindows = 10;
  const Zipf zipf(kWindows, 1.0);
  const uint64_t keys = spec.KeyRange(rows);
  std::vector<uint32_t> peeks[kWindows], ranges[kWindows], groups[kWindows];
  for (uint32_t r = 0; r < kWindows; ++r) {
    const std::string a = "a" + Str(2 * r);
    const std::string b = "a" + Str(2 * r + 1);
    for (int v = 0; v < 2; ++v) {
      peeks[r].push_back(AddQuery(
          plan, 0, "peek",
          "SELECT k, " + a + ", " + b + " FROM t WHERE " + a + " >= " +
              Str(rng.Uniform(spec.Domain(2 * r) / 2)) + " LIMIT " +
              Str(5 + rng.Uniform(46))));
    }
    const uint64_t width = keys / 50;
    const uint64_t low = rng.Uniform(keys - width);
    ranges[r].push_back(AddQuery(
        plan, 0, "range",
        "SELECT COUNT(*) AS n, SUM(" + a + ") AS s, MAX(" + b +
            ") AS hi FROM t WHERE k BETWEEN " + Str(low) + " AND " +
            Str(low + width)));
    const std::string g = "g" + Str(r % 3);
    groups[r].push_back(AddQuery(
        plan, 0, "group",
        "SELECT " + g + ", COUNT(*) AS n, SUM(" + a + ") AS s, MIN(" + b +
            ") AS lo FROM t GROUP BY " + g));
  }
  // Warm-up: group-bys first, so the first answer is a cold full scan.
  for (const auto* pool : {groups, ranges, peeks}) {
    for (uint32_t r = 0; r < kWindows; ++r) {
      plan->warmup.insert(plan->warmup.end(), pool[r].begin(), pool[r].end());
    }
  }
  for (int c = 0; c < 4; ++c) {
    std::vector<uint32_t> schedule;
    for (int i = 0; i < 20000; ++i) {
      const double u = rng.Unit();
      const size_t r = zipf.Draw(rng);
      const auto& pool = u < 0.75 ? peeks[r] : u < 0.90 ? ranges[r] : groups[r];
      schedule.push_back(pool[rng.Uniform(pool.size())]);
    }
    plan->clients.push_back(std::move(schedule));
  }
  // After each append: what is new at the tail of the clustered key.
  const std::string hot = "a0";
  for (uint32_t state = 1; state <= kServedAppends; ++state) {
    plan->script.push_back(ChangeStep(Step::Kind::kAppend, "t",
                                      "t.append" + Str(state) + ".csv"));
    plan->script.push_back(QueryStep(AddQuery(
        plan, state, "post",
        "SELECT COUNT(*) AS n, SUM(" + hot + ") AS s, MAX(k) AS top FROM t "
        "WHERE k >= " + Str(keys - keys / 10 - rng.Uniform(keys / 20)))));
  }

  plan->config.snapshot_mode = nodb::SnapshotMode::kOff;
  plan->rounds = 9;
  plan->config.cache_budget = size_t{3} << 20;
  plan->config.store_budget = size_t{3} << 20;
  plan->config.server_max_in_flight = 4;
  plan->config.server_tenant_max_concurrent = 4;
  // Every column the mix touches (k, g0-g2, a0-a19) as int64 values.
  const double hot_bytes = static_cast<double>(rows) * 24 * 8;
  const double budgets = static_cast<double>(plan->config.cache_budget +
                                             plan->config.store_budget);
  char ratio[16];
  std::snprintf(ratio, sizeof(ratio), "%.1fx", hot_bytes / budgets);
  plan->description =
      "t: " + Str(rows) + " rows x 24 int columns; hot columns " +
      MiB(hot_bytes) + " as int64 = " + ratio + " the cache (" +
      MiB(static_cast<double>(plan->config.cache_budget)) + ") + store (" +
      MiB(static_cast<double>(plan->config.store_budget)) +
      ") budgets; 4 wire clients; mix 75% peek / 15% range / 10% group";
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdExplore:
      return "cold_explore";
    case Workload::kWarmTpch:
      return "warm_tpch";
    case Workload::kServedMix:
      return "served_mix";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kColdExplore, Workload::kWarmTpch,
                     Workload::kServedMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

void TextOut::Put(const char* data, size_t size) {
  buffer_.append(data, size);
  if (buffer_.size() >= (1u << 20)) {
    failed_ |= std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
               buffer_.size();
    buffer_.clear();
  }
}

void TextOut::PutInt(uint64_t value) {
  char buf[24];
  char* end = buf + sizeof(buf);
  char* p = end;
  do {
    *--p = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  Put(p, static_cast<size_t>(end - p));
}

nodb::Status TextOut::Finish() {
  failed_ |= std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
             buffer_.size();
  buffer_.clear();
  if (failed_) return nodb::Status::IOError("short write");
  return nodb::Status::OK();
}

bool Reads(const std::string& sql, const std::string& table) {
  return sql.find("FROM " + table) != std::string::npos ||
         sql.find("JOIN " + table) != std::string::npos;
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) hash = (hash ^ c) * 1099511628211ull;
  return hash;
}

nodb::Status HashFile(const std::string& path, uint64_t* bytes,
                      uint64_t* hash) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return nodb::Status::IOError("cannot read " + path);
  std::string block(1 << 20, '\0');
  *bytes = 0;
  *hash = Fnv1a("");
  while (in.read(block.data(), block.size()) || in.gcount() > 0) {
    block.resize(static_cast<size_t>(in.gcount()));
    *hash = Fnv1a(block, *hash);
    *bytes += block.size();
    block.resize(1 << 20);
  }
  return nodb::Status::OK();
}

Plan MakePlan(Workload workload, uint64_t seed, double scale) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  switch (workload) {
    case Workload::kColdExplore:
      PlanColdExplore(&plan, scale);
      break;
    case Workload::kWarmTpch:
      PlanWarmTpch(&plan, scale);
      break;
    case Workload::kServedMix:
      PlanServedMix(&plan, scale);
      break;
  }
  return plan;
}

nodb::Status WriteInputs(const Plan& plan, const std::string& dir) {
  std::string manifest = std::string("workload ") +
                         WorkloadName(plan.workload) + "\nseed " +
                         Str(plan.seed) + "\n";
  for (const Part& part : plan.parts) {
    const std::string path = dir + "/" + part.file;
    NODB_RETURN_NOT_OK(part.write(path));
    uint64_t bytes = 0;
    uint64_t hash = 0;
    NODB_RETURN_NOT_OK(HashFile(path, &bytes, &hash));
    manifest += "file " + part.file + " " + Str(bytes) + " " + Str(hash) + "\n";
  }
  uint64_t queries = Fnv1a("");
  for (const Query& q : plan.queries) {
    queries =
        Fnv1a(Str(q.state) + "\t" + q.klass + "\t" + q.sql + "\n", queries);
  }
  uint64_t schedules = Fnv1a("");
  auto add = [&](const std::vector<uint32_t>& ids) {
    for (uint32_t id : ids) schedules = Fnv1a(Str(id) + ",", schedules);
    schedules = Fnv1a("\n", schedules);
  };
  add(plan.warmup);
  for (const auto& client : plan.clients) add(client);
  for (const Step& step : plan.script) {
    schedules = Fnv1a(Str(static_cast<int>(step.kind)) + step.table +
                          step.part + Str(step.query) + "\n",
                      schedules);
  }
  manifest += "queries " + Str(plan.queries.size()) + " " + Str(queries) +
              "\nschedules " + Str(schedules) + "\n";
  const std::string path = dir + "/manifest.txt";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return nodb::Status::IOError("cannot create " + path);
  const bool ok =
      std::fwrite(manifest.data(), 1, manifest.size(), file) == manifest.size();
  if (std::fclose(file) != 0 || !ok) {
    return nodb::Status::IOError("write " + path);
  }
  return nodb::Status::OK();
}

nodb::Status ConcatParts(const std::string& dir,
                         const std::vector<std::string>& parts,
                         const std::string& out_path) {
  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) return nodb::Status::IOError("cannot create " + out_path);
  std::vector<char> buffer(1 << 20);
  bool ok = true;
  for (const std::string& part : parts) {
    std::FILE* in = std::fopen((dir + "/" + part).c_str(), "rb");
    if (in == nullptr) {
      ok = false;
      break;
    }
    size_t n = 0;
    while ((n = std::fread(buffer.data(), 1, buffer.size(), in)) > 0) {
      ok &= std::fwrite(buffer.data(), 1, n, out) == n;
    }
    std::fclose(in);
  }
  if (std::fclose(out) != 0 || !ok) {
    return nodb::Status::IOError("cannot assemble " + out_path);
  }
  return nodb::Status::OK();
}

nodb::Status ResetTables(const Plan& plan, const std::string& dir) {
  for (const Table& table : plan.tables) {
    NODB_RETURN_NOT_OK(
        ConcatParts(dir, {table.base_part}, dir + "/" + table.file));
  }
  return nodb::Status::OK();
}

}  // namespace nodbbench
