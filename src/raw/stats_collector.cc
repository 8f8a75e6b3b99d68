#include "raw/stats_collector.h"

#include <algorithm>
#include <cmath>

#include "obs/tenant.h"
#include "util/hash.h"

namespace nodb {

namespace {

/// std::lower_bound over an ascending array, without branches on the
/// comparisons: low-cardinality columns probe the KMV sketch with the
/// same few hashes over and over, and a branchy search mispredicts on
/// nearly every step.
size_t LowerBound(const std::vector<uint64_t>& sorted, uint64_t key) {
  if (sorted.empty()) return 0;
  const uint64_t* base = sorted.data();
  size_t n = sorted.size();
  while (n > 1) {
    const size_t half = n / 2;
    base = base[half] < key ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - sorted.data()) + (*base < key ? 1 : 0);
}

}  // namespace

AttributeStats::AttributeStats(DataType type) : type_(type) {
  numeric_sample_.reserve(kReservoirSize);
  if (type == DataType::kString) string_sample_.reserve(kReservoirSize);
}

void AttributeStats::Sample(double numeric, std::string_view text) {
  ++sampled_stream_;
  const bool is_string = type_ == DataType::kString;
  const size_t filled =
      is_string ? string_sample_.size() : numeric_sample_.size();
  size_t slot = filled;
  if (filled >= kReservoirSize) {
    // Reservoir step: a uniform index in [0, sampled_stream_) by
    // multiply-shift (Lemire) rather than a 64-bit modulo per value.
    __extension__ typedef unsigned __int128 Uint128;
    slot = static_cast<size_t>(
        (static_cast<Uint128>(rng_.NextUint64()) * sampled_stream_) >> 64);
    if (slot >= kReservoirSize) return;  // the value is not kept
  }
  if (is_string) {
    if (slot == filled) string_sample_.emplace_back();
    string_sample_[slot].assign(text.data(), text.size());
  } else {
    if (slot == filled) numeric_sample_.emplace_back();
    numeric_sample_[slot] = numeric;
  }
}

void AttributeStats::Reset() {
  MutexLock lock(mu_);
  count_ = 0;
  nulls_ = 0;
  min_.reset();
  max_.reset();
  kmv_.clear();
  numeric_sample_.clear();
  string_sample_.clear();
  sampled_stream_ = 0;
}

void AttributeStats::Observe(const ColumnVector& column) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < column.size(); ++i) {
    ++count_;
    if (column.IsNull(i)) {
      ++nulls_;
      continue;
    }
    uint64_t hash;
    if (type_ == DataType::kString) {
      std::string_view s = column.GetString(i);
      hash = Fnv1a64(s.data(), s.size());
      Sample(0, s);
    } else {
      double v = column.GetNumeric(i);
      if (!min_ || v < *min_) min_ = v;
      if (!max_ || v > *max_) max_ = v;
      int64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(v));
      hash = MixHash64(static_cast<uint64_t>(bits));
      Sample(v, {});
    }
    // KMV sketch: keep the k smallest distinct hashes.
    if (kmv_.size() < kKmvSize || hash < kmv_.back()) {
      auto it = kmv_.begin() + static_cast<std::ptrdiff_t>(
                                   LowerBound(kmv_, hash));
      if (it == kmv_.end() || *it != hash) {
        kmv_.insert(it, hash);
        if (kmv_.size() > kKmvSize) kmv_.pop_back();
      }
    }
  }
}

double AttributeStats::EstimateDistinct() const {
  MutexLock lock(mu_);
  return EstimateDistinctLocked();
}

double AttributeStats::EstimateDistinctLocked() const {
  if (kmv_.empty()) return 0;
  if (kmv_.size() < kKmvSize) return static_cast<double>(kmv_.size());
  // Standard KMV estimator: (k-1) / normalized kth-minimum. Degenerate
  // sketches (kth-minimum of 0 or denormal) would divide by zero or
  // blow up to inf; fall back on the sketch size, which is a valid
  // lower bound.
  double kth = static_cast<double>(kmv_.back()) /
               static_cast<double>(UINT64_MAX);
  if (kth <= 0) return static_cast<double>(kmv_.size());
  double estimate = (static_cast<double>(kKmvSize) - 1.0) / kth;
  if (!std::isfinite(estimate)) return static_cast<double>(kmv_.size());
  return estimate;
}

AttributeStats::Image AttributeStats::ExportImage() const {
  MutexLock lock(mu_);
  Image image;
  image.count = count_;
  image.nulls = nulls_;
  image.has_min = min_.has_value();
  image.min = min_.value_or(0);
  image.has_max = max_.has_value();
  image.max = max_.value_or(0);
  image.kmv.assign(kmv_.begin(), kmv_.end());
  image.numeric_sample = numeric_sample_;
  image.string_sample = string_sample_;
  image.sampled_stream = sampled_stream_;
  return image;
}

bool AttributeStats::ImportImage(Image image) {
  MutexLock lock(mu_);
  if (count_ != 0) return false;  // observed since: live wins
  count_ = image.count;
  nulls_ = image.nulls;
  if (image.has_min) min_ = image.min;
  if (image.has_max) max_ = image.max;
  kmv_ = std::move(image.kmv);
  std::sort(kmv_.begin(), kmv_.end());
  kmv_.erase(std::unique(kmv_.begin(), kmv_.end()), kmv_.end());
  if (kmv_.size() > kKmvSize) kmv_.resize(kKmvSize);
  numeric_sample_ = std::move(image.numeric_sample);
  if (numeric_sample_.size() > kReservoirSize) {
    numeric_sample_.resize(kReservoirSize);
  }
  string_sample_ = std::move(image.string_sample);
  if (string_sample_.size() > kReservoirSize) {
    string_sample_.resize(kReservoirSize);
  }
  sampled_stream_ = image.sampled_stream;
  return true;
}

std::optional<double> AttributeStats::EstimateCompareSelectivity(
    CompareOp op, const Value& literal) const {
  MutexLock lock(mu_);
  if (type_ == DataType::kString) {
    if (!literal.is_string() || string_sample_.empty()) return std::nullopt;
    const std::string& lit = literal.str();
    size_t pass = 0;
    for (const auto& s : string_sample_) {
      int cmp = s.compare(lit);
      bool ok = false;
      switch (op) {
        case CompareOp::kEq:
          ok = cmp == 0;
          break;
        case CompareOp::kNe:
          ok = cmp != 0;
          break;
        case CompareOp::kLt:
          ok = cmp < 0;
          break;
        case CompareOp::kLe:
          ok = cmp <= 0;
          break;
        case CompareOp::kGt:
          ok = cmp > 0;
          break;
        case CompareOp::kGe:
          ok = cmp >= 0;
          break;
      }
      if (ok) ++pass;
    }
    return static_cast<double>(pass) / string_sample_.size();
  }
  if (literal.is_null() || literal.is_string() || numeric_sample_.empty()) {
    return std::nullopt;
  }
  double lit = literal.AsDouble();
  size_t pass = 0;
  for (double v : numeric_sample_) {
    bool ok = false;
    switch (op) {
      case CompareOp::kEq:
        ok = v == lit;
        break;
      case CompareOp::kNe:
        ok = v != lit;
        break;
      case CompareOp::kLt:
        ok = v < lit;
        break;
      case CompareOp::kLe:
        ok = v <= lit;
        break;
      case CompareOp::kGt:
        ok = v > lit;
        break;
      case CompareOp::kGe:
        ok = v >= lit;
        break;
    }
    if (ok) ++pass;
  }
  double frac = static_cast<double>(pass) / numeric_sample_.size();
  if (op == CompareOp::kEq && pass == 0) {
    // Equality that misses the sample: fall back on 1/NDV. A
    // degenerate sketch (no distinct values observed, e.g. an all-NULL
    // column whose sample is somehow non-empty) must not divide by
    // zero or return inf — keep the sample fraction instead.
    double ndv = EstimateDistinctLocked();
    if (ndv > 0 && std::isfinite(1.0 / ndv)) return 1.0 / ndv;
    return frac;
  }
  return frac;
}

std::optional<double> AttributeStats::EstimateLikeSelectivity(
    std::string_view pattern, bool negated) const {
  MutexLock lock(mu_);
  if (string_sample_.empty()) return std::nullopt;
  size_t pass = 0;
  for (const auto& s : string_sample_) {
    if (LikeExpr::Match(s, pattern) != negated) ++pass;
  }
  return static_cast<double>(pass) / string_sample_.size();
}

std::vector<uint64_t> AttributeStats::SampleHistogram(size_t buckets) const {
  MutexLock lock(mu_);
  std::vector<uint64_t> hist(buckets, 0);
  if (numeric_sample_.empty() || !min_ || !max_ || buckets == 0) {
    return hist;
  }
  double lo = *min_;
  double width = (*max_ - lo) / static_cast<double>(buckets);
  if (width <= 0) {
    hist[0] = numeric_sample_.size();
    return hist;
  }
  for (double v : numeric_sample_) {
    size_t b = static_cast<size_t>((v - lo) / width);
    if (b >= buckets) b = buckets - 1;
    ++hist[b];
  }
  return hist;
}

StatsCollector::StatsCollector(std::shared_ptr<Schema> schema)
    : schema_(std::move(schema)) {
  attrs_.resize(schema_->num_fields());
  heat_.assign(schema_->num_fields(), 0);
}

void StatsCollector::RecordAccessHeat(const std::vector<uint32_t>& attrs) {
  uint32_t tenant = obs::ScopedTenantLabel::CurrentId();
  MutexLock lock(mu_);
  std::vector<uint64_t>* slice = nullptr;
  for (uint32_t a : attrs) {
    if (a >= heat_.size()) continue;
    ++heat_[a];
    if (slice == nullptr) {
      slice = &tenant_heat_[tenant];
      if (slice->size() < heat_.size()) slice->resize(heat_.size(), 0);
    }
    ++(*slice)[a];
  }
}

uint64_t StatsCollector::access_heat(uint32_t attr) const {
  MutexLock lock(mu_);
  return attr < heat_.size() ? heat_[attr] : 0;
}

std::vector<uint64_t> StatsCollector::access_heat_counts() const {
  MutexLock lock(mu_);
  return heat_;
}

uint64_t StatsCollector::access_heat_for_tenant(uint32_t tenant,
                                                uint32_t attr) const {
  MutexLock lock(mu_);
  auto it = tenant_heat_.find(tenant);
  if (it == tenant_heat_.end() || attr >= it->second.size()) return 0;
  return it->second[attr];
}

std::vector<uint32_t> StatsCollector::HeatTenants() const {
  MutexLock lock(mu_);
  std::vector<uint32_t> out;
  out.reserve(tenant_heat_.size());
  for (const auto& [tenant, slice] : tenant_heat_) out.push_back(tenant);
  std::sort(out.begin(), out.end());
  return out;
}

void StatsCollector::ObserveBlock(uint32_t attr, uint64_t block,
                                  const ColumnVector& column) {
  uint64_t key = (static_cast<uint64_t>(attr) << 40) | block;
  AttributeStats* stats;
  {
    MutexLock lock(mu_);
    if (!observed_.insert(key).second) return;  // already folded in
    if (attrs_[attr] == nullptr) {
      attrs_[attr] =
          std::make_unique<AttributeStats>(schema_->field(attr).type);
    }
    stats = attrs_[attr].get();
  }
  // Fold outside the collector lock; the attribute's own mutex
  // serializes concurrent observers of the same attribute.
  stats->Observe(column);
}

bool StatsCollector::HasStats(uint32_t attr) const {
  AttributeStats* stats;
  {
    MutexLock lock(mu_);
    stats = attrs_[attr].get();
  }
  return stats != nullptr && stats->row_count() > 0;
}

std::vector<uint32_t> StatsCollector::CoveredAttributes() const {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < attrs_.size(); ++i) {
    if (HasStats(i)) out.push_back(i);
  }
  return out;
}

void StatsCollector::Clear() {
  MutexLock lock(mu_);
  // Reset in place: estimators may still hold GetStats() pointers.
  for (auto& a : attrs_) {
    if (a != nullptr) a->Reset();
  }
  heat_.assign(heat_.size(), 0);
  tenant_heat_.clear();
  observed_.clear();
}

StatsCollector::Image StatsCollector::ExportImage() const {
  // Collect the slot pointers under the collector lock, then export
  // each sketch under its own lock (the ObserveBlock discipline).
  std::vector<AttributeStats*> slots;
  Image image;
  {
    MutexLock lock(mu_);
    slots.reserve(attrs_.size());
    for (const auto& a : attrs_) slots.push_back(a.get());
    image.heat = heat_;
    image.observed.assign(observed_.begin(), observed_.end());
  }
  image.attrs.resize(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] != nullptr && slots[i]->row_count() > 0) {
      image.attrs[i] = slots[i]->ExportImage();
    }
  }
  return image;
}

bool StatsCollector::ImportImage(Image image) {
  MutexLock lock(mu_);
  if (image.attrs.size() != attrs_.size()) return false;  // wrong schema
  if (!observed_.empty()) return false;  // already learning: live wins
  for (uint64_t h : heat_) {
    if (h != 0) return false;
  }
  for (size_t i = 0; i < image.attrs.size(); ++i) {
    if (!image.attrs[i].has_value()) continue;
    if (attrs_[i] == nullptr) {
      attrs_[i] =
          std::make_unique<AttributeStats>(schema_->field(i).type);
    }
    attrs_[i]->ImportImage(std::move(*image.attrs[i]));
  }
  if (image.heat.size() == heat_.size()) heat_ = std::move(image.heat);
  observed_.insert(image.observed.begin(), image.observed.end());
  return true;
}

void ZoneMaps::Observe(uint32_t attr, uint64_t block,
                       const ColumnVector& column, uint64_t generation) {
  if (column.type() == DataType::kString) return;
  Entry entry;
  entry.is_int = column.type() != DataType::kDouble;
  entry.rows = column.size();
  bool first = true;
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsNull(i)) {
      entry.has_null = true;
      continue;
    }
    entry.non_null = true;
    double d = column.GetNumeric(i);
    if (std::isnan(d)) {
      entry.unsafe = true;
      continue;
    }
    if (entry.is_int) {
      int64_t v = column.GetInt64(i);
      if (first || v < entry.min_i) entry.min_i = v;
      if (first || v > entry.max_i) entry.max_i = v;
    }
    if (first || d < entry.min_d) entry.min_d = d;
    if (first || d > entry.max_d) entry.max_d = d;
    first = false;
  }
  MutexLock lock(mu_);
  if (generation != generation_) return;  // parsed a rewritten file
  entries_.emplace(KeyOf(attr, block), entry);  // first install wins
}

std::optional<ZoneMaps::Entry> ZoneMaps::Get(uint32_t attr,
                                             uint64_t block) const {
  MutexLock lock(mu_);
  auto it = entries_.find(KeyOf(attr, block));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool ZoneMaps::Contains(uint32_t attr, uint64_t block) const {
  MutexLock lock(mu_);
  return entries_.find(KeyOf(attr, block)) != entries_.end();
}

uint64_t ZoneMaps::generation() const {
  MutexLock lock(mu_);
  return generation_;
}

void ZoneMaps::DropBlocksFrom(uint64_t first_block) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if ((it->first & ((uint64_t{1} << 40) - 1)) >= first_block) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void ZoneMaps::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  ++generation_;
}

size_t ZoneMaps::num_entries() const {
  MutexLock lock(mu_);
  return entries_.size();
}

ZoneMaps::Image ZoneMaps::ExportImage() const {
  MutexLock lock(mu_);
  Image image;
  image.entries.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    Image::EntryImage ei;
    ei.attr = static_cast<uint32_t>(key >> 40);
    ei.block = key & ((uint64_t{1} << 40) - 1);
    ei.entry = entry;
    image.entries.push_back(ei);
  }
  return image;
}

bool ZoneMaps::ImportImage(Image image) {
  MutexLock lock(mu_);
  if (!entries_.empty()) return false;  // already summarizing: live wins
  for (const Image::EntryImage& ei : image.entries) {
    entries_.emplace(KeyOf(ei.attr, ei.block), ei.entry);
  }
  return true;
}

void StatsSelectivityEstimator::Register(const std::string& table,
                                         const StatsCollector* stats,
                                         std::shared_ptr<Schema> schema) {
  tables_[table] = TableEntry{stats, std::move(schema)};
}

namespace {

/// Selectivities are fractions; degenerate stats (empty samples,
/// zero-width ranges, broken sketches) must never leak NaN/inf into
/// the planner's ordering comparisons.
std::optional<double> ClampSelectivity(std::optional<double> sel) {
  if (!sel.has_value()) return sel;
  if (!std::isfinite(*sel)) return std::nullopt;
  return std::min(1.0, std::max(0.0, *sel));
}

}  // namespace

std::optional<double> StatsSelectivityEstimator::EstimateSelectivity(
    const std::string& table, const Expr& predicate) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return std::nullopt;
  const TableEntry& entry = it->second;

  auto stats_for = [&](const Expr& e) -> const AttributeStats* {
    const auto* ref = dynamic_cast<const ColumnRefExpr*>(&e);
    if (ref == nullptr) return nullptr;
    auto idx = entry.schema->FieldIndex(ref->name());
    if (!idx.ok()) {
      // Join-side conjuncts carry qualified display names ("alias.col");
      // retry with the bare column name against the table schema.
      size_t dot = ref->name().rfind('.');
      if (dot == std::string::npos) return nullptr;
      idx = entry.schema->FieldIndex(ref->name().substr(dot + 1));
      if (!idx.ok()) return nullptr;
    }
    if (!entry.stats->HasStats(static_cast<uint32_t>(*idx))) return nullptr;
    return entry.stats->GetStats(static_cast<uint32_t>(*idx));
  };

  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&predicate)) {
    const AttributeStats* stats = stats_for(*cmp->left());
    const Expr* literal_side = cmp->right().get();
    CompareOp op = cmp->op();
    if (stats == nullptr) {
      stats = stats_for(*cmp->right());
      literal_side = cmp->left().get();
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
    if (stats == nullptr) return std::nullopt;
    const auto* lit = dynamic_cast<const LiteralExpr*>(literal_side);
    if (lit == nullptr) return std::nullopt;
    return ClampSelectivity(
        stats->EstimateCompareSelectivity(op, lit->value()));
  }

  if (const auto* like = dynamic_cast<const LikeExpr*>(&predicate)) {
    // LikeExpr does not expose its input publicly beyond CollectColumns;
    // resolve via collected column indices against the projected schema
    // is not possible here, so estimate only simple column LIKEs.
    (void)like;
    return std::nullopt;
  }

  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(&predicate)) {
    (void)isnull;
    return std::nullopt;
  }

  // AND of estimable conjuncts: product (independence assumption).
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&predicate)) {
    if (logical->op() == LogicalOp::kAnd) {
      auto l = EstimateSelectivity(table, *logical->left());
      auto r = EstimateSelectivity(table, *logical->right());
      if (l && r) return ClampSelectivity(*l * *r);
      return ClampSelectivity(l ? l : r);
    }
    if (logical->op() == LogicalOp::kOr) {
      auto l = EstimateSelectivity(table, *logical->left());
      auto r = EstimateSelectivity(table, *logical->right());
      if (l && r) return ClampSelectivity(*l + *r - *l * *r);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace nodb
