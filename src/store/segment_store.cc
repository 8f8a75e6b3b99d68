#include "store/segment_store.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"
#include "obs/tenant.h"

namespace nodb {

namespace {

/// Process-wide accounting across every table's SegmentStore, by
/// class and event, under the names the two classes had as separate
/// structures; the per-instance counters stay the per-table view.
obs::Counter* ClassCounter(SegmentClass cls, bool eviction) {
  auto counter = [](const char* name, const char* help) {
    return obs::MetricsRegistry::Global().GetCounter(name, help);
  };
  static obs::Counter* const counters[2][2] = {
      {counter("nodb_cache_insertions_total",
               "Segments inserted as probationary"),
       counter("nodb_cache_evictions_total",
               "Segments evicted from probationary")},
      {counter("nodb_store_promotions_total",
               "Segments admitted as protected"),
       counter("nodb_store_evictions_total",
               "Segments evicted from protected")}};
  return counters[static_cast<size_t>(cls)][eviction ? 1 : 0];
}

}  // namespace

SegmentStore::SegmentStore(size_t probationary_quota, size_t protected_quota)
    : quota_{probationary_quota, protected_quota} {}

uint64_t SegmentStore::generation() const {
  MutexLock lock(mu_);
  return generation_;
}

std::shared_ptr<const ColumnVector> SegmentStore::Get(uint32_t attr,
                                                      uint64_t block,
                                                      uint64_t generation,
                                                      SegmentClass* cls) {
  MutexLock lock(mu_);
  auto it = generation == generation_ ? entries_.find(Key{attr, block})
                                      : entries_.end();
  if (it == entries_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  Entry& entry = it->second;
  std::list<Key>& lru = State(entry.cls).lru;
  lru.splice(lru.begin(), lru, entry.lru_pos);
  if (cls != nullptr) *cls = entry.cls;
  return entry.segment;
}

bool SegmentStore::GetProtectedBlock(
    const std::vector<uint32_t>& attrs, uint64_t block, uint64_t generation,
    std::vector<std::shared_ptr<const ColumnVector>>* out) {
  out->clear();
  MutexLock lock(mu_);
  std::vector<std::list<Key>::iterator> found;
  found.reserve(attrs.size());
  for (uint32_t attr : attrs) {
    auto it = generation == generation_ ? entries_.find(Key{attr, block})
                                        : entries_.end();
    if (it == entries_.end() || it->second.cls != SegmentClass::kProtected) {
      out->clear();
      ++counters_.block_misses;
      return false;
    }
    out->push_back(it->second.segment);
    found.push_back(it->second.lru_pos);
  }
  // All protected: the block will be served, refresh every segment.
  std::list<Key>& lru = State(SegmentClass::kProtected).lru;
  for (auto pos : found) lru.splice(lru.begin(), lru, pos);
  ++counters_.block_hits;
  return true;
}

void SegmentStore::Put(uint32_t attr, uint64_t block,
                       std::shared_ptr<const ColumnVector> segment,
                       SegmentClass cls, uint64_t generation) {
  if (segment == nullptr) return;
  const size_t bytes = segment->MemoryUsage() + sizeof(Entry) + sizeof(Key);
  MutexLock lock(mu_);
  if (generation != generation_) return;  // parsed a rewritten file
  const Key key{attr, block};
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.cls == SegmentClass::kProtected &&
      it->second.segment->size() >= segment->size()) {
    return;  // already promoted: the resident segment is as good
  }
  const bool fits = bytes <= Quota(cls);
  if (it != entries_.end() && (fits || cls == SegmentClass::kProbationary)) {
    Remove(it);
  }
  if (!fits) return;
  Entry entry;
  entry.segment = std::move(segment);
  entry.bytes = bytes;
  entry.owner = obs::ScopedTenantLabel::CurrentId();
  Link(entries_.emplace(key, std::move(entry)).first, cls);
  if (cls == SegmentClass::kProtected) ++counters_.promotions;
  ClassCounter(cls, /*eviction=*/false)->Add(1);
  EvictOverQuota(cls);
}

void SegmentStore::Link(EntryMap::iterator it, SegmentClass cls) {
  Entry& entry = it->second;
  ClassState& c = State(cls);
  entry.cls = cls;
  c.lru.push_front(it->first);
  entry.lru_pos = c.lru.begin();
  c.bytes += entry.bytes;
  c.owner_bytes[entry.owner] += entry.bytes;
  if (cls == SegmentClass::kProtected) {
    const uint32_t attr = it->first.attr;
    if (attr >= protected_rows_.size()) protected_rows_.resize(attr + 1, 0);
    protected_rows_[attr] += entry.segment->size();
  }
}

void SegmentStore::Unlink(EntryMap::iterator it) {
  Entry& entry = it->second;
  ClassState& c = State(entry.cls);
  c.lru.erase(entry.lru_pos);
  c.bytes -= entry.bytes;
  auto ob = c.owner_bytes.find(entry.owner);
  ob->second -= entry.bytes;
  if (ob->second == 0) c.owner_bytes.erase(ob);
  if (entry.cls == SegmentClass::kProtected) {
    protected_rows_[it->first.attr] -= entry.segment->size();
  }
}

void SegmentStore::Remove(EntryMap::iterator it) {
  Unlink(it);
  entries_.erase(it);
}

void SegmentStore::EvictOverQuota(SegmentClass cls) {
  ClassState& c = State(cls);
  const size_t quota = Quota(cls);
  while (c.bytes > quota && c.lru.size() > 1) {
    // An over-quota class always has an owner over the equal share
    // (pigeonhole); the LRU tail is the fallback, and the front (just
    // inserted or demoted) is never the victim.
    const size_t share =
        quota / std::max<size_t>(size_t{1}, c.owner_bytes.size());
    Key victim = c.lru.back();
    for (auto pos = c.lru.rbegin(); std::next(pos) != c.lru.rend(); ++pos) {
      if (c.owner_bytes[entries_.find(*pos)->second.owner] > share) {
        victim = *pos;
        break;
      }
    }
    auto it = entries_.find(victim);
    ++c.evictions;
    ClassCounter(cls, /*eviction=*/true)->Add(1);
    if (cls == SegmentClass::kProbationary ||
        it->second.bytes > Quota(SegmentClass::kProbationary)) {
      Remove(it);
      continue;
    }
    // Segmented LRU: a segment leaving the protected class gets a
    // second chance at the head of the probationary class.
    Unlink(it);
    Link(it, SegmentClass::kProbationary);
    EvictOverQuota(SegmentClass::kProbationary);
  }
}

bool SegmentStore::Contains(uint32_t attr, uint64_t block,
                            SegmentClass cls) const {
  MutexLock lock(mu_);
  auto it = entries_.find(Key{attr, block});
  return it != entries_.end() && it->second.cls == cls;
}

void SegmentStore::DropBlocks(uint64_t first_block, uint64_t end_block) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (it->first.block >= first_block && it->first.block < end_block) {
      Remove(it);
    }
    it = next;
  }
}

void SegmentStore::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  for (ClassState& c : classes_) {
    c.lru.clear();
    c.owner_bytes.clear();
    c.bytes = 0;
  }
  protected_rows_.assign(protected_rows_.size(), 0);
  ++generation_;
}

SegmentStore::ClassStats SegmentStore::stats(SegmentClass cls) const {
  MutexLock lock(mu_);
  const ClassState& c = State(cls);
  return ClassStats{Quota(cls), c.bytes, c.lru.size(), c.evictions};
}

SegmentStore::Counters SegmentStore::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

size_t SegmentStore::bytes_used_by(uint32_t owner, SegmentClass cls) const {
  MutexLock lock(mu_);
  const auto& owners = State(cls).owner_bytes;
  auto it = owners.find(owner);
  return it == owners.end() ? 0 : it->second;
}

std::vector<uint64_t> SegmentStore::protected_rows() const {
  MutexLock lock(mu_);
  return protected_rows_;
}

SegmentStore::Image SegmentStore::ExportImage() const {
  MutexLock lock(mu_);
  Image image;
  for (const Key& key : State(SegmentClass::kProtected).lru) {
    image.segments.push_back(Image::SegmentImage{
        key.attr, key.block, entries_.find(key)->second.segment});
  }
  return image;
}

bool SegmentStore::ImportImage(const Image& image) {
  uint64_t generation;
  {
    MutexLock lock(mu_);
    // Already promoting: live state wins.
    if (!State(SegmentClass::kProtected).lru.empty()) return false;
    generation = generation_;
  }
  for (auto it = image.segments.rbegin(); it != image.segments.rend();
       ++it) {
    Put(it->attr, it->block, it->segment, SegmentClass::kProtected,
        generation);
  }
  return true;
}

}  // namespace nodb
