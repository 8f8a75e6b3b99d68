#ifndef NODB_STORE_SEGMENT_STORE_H_
#define NODB_STORE_SEGMENT_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "types/column_vector.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nodb {

/// The admission class of a resident segment.
enum class SegmentClass : uint8_t {
  /// Whatever scans happened to parse: the paper's binary cache (§3.2).
  kProbationary = 0,
  /// Full-block segments promoted by access heat: the shadow column
  /// store, the paper's adaptive-loading end state ("frequently
  /// accessed data gradually becomes loaded data"). Snapshots persist
  /// only this class.
  kProtected = 1,
};

/// Every parsed column segment of one raw table, keyed by (attribute,
/// row-block) and held once, in one of two classes — a segmented LRU
/// (2Q; Johnson & Shasha, VLDB 1994). Scans insert what they parse as
/// probationary, under the cache quota; promotion by heat moves an
/// entry to the protected class, under the store quota. A segment
/// evicted from the protected class gets a second chance at the head
/// of the probationary class; one evicted from there is gone.
///
/// Within a class, eviction is LRU with a per-tenant fair share: the
/// victim is the least-recent segment of an owner holding more than
/// quota / active-owners bytes (plain LRU with one owner). The segment
/// just inserted or demoted is never the victim.
///
/// One generation fence covers both classes: Clear() (file rewritten)
/// advances it, and every lookup and insert carries the generation its
/// scan snapshotted before opening the file. A stale one misses or is
/// dropped, so a scan of the old file can neither read the new file's
/// segments nor repopulate the cleared store.
///
/// Thread-safe: one mutex guards the index, both LRU lists and the
/// counters. Segments are immutable and shared-owned, so a segment a
/// scan obtained stays valid after it is evicted.
class SegmentStore {
 public:
  SegmentStore(size_t probationary_quota, size_t protected_quota);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// The current file generation: snapshot it before opening the file
  /// handle a scan will parse from, and pass it to every Get and Put.
  uint64_t generation() const EXCLUDES(mu_);

  /// The segment of (attr, block) in either class, or nullptr (absent
  /// or stale `generation`). Counts a hit or miss and refreshes the
  /// entry's recency within its class; `*cls` receives the class.
  std::shared_ptr<const ColumnVector> Get(uint32_t attr, uint64_t block,
                                          uint64_t generation,
                                          SegmentClass* cls = nullptr)
      EXCLUDES(mu_);

  /// All-or-nothing probe of the protected class: fills `out` with the
  /// segment of every attribute of `attrs` for `block` and refreshes
  /// their recency (a block hit), or returns false and changes nothing
  /// but the block-miss count.
  bool GetProtectedBlock(const std::vector<uint32_t>& attrs, uint64_t block,
                         uint64_t generation,
                         std::vector<std::shared_ptr<const ColumnVector>>* out)
      EXCLUDES(mu_);

  /// The one insert; a stale `generation` is dropped. A resident
  /// protected entry at least as long stays (it parsed the same bytes);
  /// any other resident entry is replaced, so inserting a probationary
  /// segment again as protected promotes it. A segment over its class's
  /// quota is not admitted, and the entry it would replace survives
  /// only a failed promotion. Protected inserts must cover their whole
  /// block. Owned by the calling thread's tenant (obs/tenant.h).
  void Put(uint32_t attr, uint64_t block,
           std::shared_ptr<const ColumnVector> segment, SegmentClass cls,
           uint64_t generation) EXCLUDES(mu_);

  /// Peeks without touching recency or counters.
  bool Contains(uint32_t attr, uint64_t block, SegmentClass cls) const
      EXCLUDES(mu_);

  /// Drops every segment of the blocks in [first_block, end_block):
  /// from the old frontier on after an append (that block is about to
  /// gain rows), or one block found stale at serve time.
  void DropBlocks(uint64_t first_block, uint64_t end_block) EXCLUDES(mu_);

  /// Drops everything and advances the generation (file rewritten /
  /// table replaced). Counters survive.
  void Clear() EXCLUDES(mu_);

  /// One class's occupancy.
  struct ClassStats {
    size_t quota = 0;
    size_t bytes = 0;
    size_t segments = 0;
    /// Segments that left the class under quota pressure (protected:
    /// demoted, or dropped when too large for the probationary quota).
    uint64_t evictions = 0;
    double utilization() const {
      return quota == 0 ? 0.0 : static_cast<double>(bytes) / quota;
    }
  };
  ClassStats stats(SegmentClass cls) const EXCLUDES(mu_);

  /// Lookup and promotion counts since construction.
  struct Counters {
    uint64_t hits = 0;          ///< Get
    uint64_t misses = 0;        ///< Get
    uint64_t block_hits = 0;    ///< GetProtectedBlock
    uint64_t block_misses = 0;  ///< GetProtectedBlock
    uint64_t promotions = 0;    ///< protected admissions
  };
  Counters counters() const EXCLUDES(mu_);

  /// Bytes `cls` holds on behalf of `owner` (tenant id).
  size_t bytes_used_by(uint32_t owner, SegmentClass cls) const
      EXCLUDES(mu_);

  /// Rows held protected per attribute (index = attribute; the sum of
  /// its segments' sizes): the promoter's coverage check.
  std::vector<uint64_t> protected_rows() const EXCLUDES(mu_);

  /// Serializable manifest of the protected class (persist/): every
  /// (attr, block) with a shared reference to its immutable segment —
  /// exporting copies no column data. LRU order, most recent first.
  struct Image {
    struct SegmentImage {
      uint32_t attr = 0;
      uint64_t block = 0;
      std::shared_ptr<const ColumnVector> segment;
    };
    std::vector<SegmentImage> segments;
  };

  Image ExportImage() const EXCLUDES(mu_);

  /// Re-promotes an image's segments while the protected class is
  /// empty (false and no-op otherwise), oldest first so recency is
  /// reproduced; quotas apply, so a smaller one keeps the hottest tail.
  bool ImportImage(const Image& image) EXCLUDES(mu_);

 private:
  struct Key {
    uint32_t attr;
    uint64_t block;
    bool operator==(const Key& o) const {
      return attr == o.attr && block == o.block;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(
          CombineHash64(MixHash64(k.attr), MixHash64(k.block)));
    }
  };
  struct Entry {
    std::shared_ptr<const ColumnVector> segment;
    size_t bytes = 0;
    uint32_t owner = 0;  ///< tenant id that inserted it (0 = untagged)
    SegmentClass cls = SegmentClass::kProbationary;
    std::list<Key>::iterator lru_pos;
  };
  using EntryMap = std::unordered_map<Key, Entry, KeyHash>;

  /// One class's LRU list and accounting.
  struct ClassState {
    std::list<Key> lru;  // front = most recent
    /// Resident bytes per owner (erased at zero, so size() is the
    /// active-owner count the fair share divides by).
    std::unordered_map<uint32_t, size_t> owner_bytes;
    size_t bytes = 0;
    uint64_t evictions = 0;
  };

  ClassState& State(SegmentClass cls) REQUIRES(mu_) {
    return classes_[static_cast<size_t>(cls)];
  }
  const ClassState& State(SegmentClass cls) const REQUIRES(mu_) {
    return classes_[static_cast<size_t>(cls)];
  }
  size_t Quota(SegmentClass cls) const {
    return quota_[static_cast<size_t>(cls)];
  }

  /// Puts `it` at the head of class `cls` with byte, owner and row
  /// accounting; Unlink reverses it. Neither touches entries_.
  void Link(EntryMap::iterator it, SegmentClass cls) REQUIRES(mu_);
  void Unlink(EntryMap::iterator it) REQUIRES(mu_);
  void Remove(EntryMap::iterator it) REQUIRES(mu_);

  /// Evicts fair-share victims while `cls` is over its quota; a
  /// protected victim is demoted to the probationary head.
  void EvictOverQuota(SegmentClass cls) REQUIRES(mu_);

  const size_t quota_[2];
  mutable Mutex mu_;
  EntryMap entries_ GUARDED_BY(mu_);
  ClassState classes_[2] GUARDED_BY(mu_);
  std::vector<uint64_t> protected_rows_ GUARDED_BY(mu_);  // per attr
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  Counters counters_ GUARDED_BY(mu_);
};

}  // namespace nodb

#endif  // NODB_STORE_SEGMENT_STORE_H_
