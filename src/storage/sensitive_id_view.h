// SensitiveIdView: an audit expression compiled to the materialized set of
// partition-by IDs it selects (Section IV-A1). The physical audit operator
// probes this set -- a hash lookup whose cost is independent of the audit
// expression's complexity -- instead of re-evaluating the expression's
// predicate per row.

#ifndef SELTRIG_STORAGE_SENSITIVE_ID_VIEW_H_
#define SELTRIG_STORAGE_SENSITIVE_ID_VIEW_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/bloom_filter.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "types/value.h"

namespace seltrig {

class SensitiveIdView {
 public:
  bool Contains(const Value& id) const { return ids_.count(id) > 0; }
  size_t size() const { return ids_.size(); }
  const std::unordered_set<Value, ValueHash, ValueEq>& ids() const { return ids_; }

  std::vector<Value> SortedIds() const { return SortedValues(ids_); }

  // Builds a Bloom filter over the current IDs (Section IV-A2's fallback for
  // sets too large to probe exactly). The filter is a snapshot: rebuild
  // after DML when exactness of the summary matters.
  std::shared_ptr<const BloomFilter> BuildBloomFilter(double target_fp_rate) const {
    auto bloom = std::make_shared<BloomFilter>(ids_.size(), target_fp_rate);
    for (const Value& id : ids_) bloom->Add(static_cast<uint64_t>(id.Hash()));
    return bloom;
  }

  // Bloom pre-screen for the batch audit probe: a lazily-built summary the
  // physical audit operator consults to skip a whole batch's exact probes
  // when no row can contain a sensitive ID. No false negatives (a negative
  // screen is definitive), so ACCESSED is unaffected. Invalidated by every
  // maintenance call; returns null for sets too small to be worth screening.
  //
  // Safe under concurrent readers: the lazy build races between parallel scan
  // workers, so it is serialized by a mutex. The returned pointer stays valid
  // while readers are active — maintenance (which resets the screen) only
  // runs behind the engine's writer lock, which excludes all readers.
  const BloomFilter* Screen() const SELTRIG_EXCLUDES(screen_mutex_) {
    if (ids_.size() < kScreenMinIds) return nullptr;
    MutexLock lock(&screen_mutex_);
    if (screen_ == nullptr) {
      screen_ = BuildBloomFilter(kScreenFpRate);
    }
    return screen_.get();
  }

  // Maintenance entry points, driven by the AuditManager's DML hooks
  // (standard incremental materialized-view maintenance). Every mutation
  // invalidates the screen (Bloom filters cannot delete, and rebuilding
  // keeps the false-positive rate at its target); the next batch probe
  // rebuilds it lazily.
  void Add(const Value& id) {
    ids_.insert(id);
    ResetScreen();
  }
  void Remove(const Value& id) {
    ids_.erase(id);
    ResetScreen();
  }
  void Clear() {
    ids_.clear();
    ResetScreen();
  }

 private:
  // Below this cardinality the exact hash probes are cheap enough that a
  // pre-screen pass would only add work.
  static constexpr size_t kScreenMinIds = 16;
  static constexpr double kScreenFpRate = 0.01;

  void ResetScreen() SELTRIG_EXCLUDES(screen_mutex_) {
    MutexLock lock(&screen_mutex_);
    screen_.reset();
  }

  std::unordered_set<Value, ValueHash, ValueEq> ids_;
  mutable Mutex screen_mutex_;  // serializes the lazy screen build
  mutable std::shared_ptr<const BloomFilter> screen_ SELTRIG_GUARDED_BY(screen_mutex_);
};

}  // namespace seltrig

#endif  // SELTRIG_STORAGE_SENSITIVE_ID_VIEW_H_
