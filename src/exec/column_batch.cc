#include "exec/column_batch.h"

#include <utility>

namespace seltrig {

void ColumnBatch::ApplyProjection(const std::vector<int>& projection) {
  // Each source column moves out exactly once, so a swap is enough; the
  // columns left behind keep their storage in the scratch for reuse.
  proj_scratch_.resize(projection.size());
  for (size_t i = 0; i < projection.size(); ++i) {
    std::swap(proj_scratch_[i], cols_[static_cast<size_t>(projection[i])]);
  }
  cols_.swap(proj_scratch_);
}

void ColumnBatch::DropFrontLogical(size_t n) {
  if (n == 0) return;
  if (n >= size()) {
    TruncateLogical(0);
    return;
  }
  if (!has_selection_) {
    selection_.clear();
    selection_.reserve(count_ - n);
    for (size_t i = n; i < count_; ++i) {
      selection_.push_back(static_cast<uint32_t>(i));
    }
    has_selection_ = true;
  } else {
    selection_.erase(selection_.begin(),
                     selection_.begin() + static_cast<ptrdiff_t>(n));
  }
}

}  // namespace seltrig
