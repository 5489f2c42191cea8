// Lint fixture: fed to CheckLayering as src/audit/owner_user.cc. Defining a
// storage class's member in an audit translation unit is flagged; members of
// a class this file declares itself are not.
#include "storage/owner_view.h"

namespace seltrig {

struct Helper {
  int Twice(int v) const;
};

int Helper::Twice(int v) const { return 2 * v; }

std::vector<int> OwnerView::SortedIds() const {
  return {};
}

}  // namespace seltrig
