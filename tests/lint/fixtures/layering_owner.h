// Lint fixture: fed to CheckLayering as src/storage/owner_view.h, the
// header that declares OwnerView in the storage layer.
#include <vector>

namespace seltrig {

class OwnerView {
 public:
  std::vector<int> SortedIds() const;
};

}  // namespace seltrig
