// Allocation counter stub for the untraced binaries: no operator new
// replacement, so the end-to-end numbers carry no counting cost.
#include "common.h"

namespace perfbench {

AllocCounts alloc_counts() noexcept { return {}; }
bool alloc_counting() noexcept { return false; }

}  // namespace perfbench
