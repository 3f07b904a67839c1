#include "serve/gate_core.hpp"

namespace tfacc {

// The one instantiation the serving stack uses.
template class BasicGateCore<GrantMinimum>;

}  // namespace tfacc
