#include "common/bfloat16.h"

#include <ostream>

namespace opal {

std::ostream& operator<<(std::ostream& os, bfloat16 v) {
  return os << v.to_float();
}

}  // namespace opal
