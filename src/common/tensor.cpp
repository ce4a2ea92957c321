#include "common/tensor.h"

#include "common/kernels.h"

namespace opal {

// Shape checks happen once here, at the public entry point; the kernel
// table below it runs raw pointer loops with no per-row validation.

void matvec(const Matrix& w, std::span<const float> x, std::span<float> y) {
  require(x.size() == w.cols(), "matvec: x size != cols");
  require(y.size() == w.rows(), "matvec: y size != rows");
  kernels().matvec(w.data(), w.rows(), w.cols(), x.data(), y.data());
}

}  // namespace opal
