// Exploring the FP8 design space: custom EeMm formats and exponent-bias
// shifting -- the knobs behind the paper's E5M2 / E4M3 / E3M4 choices.
#include <cstdio>

#include "core/fp8q.h"

using namespace fp8q;

int main() {
  // 1. Any 1+e+m == 8 split can be built (Kuzmin et al. explore these).
  std::printf("custom formats:\n");
  for (int e = 2; e <= 5; ++e) {
    const FormatSpec spec = make_format(e, 7 - e);
    std::printf("  E%dM%d: max %10.4g, min subnormal %10.4g, density@1.0 %g/unit\n", e,
                7 - e, spec.max_value(), spec.min_subnormal(), spec.grid_density_at(1.0));
  }

  // 2. Exponent-bias shifting (Sun et al. 2019): trade top range for
  // small-value coverage.
  std::printf("\nE4M3 with shifted bias:\n");
  for (int bias : {5, 7, 9}) {
    const FormatSpec spec = make_format(4, 3, bias);
    std::printf("  bias %d: range [%g, %g]\n", bias, spec.min_subnormal(),
                spec.max_value());
  }
  return 0;
}
