#include "lp/warm_start.h"

namespace figret::lp {

const char* to_string(WarmFallback fallback) noexcept {
  switch (fallback) {
    case WarmFallback::kNone:
      return "none";
    case WarmFallback::kSignatureMismatch:
      return "signature";
    case WarmFallback::kBasisShapeMismatch:
      return "shape";
    case WarmFallback::kSingularBasis:
      return "singular";
    case WarmFallback::kDualInfeasible:
      return "dual-infeasible";
    case WarmFallback::kDualAborted:
      return "dual-aborted";
  }
  return "unknown";
}

bool WarmStart::should_attempt() noexcept {
  // Keep probing while the recent hit rate is above ~1/9 (a hit repays far
  // more than eight rejected probes); otherwise probe every eighth solve.
  // The decayed window lets a long-lived handle react to regime changes.
  if (recent_misses_ < 6 || recent_hits_ * 8 >= recent_misses_) return true;
  if (++skips_since_attempt_ >= 8) {
    skips_since_attempt_ = 0;
    return true;
  }
  return false;
}

bool WarmStart::compatible(std::size_t num_vars, std::size_t num_cols,
                           std::uint64_t row_signature) const noexcept {
  return has_basis() && num_vars == num_vars_ && num_cols == num_cols_ &&
         row_signature == row_signature_;
}

void WarmStart::store(std::size_t num_vars, std::size_t num_cols,
                      std::uint64_t row_signature,
                      std::vector<VarState> state,
                      std::vector<std::uint32_t> basis) {
  num_vars_ = num_vars;
  num_cols_ = num_cols;
  row_signature_ = row_signature;
  state_ = std::move(state);
  basis_ = std::move(basis);
}

}  // namespace figret::lp
