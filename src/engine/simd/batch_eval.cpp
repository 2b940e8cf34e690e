#include "engine/simd/lane_evaluator.hpp"

#include <string_view>

#include "common/check.hpp"

namespace anadex::engine {

const char* to_string(BatchEval mode) {
  switch (mode) {
    case BatchEval::Scalar: return "scalar";
    case BatchEval::Auto: return "auto";
  }
  return "scalar";
}

BatchEval parse_batch_eval(std::string_view text) {
  if (text == "auto") return BatchEval::Auto;
  ANADEX_REQUIRE(text == "scalar", "batch_eval must be one of: scalar, auto");
  return BatchEval::Scalar;
}

}  // namespace anadex::engine
