#include "linalg/isa.hpp"

#include <stdexcept>
#include <string>

#include "linalg/lanes.hpp"

namespace kato::la {

bool isa_supported(Isa isa) {
  if (isa == Isa::sse2) return true;
#if KATO_LA_AVX2
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

Isa active_isa() {
  static const Isa isa = isa_supported(Isa::avx2) ? Isa::avx2 : Isa::sse2;
  return isa;
}

const char* isa_name(Isa isa) { return isa == Isa::avx2 ? "avx2" : "sse2"; }

void require_isa(Isa isa, const char* who) {
  if (!isa_supported(isa))
    throw std::invalid_argument(std::string(who) + ": " + isa_name(isa) +
                                " is not supported on this CPU");
}

}  // namespace kato::la
