#pragma once
// Two doubles per SSE2 register, for the register-tiled dense kernels.
//
// The baseline x86-64 target has no FMA instruction, so `a -= s * t` on V2
// values is a rounded multiply then a rounded add in every lane: the same
// two roundings as the scalar `a -= s * t`.  A lane therefore reproduces
// its scalar loop bit for bit as long as it sees the same operands in the
// same order.

#include <cstring>

namespace kato::la {

using V2 = double __attribute__((vector_size(16)));

inline V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

inline V2 bcast(double s) { return V2{s, s}; }

}  // namespace kato::la
