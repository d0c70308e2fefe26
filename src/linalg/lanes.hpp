#pragma once
// Lane types for the register-tiled dense kernels (linalg/cholesky.cpp,
// linalg/matrix.cpp, and the posterior input gradient in
// kernel/stationary.cpp).
//
// Each kernel is written once, as an always_inline template over a lane type
// L, and instantiated twice:
//   - L2, two doubles per register: the baseline x86-64 (SSE2) target, and
//     the portable path on other targets;
//   - L4, four doubles per register: only inside x86-64 entry points marked
//     KATO_LA_TARGET_AVX2, which the template is inlined into, so four-lane
//     values exist only in AVX2 code and never cross a baseline-ABI call.
// isa.hpp picks the instantiation at run time.
//
// No FMA.  GCC's "avx2" target does not enable fused multiply-add (the "fma"
// and "avx512f" targets do), and the baseline target has none, so `a -= s * t`
// on lanes is a rounded multiply then a rounded add in every lane: the same
// two roundings as the scalar `a -= s * t`.  A lane therefore reproduces its
// scalar loop bit for bit as long as it sees the same operands in the same
// order, and the L2 and L4 builds of a kernel write identical bytes.  CI
// checks the built library for FMA mnemonics.
//
// Lanes are read and written through at<L>(p), an lvalue of W doubles at an
// 8-byte-aligned address, and a scalar s is broadcast by the vector
// extension's mixed arithmetic (s * v), so no function takes or returns a
// vector by value.  The template bodies carry no target attribute of their
// own (GCC will not inline an AVX2-targeted helper into them), and a
// four-lane argument passed by value outside AVX2 code would change the ABI
// (-Wpsabi).  Under GCC 12 with UBSan, subscripting a vector value can read
// the wrong lane, so kernels store lanes to double arrays before indexing
// them.

#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KATO_LA_AVX2 1
#define KATO_LA_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define KATO_LA_AVX2 0
#endif

/// Every helper a kernel calls, scalar ones included, is force-inlined so it
/// is compiled inside each build.  An AVX2 loop that calls out to baseline
/// code spills its four-lane registers around each call and pays the
/// AVX/SSE transition; the triangular inverse ran several times slower so.
#define KATO_LA_INLINE inline __attribute__((always_inline))

namespace kato::la {

/// Two doubles per register.  `V` holds the lanes; `Mem` is the same lanes
/// in memory: 8-byte aligned, and allowed to alias the double arrays they are
/// read from.
struct L2 {
  static constexpr std::size_t width = 2;
  using V = double __attribute__((vector_size(16)));
  using Mem = double
      __attribute__((vector_size(16), aligned(alignof(double)), may_alias));
};

/// Four doubles per register (AVX2 entry points only).
struct L4 {
  static constexpr std::size_t width = 4;
  using V = double __attribute__((vector_size(32)));
  using Mem = double
      __attribute__((vector_size(32), aligned(alignof(double)), may_alias));
};

template <class L>
KATO_LA_INLINE const typename L::Mem& at(const double* p) {
  return *reinterpret_cast<const typename L::Mem*>(p);
}

template <class L>
KATO_LA_INLINE typename L::Mem& at(double* p) {
  return *reinterpret_cast<typename L::Mem*>(p);
}

/// v = h[0 .. L::width), built in registers.  Storing scalars and reading
/// them back as one wider load would stall store-to-load forwarding.
template <class L>
KATO_LA_INLINE void set_lanes(typename L::V& v, const double* h) {
  if constexpr (L::width == 2)
    v = typename L::V{h[0], h[1]};
  else
    v = typename L::V{h[0], h[1], h[2], h[3]};
}

}  // namespace kato::la
