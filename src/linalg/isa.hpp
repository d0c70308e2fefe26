#pragma once
// Run-time choice of the instruction set for the register-tiled dense
// kernels: the Cholesky family in cholesky.hpp, contract_block in
// matrix.hpp, and StationaryArd::posterior_input_grad.
//
// Every tiled kernel is built twice: a two-lane instantiation for the
// baseline target (SSE2 on x86-64, plain vector code elsewhere) and, on
// x86-64, a four-lane AVX2 instantiation.  active_isa() picks one once per
// process from the CPU's feature bits; there is no option to change it.  Both
// instantiations write identical bytes (see linalg/lanes.hpp), so the choice
// changes speed only.  The linalg kernels take an Isa argument that
// defaults to active_isa(); tests pass both values to compare them directly.

namespace kato::la {

enum class Isa { sse2, avx2 };

/// avx2 when the library has an AVX2 build of the kernels and the CPU
/// supports it, sse2 otherwise.  Decided on first call.
Isa active_isa();

/// True when the kernels can run with `isa` on this CPU.
bool isa_supported(Isa isa);

/// "sse2" or "avx2", as recorded in the KATO_STATS dump and micro_perf.
const char* isa_name(Isa isa);

/// Throws std::invalid_argument naming `who` unless isa_supported(isa).
void require_isa(Isa isa, const char* who);

}  // namespace kato::la
