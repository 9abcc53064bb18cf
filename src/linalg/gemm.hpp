// Local (shared-memory) GEMM kernels.
//
// The paper offloads local matrix multiplication to an optimized BLAS (MKL /
// cuBLAS); none is available here, so the library ships its own packed,
// cache-blocked kernel. Simulated compute time is charged from the machine
// model, so the kernel's host speed never moves a virtual time; it does set
// how fast an executed run finishes on the host.
//
//   gemm_ref     — triple-loop reference, the oracle for all tests
//   gemm_blocked — packed, cache-blocked kernel used by the algorithms
//   gemm_flops   — flop count charged to the virtual clock
//
// Clones. gemm.cpp holds one kernel source (packing, micro-kernel and the
// blocked loop, as one template on the micro-tile) and compiles it three
// times: for the build's baseline ISA with a 4x8 tile, for AVX2 with 4x8,
// and for AVX-512 with 4x16. The compiler vectorizes each; there are no
// intrinsics. gemm_blocked picks the widest clone the CPU supports once, on
// its first call; gemm_isa_name() says which. Off x86 only the baseline
// clone is built.
//
// Bit identity. Every clone writes the same bits into C. The cache blocks
// (kMC, kKC, kNC) are shared, and kKC fixes the order in which each C
// element accumulates: a register tile sums its k-panel in order from zero,
// then C += alpha * tile. The tile shape only decides which elements are
// computed together, not that order. This holds only while no multiply-add
// is fused: an FMA rounds once where a multiply and an add round twice.
// GCC contracts by default in C++, -std=c++20 included, and AVX-512 has FMA.
// So ca_linalg is built with -ffp-contract=off, placed after the user's
// flags so that it wins over a global -ffp-contract=fast.
#pragma once

#include "common/partition.hpp"
#include "linalg/matrix.hpp"

namespace ca3dmm {

/// C (m x n, row stride ldc) += alpha * op(A) * op(B); op is transpose iff
/// trans_x. A is stored row-major as (m x k) with row stride lda when
/// !trans_a, as (k x m) when trans_a; similarly B.
template <typename T>
void gemm_ref(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
              const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc);

template <typename T>
void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
                  const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc);

/// The clone gemm_blocked runs on this host: "baseline", "avx2" or "avx512".
const char* gemm_isa_name();

namespace detail {

/// The kernel clones (see the file comment).
enum class GemmIsa { kBaseline, kAvx2, kAvx512 };

const char* gemm_isa_name(GemmIsa isa);

/// Whether this CPU and its OS run the clone.
bool gemm_isa_supported(GemmIsa isa);

/// gemm_blocked on a given clone, for the tests that compare clones; raises
/// ca3dmm::Error for a clone the host does not support. Library code calls
/// gemm_blocked.
template <typename T>
void gemm_blocked_isa(GemmIsa isa, bool trans_a, bool trans_b, i64 m, i64 n,
                      i64 k, T alpha, const T* a, i64 lda, const T* b, i64 ldb,
                      T* c, i64 ldc);

}  // namespace detail

/// Dense (tight leading dimension) convenience overloads.
template <typename T>
void gemm_ref(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
              const T* a, const T* b, T* c) {
  gemm_ref(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
           trans_b ? k : n, c, n);
}

template <typename T>
void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
                  const T* a, const T* b, T* c) {
  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
               trans_b ? k : n, c, n);
}

/// Convenience: C += A * B on Matrix objects (no transposes).
template <typename T>
void gemm_acc(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c) {
  CA_REQUIRE(a.cols() == b.rows() && a.rows() == c.rows() &&
                 b.cols() == c.cols(),
             "gemm shape mismatch: (%lld x %lld)(%lld x %lld) -> (%lld x %lld)",
             static_cast<long long>(a.rows()), static_cast<long long>(a.cols()),
             static_cast<long long>(b.rows()), static_cast<long long>(b.cols()),
             static_cast<long long>(c.rows()), static_cast<long long>(c.cols()));
  gemm_blocked<T>(false, false, a.rows(), b.cols(), a.cols(), T{1}, a.data(),
                  b.data(), c.data());
}

/// Flops of one GEMM call (multiply + add).
inline double gemm_flops(i64 m, i64 n, i64 k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Bytes of operand/result data touched by one GEMM call (used by the GPU
/// device model for PCIe staging cost).
inline double gemm_bytes(i64 m, i64 n, i64 k, i64 esize) {
  return static_cast<double>(esize) *
         (static_cast<double>(m) * k + static_cast<double>(k) * n +
          2.0 * static_cast<double>(m) * n);
}

/// Bytes of the A/B panels only — what a multi-step engine stages per call
/// when the C accumulator stays resident on the device across steps.
inline double gemm_operand_bytes(i64 m, i64 n, i64 k, i64 esize) {
  return static_cast<double>(esize) *
         (static_cast<double>(m) * k + static_cast<double>(k) * n);
}

/// One-time staging of the C block (download + upload).
inline double gemm_result_bytes(i64 m, i64 n, i64 esize) {
  return 2.0 * static_cast<double>(esize) * static_cast<double>(m) *
         static_cast<double>(n);
}

}  // namespace ca3dmm
