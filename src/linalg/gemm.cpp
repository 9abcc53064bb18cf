#include "linalg/gemm.hpp"

#include <algorithm>
#include <memory>

// The clones need GCC's x86 function-target attributes; elsewhere only the
// baseline clone is built.
#if defined(__x86_64__) || defined(__i386__)
#define CA_GEMM_X86_CLONES 1
#endif

namespace ca3dmm {

namespace {

// Cache blocking parameters (elements). MC x KC panel of A and KC x NC panel
// of B stay resident while the micro-kernel streams C. kKC fixes the order in
// which each C element accumulates (see gemm.hpp), so every clone shares it.
constexpr i64 kMC = 128;
constexpr i64 kKC = 256;
constexpr i64 kNC = 512;
// The widest micro-tile any clone uses; PackScratch is sized for it.
constexpr i64 kMaxMR = 4;
constexpr i64 kMaxNR = 16;

/// Reads op(A)(i, p): A stored row-major with row stride lda.
template <typename T>
inline T at_a(const T* a, i64 lda, bool ta, i64 i, i64 p) {
  return ta ? a[p * lda + i] : a[i * lda + p];
}

template <typename T>
inline T at_b(const T* b, i64 ldb, bool tb, i64 p, i64 j) {
  return tb ? b[j * ldb + p] : b[p * ldb + j];
}

/// Packs op(A)(i0:i0+mc, p0:p0+kc) into column-of-row-tiles order: tile rows
/// of kMR, contiguous in p.
template <i64 kMR, typename T>
[[gnu::always_inline]] inline void pack_a(const T* a, i64 lda, bool ta, i64 i0,
                                          i64 mc, i64 p0, i64 kc, T* pa) {
  for (i64 it = 0; it < mc; it += kMR) {
    const i64 mr = std::min(kMR, mc - it);
    for (i64 p = 0; p < kc; ++p) {
      for (i64 r = 0; r < mr; ++r)
        *pa++ = at_a(a, lda, ta, i0 + it + r, p0 + p);
      for (i64 r = mr; r < kMR; ++r) *pa++ = T{};
    }
  }
}

template <i64 kNR, typename T>
[[gnu::always_inline]] inline void pack_b(const T* b, i64 ldb, bool tb, i64 p0,
                                          i64 kc, i64 j0, i64 nc, T* pb) {
  for (i64 jt = 0; jt < nc; jt += kNR) {
    const i64 nr = std::min(kNR, nc - jt);
    for (i64 p = 0; p < kc; ++p) {
      for (i64 r = 0; r < nr; ++r)
        *pb++ = at_b(b, ldb, tb, p0 + p, j0 + jt + r);
      for (i64 r = nr; r < kNR; ++r) *pb++ = T{};
    }
  }
}

/// kMR x kNR micro-kernel on packed panels; accumulates into a local tile
/// and adds the valid part into C. The panels never alias C, so __restrict
/// lets the compiler keep the accumulators in registers and vectorize the
/// fully unrolled kMR x kNR update.
template <i64 kMR, i64 kNR, typename T>
[[gnu::always_inline]] inline void micro_kernel(i64 kc, T alpha,
                                                const T* __restrict pa,
                                                const T* __restrict pb,
                                                T* __restrict c, i64 ldc,
                                                i64 mr, i64 nr) {
  T acc[kMR][kNR] = {};
  for (i64 p = 0; p < kc; ++p) {
    const T* __restrict a = pa + p * kMR;
    const T* __restrict b = pb + p * kNR;
#pragma GCC unroll 4
    for (i64 i = 0; i < kMR; ++i) {
      const T ai = a[i];
#pragma GCC unroll 16
      for (i64 j = 0; j < kNR; ++j) acc[i][j] += ai * b[j];
    }
  }
  for (i64 i = 0; i < mr; ++i)
    for (i64 j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[i][j];
}

/// Thread-local packing scratch, reused across gemm_blocked calls: each
/// Cannon step (and each aggregated multi-shift flush) calls gemm_blocked
/// once, and with many simmpi ranks per process the per-call allocation of
/// two panel buffers showed up as allocator contention. Sized for the
/// widest micro-tile, so one buffer serves every clone. Left uninitialized:
/// packing writes every element the kernel reads (edge tiles are padded
/// with zeros), so zero-filling 1.25 MiB per new thread would be waste.
template <typename T>
struct PackScratch {
  std::unique_ptr<T[]> pa, pb;
  static PackScratch& get() {
    static thread_local PackScratch s{
        std::unique_ptr<T[]>(new T[static_cast<size_t>(
            ((kMC + kMaxMR - 1) / kMaxMR) * kMaxMR * kKC)]),
        std::unique_ptr<T[]>(new T[static_cast<size_t>(
            ((kNC + kMaxNR - 1) / kMaxNR) * kMaxNR * kKC)])};
    return s;
  }
};

/// The packed, cache-blocked loop on a kMR x kNR micro-tile. Inlined into
/// each clone below, so every clone is this one source compiled for its ISA.
template <i64 kMR, i64 kNR, typename T>
[[gnu::always_inline]] inline void blocked(bool trans_a, bool trans_b, i64 m,
                                           i64 n, i64 k, T alpha, const T* a,
                                           i64 lda, const T* b, i64 ldb, T* c,
                                           i64 ldc, T* pa, T* pb) {
  static_assert(kMR <= kMaxMR && kNR <= kMaxNR, "tile wider than PackScratch");
  for (i64 j0 = 0; j0 < n; j0 += kNC) {
    const i64 nc = std::min(kNC, n - j0);
    for (i64 p0 = 0; p0 < k; p0 += kKC) {
      const i64 kc = std::min(kKC, k - p0);
      pack_b<kNR>(b, ldb, trans_b, p0, kc, j0, nc, pb);
      for (i64 i0 = 0; i0 < m; i0 += kMC) {
        const i64 mc = std::min(kMC, m - i0);
        pack_a<kMR>(a, lda, trans_a, i0, mc, p0, kc, pa);
        for (i64 jt = 0; jt < nc; jt += kNR) {
          const i64 nr = std::min(kNR, nc - jt);
          const T* pbt = pb + (jt / kNR) * kNR * kc;
          for (i64 it = 0; it < mc; it += kMR) {
            const i64 mr = std::min(kMR, mc - it);
            const T* pat = pa + (it / kMR) * kMR * kc;
            micro_kernel<kMR, kNR>(kc, alpha, pat, pbt,
                                   c + (i0 + it) * ldc + (j0 + jt), ldc, mr,
                                   nr);
          }
        }
      }
    }
  }
}

// The clones. Each is the same template, so they differ only in the
// instructions the compiler may pick and in the micro-tile width.

template <typename T>
void blocked_baseline(bool ta, bool tb, i64 m, i64 n, i64 k, T alpha,
                      const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc,
                      T* pa, T* pb) {
  blocked<4, 8>(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc, pa, pb);
}

#if CA_GEMM_X86_CLONES
template <typename T>
[[gnu::target("avx2")]] void blocked_avx2(bool ta, bool tb, i64 m, i64 n,
                                          i64 k, T alpha, const T* a, i64 lda,
                                          const T* b, i64 ldb, T* c, i64 ldc,
                                          T* pa, T* pb) {
  blocked<4, 8>(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc, pa, pb);
}

template <typename T>
[[gnu::target("avx512f,prefer-vector-width=512")]] void blocked_avx512(
    bool ta, bool tb, i64 m, i64 n, i64 k, T alpha, const T* a, i64 lda,
    const T* b, i64 ldb, T* c, i64 ldc, T* pa, T* pb) {
  blocked<4, 16>(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc, pa, pb);
}
#endif

/// The widest clone this CPU (and its OS) runs, chosen on first use.
detail::GemmIsa host_isa() {
  static const detail::GemmIsa isa = [] {
    using detail::GemmIsa;
    for (GemmIsa i : {GemmIsa::kAvx512, GemmIsa::kAvx2})
      if (detail::gemm_isa_supported(i)) return i;
    return GemmIsa::kBaseline;
  }();
  return isa;
}

template <typename T>
void run_clone(detail::GemmIsa isa, bool trans_a, bool trans_b, i64 m, i64 n,
               i64 k, T alpha, const T* a, i64 lda, const T* b, i64 ldb, T* c,
               i64 ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  PackScratch<T>& s = PackScratch<T>::get();
  T* pa = s.pa.get();
  T* pb = s.pb.get();
  switch (isa) {
#if CA_GEMM_X86_CLONES
    case detail::GemmIsa::kAvx512:
      return blocked_avx512(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                            c, ldc, pa, pb);
    case detail::GemmIsa::kAvx2:
      return blocked_avx2(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
                          ldc, pa, pb);
#endif
    default:
      return blocked_baseline(trans_a, trans_b, m, n, k, alpha, a, lda, b,
                              ldb, c, ldc, pa, pb);
  }
}

}  // namespace

namespace detail {

const char* gemm_isa_name(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx2:
      return "avx2";
    case GemmIsa::kAvx512:
      return "avx512";
    case GemmIsa::kBaseline:
      break;
  }
  return "baseline";
}

bool gemm_isa_supported(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kBaseline:
      return true;
#if CA_GEMM_X86_CLONES
    case GemmIsa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case GemmIsa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

template <typename T>
void gemm_blocked_isa(GemmIsa isa, bool trans_a, bool trans_b, i64 m, i64 n,
                      i64 k, T alpha, const T* a, i64 lda, const T* b, i64 ldb,
                      T* c, i64 ldc) {
  CA_REQUIRE(gemm_isa_supported(isa), "gemm clone %s is not supported here",
             gemm_isa_name(isa));
  run_clone(isa, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

}  // namespace detail

const char* gemm_isa_name() { return detail::gemm_isa_name(host_isa()); }

template <typename T>
void gemm_ref(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
              const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc) {
  for (i64 i = 0; i < m; ++i)
    for (i64 p = 0; p < k; ++p) {
      const T ai = at_a(a, lda, trans_a, i, p);
      if (ai == T{}) continue;
      for (i64 j = 0; j < n; ++j)
        c[i * ldc + j] += alpha * ai * at_b(b, ldb, trans_b, p, j);
    }
}

template <typename T>
void gemm_blocked(bool trans_a, bool trans_b, i64 m, i64 n, i64 k, T alpha,
                  const T* a, i64 lda, const T* b, i64 ldb, T* c, i64 ldc) {
  run_clone(host_isa(), trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
            ldc);
}

template void gemm_ref<float>(bool, bool, i64, i64, i64, float, const float*,
                              i64, const float*, i64, float*, i64);
template void gemm_ref<double>(bool, bool, i64, i64, i64, double, const double*,
                               i64, const double*, i64, double*, i64);
template void gemm_blocked<float>(bool, bool, i64, i64, i64, float,
                                  const float*, i64, const float*, i64, float*,
                                  i64);
template void gemm_blocked<double>(bool, bool, i64, i64, i64, double,
                                   const double*, i64, const double*, i64,
                                   double*, i64);
template void detail::gemm_blocked_isa<float>(detail::GemmIsa, bool, bool, i64,
                                              i64, i64, float, const float*,
                                              i64, const float*, i64, float*,
                                              i64);
template void detail::gemm_blocked_isa<double>(detail::GemmIsa, bool, bool,
                                               i64, i64, i64, double,
                                               const double*, i64,
                                               const double*, i64, double*,
                                               i64);

}  // namespace ca3dmm
