// Blocked GEMM kernel vs the triple-loop reference, across odd shapes,
// transposes, alpha values, and accumulation; and the kernel's ISA clones
// against each other, bit for bit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"

namespace ca3dmm {
namespace {

template <typename T>
void fill(std::vector<T>& v, std::uint64_t seed) {
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = matrix_entry<T>(seed, static_cast<i64>(i), 7);
}

using Shape = std::tuple<int, int, int, bool, bool>;

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, BlockedMatchesReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  std::vector<double> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  fill(a, 1);
  fill(b, 2);
  std::vector<double> c_ref(static_cast<size_t>(m * n)),
      c_blk(static_cast<size_t>(m * n));
  fill(c_ref, 3);
  c_blk = c_ref;  // same initial accumulator
  gemm_ref<double>(ta, tb, m, n, k, 1.5, a.data(), b.data(), c_ref.data());
  gemm_blocked<double>(ta, tb, m, n, k, 1.5, a.data(), b.data(), c_blk.data());
  double md = 0;
  for (size_t i = 0; i < c_ref.size(); ++i)
    md = std::max(md, std::fabs(c_ref[i] - c_blk[i]));
  EXPECT_LT(md, 1e-12 * k) << "m=" << m << " n=" << n << " k=" << k
                           << " ta=" << ta << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Combine(::testing::Values(1, 3, 17, 64, 130),
                       ::testing::Values(1, 5, 33, 129),
                       ::testing::Values(1, 7, 64, 260),
                       ::testing::Bool(), ::testing::Bool()));

TEST(Gemm, FloatKernel) {
  const int m = 31, n = 29, k = 41;
  std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  fill(a, 4);
  fill(b, 5);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f),
      c2(static_cast<size_t>(m * n), 0.0f);
  gemm_ref<float>(false, false, m, n, k, 1.0f, a.data(), b.data(), c1.data());
  gemm_blocked<float>(false, false, m, n, k, 1.0f, a.data(), b.data(),
                      c2.data());
  for (size_t i = 0; i < c1.size(); ++i) ASSERT_NEAR(c1[i], c2[i], 1e-4f);
}

TEST(Gemm, ZeroDimensionsAreNoOps) {
  double a = 1, b = 1, c = 5;
  gemm_blocked<double>(false, false, 0, 1, 1, 1.0, &a, &b, &c);
  gemm_blocked<double>(false, false, 1, 1, 0, 1.0, &a, &b, &c);
  EXPECT_DOUBLE_EQ(c, 5.0);
}

TEST(Gemm, AccumulatesIntoC) {
  const int m = 8, n = 8, k = 8;
  std::vector<double> a(64, 1.0), b(64, 1.0), c(64, 10.0);
  gemm_blocked<double>(false, false, m, n, k, 1.0, a.data(), b.data(),
                       c.data());
  for (double v : c) EXPECT_DOUBLE_EQ(v, 18.0);
}

TEST(Gemm, MatrixHelper) {
  Matrix<double> a(5, 7), b(7, 3), c(5, 3), c_ref(5, 3);
  a.fill_random(11);
  b.fill_random(12);
  gemm_acc(a, b, c);
  gemm_ref<double>(false, false, 5, 3, 7, 1.0, a.data(), b.data(),
                   c_ref.data());
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-13);
}

TEST(Gemm, FlopAndByteCounts) {
  EXPECT_DOUBLE_EQ(gemm_flops(10, 20, 30), 12000.0);
  EXPECT_DOUBLE_EQ(gemm_bytes(10, 20, 30, 8),
                   8.0 * (300 + 600 + 2 * 200));
}

/// Runs every (shape, transpose pair) case on `isa`, alpha = 1.5, into a
/// non-zero C, with leading dimensions wider than the operands; returns all
/// C blocks concatenated. isa = nullopt runs gemm_blocked's own dispatch.
template <typename T>
std::vector<T> clone_cases(std::optional<detail::GemmIsa> isa) {
  // The P=3072 Fig. 3 block shapes (60x60x5, 60x60x80), k crossing the
  // kKC = 256 panel (257, 513), n across kNC = 512 and off multiples of 16.
  const int shapes[][3] = {{60, 60, 5},   {60, 60, 80}, {37, 23, 257},
                           {5, 130, 513}, {131, 33, 19}, {1, 1, 1},
                           {17, 515, 64}, {64, 100, 300}};
  std::vector<T> out;
  for (const auto& s : shapes) {
    const i64 m = s[0], n = s[1], k = s[2];
    for (bool ta : {false, true})
      for (bool tb : {false, true}) {
        const i64 lda = (ta ? m : k) + 3, ldb = (tb ? k : n) + 5, ldc = n + 2;
        std::vector<T> a(static_cast<size_t>((ta ? k : m) * lda)),
            b(static_cast<size_t>((tb ? n : k) * ldb)),
            c(static_cast<size_t>(m * ldc));
        fill(a, 21);
        fill(b, 22);
        fill(c, 23);
        if (isa)
          detail::gemm_blocked_isa<T>(*isa, ta, tb, m, n, k, T(1.5), a.data(),
                                      lda, b.data(), ldb, c.data(), ldc);
        else
          gemm_blocked<T>(ta, tb, m, n, k, T(1.5), a.data(), lda, b.data(),
                          ldb, c.data(), ldc);
        out.insert(out.end(), c.begin(), c.end());
      }
  }
  return out;
}

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

// Every clone the host runs gives C bit for bit equal to the baseline clone
// (gemm.hpp, "Bit identity"). Fails if the kernel's multiply-adds get fused.
TEST(GemmIsa, ClonesAreBitIdenticalToBaseline) {
  using detail::GemmIsa;
  std::printf("gemm_blocked dispatches to the %s clone\n", gemm_isa_name());
  const auto base_d = clone_cases<double>(GemmIsa::kBaseline);
  const auto base_f = clone_cases<float>(GemmIsa::kBaseline);
  EXPECT_TRUE(same_bits(clone_cases<double>(std::nullopt), base_d))
      << "dispatched clone " << gemm_isa_name();
  EXPECT_TRUE(same_bits(clone_cases<float>(std::nullopt), base_f))
      << "dispatched clone " << gemm_isa_name();
  std::string missing;
  for (GemmIsa isa : {GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    const char* name = detail::gemm_isa_name(isa);
    if (!detail::gemm_isa_supported(isa)) {
      missing += std::string(missing.empty() ? "" : ", ") + name;
      continue;
    }
    EXPECT_TRUE(same_bits(clone_cases<double>(isa), base_d)) << name << " double";
    EXPECT_TRUE(same_bits(clone_cases<float>(isa), base_f)) << name << " float";
  }
  if (!missing.empty()) GTEST_SKIP() << "clones this CPU lacks: " << missing;
}

TEST(MatrixTest, RandomFillConsistentAcrossBlocks) {
  // A block filled with global offsets matches the corresponding region of a
  // globally filled matrix — the property distributed tests rely on.
  Matrix<double> global(10, 10);
  global.fill_random(99);
  Matrix<double> block(4, 3);
  block.fill_random(99, 5, 6);
  for (i64 i = 0; i < 4; ++i)
    for (i64 j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(block(i, j), global(5 + i, 6 + j));
}

TEST(MatrixTest, CopyBlock) {
  Matrix<double> src(6, 6), dst(4, 4);
  src.fill_random(1);
  copy_block(src, 1, 2, dst, 0, 0, 3, 3);
  for (i64 i = 0; i < 3; ++i)
    for (i64 j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(dst(i, j), src(1 + i, 2 + j));
}

}  // namespace
}  // namespace ca3dmm
