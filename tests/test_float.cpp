// Single-precision path through the full stack: collectives, redistribution,
// the 2-D engines, and both the CA3DMM and COSMA-like drivers are templated
// on the element type; exercise the float instantiations end to end.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/cosma_like.hpp"
#include "core/ca3dmm.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "simmpi/cluster.hpp"

namespace ca3dmm {
namespace {

using simmpi::Cluster;
using simmpi::Comm;
using simmpi::Machine;

TEST(Float, Ca3dmmEndToEnd) {
  const i64 m = 36, n = 28, k = 44;
  const int P = 9;
  Matrix<float> a(m, k), b(k, n), c_ref(m, n);
  a.fill_random(3);
  b.fill_random(4);
  gemm_ref<float>(false, false, m, n, k, 1.0f, a.data(), b.data(),
                  c_ref.data());
  const BlockLayout lay_a = BlockLayout::col_1d(m, k, P);
  const BlockLayout lay_b = BlockLayout::row_1d(k, n, P);
  const BlockLayout lay_c = BlockLayout::col_1d(m, n, P);
  const Ca3dmmPlan plan = Ca3dmmPlan::make(m, n, k, P);
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    std::vector<float> al, bl;
    fill_local(lay_a, world.rank(), 3, al);
    fill_local(lay_b, world.rank(), 4, bl);
    std::vector<float> cb(
        static_cast<size_t>(lay_c.local_size(world.rank())));
    ca3dmm_multiply<float>(world, plan, false, false, lay_a, al.data(), lay_b,
                           bl.data(), lay_c, cb.data());
    i64 pos = 0;
    for (const Rect& r : lay_c.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_NEAR(cb[static_cast<size_t>(pos++)], c_ref(i, j),
                      1e-4f * static_cast<float>(k));
  });
}

TEST(Float, CosmaEndToEnd) {
  const i64 m = 24, n = 24, k = 48;
  const int P = 8;
  Matrix<float> a(m, k), b(k, n), c_ref(m, n);
  a.fill_random(5);
  b.fill_random(6);
  gemm_ref<float>(false, false, m, n, k, 1.0f, a.data(), b.data(),
                  c_ref.data());
  const BlockLayout lay_a = BlockLayout::col_1d(m, k, P);
  const BlockLayout lay_b = BlockLayout::col_1d(k, n, P);
  const BlockLayout lay_c = BlockLayout::col_1d(m, n, P);
  const CosmaPlan plan = CosmaPlan::make(m, n, k, P);
  Cluster cl(P, Machine::unit_test());
  cl.run([&](Comm& world) {
    std::vector<float> al, bl;
    fill_local(lay_a, world.rank(), 5, al);
    fill_local(lay_b, world.rank(), 6, bl);
    std::vector<float> cb(
        static_cast<size_t>(lay_c.local_size(world.rank())));
    run_plan<float>(world, plan, false, false, lay_a, al.data(), lay_b,
                    bl.data(), lay_c, cb.data());
    i64 pos = 0;
    for (const Rect& r : lay_c.rects_of(world.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_NEAR(cb[static_cast<size_t>(pos++)], c_ref(i, j),
                      1e-4f * static_cast<float>(k));
  });
}

TEST(Float, ReductionUsesFloatArithmetic) {
  // The typed reduce path must sum floats (dtype plumbed through correctly).
  Cluster cl(4, Machine::unit_test());
  cl.run([](Comm& c) {
    std::vector<i64> counts{1, 1, 1, 1};
    const float s[4] = {0.25f, 0.25f, 0.25f, 0.25f};
    float r = 0;
    c.reduce_scatter(s, &r, counts);
    EXPECT_FLOAT_EQ(r, 1.0f);
  });
}

TEST(Float, RedistributeFloat) {
  const BlockLayout src = BlockLayout::row_1d(10, 6, 4);
  const BlockLayout dst = BlockLayout::col_1d(10, 6, 4);
  Cluster cl(4, Machine::unit_test());
  cl.run([&](Comm& c) {
    std::vector<float> in, out(static_cast<size_t>(dst.local_size(c.rank())));
    fill_local(src, c.rank(), 9, in);
    redistribute<float>(c, src, in.data(), dst, out.data());
    i64 pos = 0;
    for (const Rect& r : dst.rects_of(c.rank()))
      for (i64 i = r.r.lo; i < r.r.hi; ++i)
        for (i64 j = r.c.lo; j < r.c.hi; ++j)
          ASSERT_EQ(out[static_cast<size_t>(pos++)],
                    matrix_entry<float>(9, i, j));
  });
}

}  // namespace
}  // namespace ca3dmm
