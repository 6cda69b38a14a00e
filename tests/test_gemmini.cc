/**
 * @file
 * Tests for the Gemmini-class accelerator model: tiling, timing, and
 * functional GEMM, including property-style sweeps over shapes.
 */

#include <gtest/gtest.h>

#include "gemmini/gemmini.hh"

using namespace rose;
using namespace rose::gemmini;

TEST(Gemmini, DefaultConfigMatchesPaper)
{
    GemminiConfig c;
    EXPECT_EQ(c.meshRows, 4);
    EXPECT_EQ(c.meshCols, 4);
    EXPECT_EQ(c.elemBytes, 4); // FP32
    EXPECT_EQ(c.scratchpadBytes, 256u * 1024u);
    EXPECT_EQ(c.accumulatorBytes, 64u * 1024u);
    EXPECT_DOUBLE_EQ(c.busBytesPerCycle, 16.0); // 128-bit bus
    EXPECT_EQ(c.macsPerCycle(), 16);
}

TEST(Gemmini, TileShapeFitsBudgets)
{
    Gemmini g;
    const GemminiConfig &c = g.config();
    int tm, tk, tn;
    g.tileShape(2500, 288, 64, tm, tk, tn);
    EXPECT_GT(tm, 0);
    EXPECT_GT(tk, 0);
    EXPECT_GT(tn, 0);
    // Output tile fits the accumulator.
    EXPECT_LE(uint64_t(tm) * tn * c.elemBytes, c.accumulatorBytes);
    // A+B tiles fit half the scratchpad (double buffering).
    EXPECT_LE((uint64_t(tm) * tk + uint64_t(tk) * tn) * c.elemBytes,
              c.scratchpadBytes);
}

TEST(Gemmini, TimingScalesWithWork)
{
    Gemmini g;
    GemmCost small = g.gemmCycles(64, 64, 64);
    GemmCost big = g.gemmCycles(256, 256, 256);
    // 64x work should cost far more than 8x cycles but not more
    // than ~64x + overheads.
    EXPECT_GT(big.totalCycles, 8 * small.totalCycles);
    EXPECT_LT(big.totalCycles, 200 * small.totalCycles);
    EXPECT_EQ(big.macs, uint64_t(256) * 256 * 256);
}

TEST(Gemmini, LargeGemmUtilizationHigh)
{
    // Compute-bound shape: utilization should approach peak.
    Gemmini g;
    GemmCost c = g.gemmCycles(2048, 512, 512);
    EXPECT_GT(c.utilization(g.config()), 0.6);
    EXPECT_LE(c.utilization(g.config()), 1.0);
}

TEST(Gemmini, SkinnyGemmUtilizationLow)
{
    // A 1-row GEMM (dense layer) cannot fill the mesh.
    Gemmini g;
    GemmCost c = g.gemmCycles(1, 256, 3);
    EXPECT_LT(c.utilization(g.config()), 0.25);
}

TEST(Gemmini, MemoryBoundShapeChargesBus)
{
    // Huge K with tiny M/N moves lots of data per MAC.
    Gemmini g;
    GemmCost c = g.gemmCycles(4, 65536, 4);
    EXPECT_GT(c.memoryCycles, 0u);
    // Bus time for A+B at 16 B/cycle is a hard lower bound.
    uint64_t bytes = (uint64_t(4) * 65536 + uint64_t(65536) * 4) * 4;
    EXPECT_GE(c.totalCycles, Cycles(double(bytes) / 16.0 * 0.9));
}

TEST(Gemmini, FunctionalMatmulCorrect)
{
    Gemmini g;
    // 2x3 * 3x2.
    std::vector<float> a{1, 2, 3, 4, 5, 6};
    std::vector<float> b{7, 8, 9, 10, 11, 12};
    std::vector<float> c;
    g.matmul(2, 3, 2, a, b, c);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_FLOAT_EQ(c[0], 58.0f);  // 1*7+2*9+3*11
    EXPECT_FLOAT_EQ(c[1], 64.0f);  // 1*8+2*10+3*12
    EXPECT_FLOAT_EQ(c[2], 139.0f);
    EXPECT_FLOAT_EQ(c[3], 154.0f);
}

// Property sweep: for every shape, invariants of the cost model hold.
class GemminiShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemminiShapeProperty, CostInvariants)
{
    auto [m, k, n] = GetParam();
    Gemmini g;
    GemmCost c = g.gemmCycles(m, k, n);
    // MAC count is exact.
    EXPECT_EQ(c.macs, uint64_t(m) * k * n);
    // Total cycles at least the compute lower bound at peak.
    EXPECT_GE(c.totalCycles,
              c.macs / uint64_t(g.config().macsPerCycle()));
    // Utilization bounded by 1.
    EXPECT_LE(c.utilization(g.config()), 1.0 + 1e-9);
    // Data moved at least covers reading A and B once and writing C.
    uint64_t min_bytes =
        (uint64_t(m) * k + uint64_t(k) * n + uint64_t(m) * n) * 4;
    EXPECT_GE(c.bytesMoved, min_bytes);
    EXPECT_GT(c.tiles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemminiShapeProperty,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(4, 4, 4),
                      std::make_tuple(5, 7, 3),
                      std::make_tuple(100, 288, 32),
                      std::make_tuple(2500, 288, 64),
                      std::make_tuple(625, 1152, 128),
                      std::make_tuple(1, 256, 3),
                      std::make_tuple(1024, 16, 1024)));

TEST(Gemmini, BiggerScratchpadNeverSlower)
{
    // Monotonicity: doubling the scratchpad cannot hurt the model.
    GemminiConfig small;
    GemminiConfig big;
    big.scratchpadBytes *= 2;
    big.accumulatorBytes *= 2;
    Gemmini gs(small), gb(big);
    for (auto [m, k, n] : {std::tuple<int, int, int>{2500, 288, 64},
                           {625, 1152, 128}, {169, 2304, 256}}) {
        EXPECT_LE(gb.gemmCycles(m, k, n).totalCycles,
                  gs.gemmCycles(m, k, n).totalCycles * 1.02);
    }
}

TEST(Gemmini, WiderBusHelpsMemoryBoundShapes)
{
    GemminiConfig narrow;
    narrow.busBytesPerCycle = 4.0;
    GemminiConfig wide;
    wide.busBytesPerCycle = 32.0;
    Gemmini gn(narrow), gw(wide);
    GemmCost cn = gn.gemmCycles(4, 65536, 4);
    GemmCost cw = gw.gemmCycles(4, 65536, 4);
    EXPECT_LT(cw.totalCycles, cn.totalCycles);
}
