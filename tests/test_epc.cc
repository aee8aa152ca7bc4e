/**
 * @file
 * Tests for the analytic EPC paging-cost model (Section IV-A).
 */

#include <gtest/gtest.h>

#include "mem/epc.hh"
#include "util/units.hh"

using namespace cllm;
using namespace cllm::mem;

TEST(EpcCostModel, FreeWhenWorkingSetFits)
{
    EpcCostModel m;
    EXPECT_EQ(m.scanMissRatio(32ULL * GiB, 64ULL * GiB), 0.0);
    EXPECT_EQ(m.extraSecondsPerByte(32ULL * GiB, 64ULL * GiB), 0.0);
}

TEST(EpcCostModel, CliffBeyondEpc)
{
    EpcCostModel m;
    const double just_over = m.scanMissRatio(65ULL * GiB, 64ULL * GiB);
    const double far_over = m.scanMissRatio(256ULL * GiB, 64ULL * GiB);
    EXPECT_GT(just_over, 0.05);
    EXPECT_GT(far_over, just_over);
    EXPECT_LE(far_over, 1.0);
}

TEST(EpcCostModel, ExtraCostGrowsWithPressure)
{
    EpcCostModel m;
    EXPECT_LT(m.extraSecondsPerByte(70ULL * GiB, 64ULL * GiB),
              m.extraSecondsPerByte(200ULL * GiB, 64ULL * GiB));
}

TEST(EpcCostModelDeath, ZeroEpcFatal)
{
    EpcCostModel m;
    EXPECT_DEATH(m.scanMissRatio(1, 0), "zero EPC");
}
