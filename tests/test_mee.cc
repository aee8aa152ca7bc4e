/**
 * @file
 * Tests for the functional memory-encryption engine: roundtrips,
 * confidentiality (ciphertext differs), integrity (tamper detection on
 * data, counters, and replay) and tree construction.
 */

#include <gtest/gtest.h>

#include "crypto/sha256.hh"
#include "mem/mee_tree.hh"

using namespace cllm;
using namespace cllm::mem;

namespace {

CacheLine
patternLine(std::uint8_t seed)
{
    CacheLine l;
    for (std::size_t i = 0; i < l.size(); ++i)
        l[i] = static_cast<std::uint8_t>(seed + i * 3);
    return l;
}

crypto::Digest256
testKey()
{
    return crypto::sha256(std::string("mee-test-key"));
}

} // namespace

TEST(MeeTree, WriteReadRoundtrip)
{
    PhysMem mem(64);
    MeeTree mee(mem, testKey());
    const CacheLine data = patternLine(7);
    mee.writeLine(3, data);
    const auto r = mee.readLine(3);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.data, data);
}

TEST(MeeTree, FreshLinesVerifyAsZero)
{
    PhysMem mem(16);
    MeeTree mee(mem, testKey());
    const auto r = mee.readLine(0);
    ASSERT_TRUE(r.ok);
    for (std::uint8_t b : r.data)
        EXPECT_EQ(b, 0);
}

TEST(MeeTree, CiphertextDiffersFromPlaintext)
{
    PhysMem mem(16);
    MeeTree mee(mem, testKey());
    const CacheLine data = patternLine(1);
    mee.writeLine(0, data);
    EXPECT_NE(mem.readLine(0), data);
}

TEST(MeeTree, SamePlaintextDifferentLinesDifferentCiphertext)
{
    PhysMem mem(16);
    MeeTree mee(mem, testKey());
    const CacheLine data = patternLine(9);
    mee.writeLine(0, data);
    mee.writeLine(1, data);
    EXPECT_NE(mem.readLine(0), mem.readLine(1));
}

TEST(MeeTree, RewriteChangesCiphertext)
{
    // Version counters must change the keystream on rewrite of the
    // same data to the same address.
    PhysMem mem(16);
    MeeTree mee(mem, testKey());
    const CacheLine data = patternLine(4);
    mee.writeLine(5, data);
    const CacheLine c1 = mem.readLine(5);
    mee.writeLine(5, data);
    const CacheLine c2 = mem.readLine(5);
    EXPECT_NE(c1, c2);
    const auto r = mee.readLine(5);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.data, data);
}

TEST(MeeTree, DetectsCiphertextTampering)
{
    PhysMem mem(16);
    MeeTree mee(mem, testKey());
    mee.writeLine(2, patternLine(3));
    mem.raw()[2 * kLineBytes + 10] ^= 0x80; // DIMM interposer attack
    const auto r = mee.readLine(2);
    EXPECT_FALSE(r.ok);
    EXPECT_GE(mee.stats().integrityFailures, 1u);
}

TEST(MeeTree, DetectsCounterReplay)
{
    PhysMem mem(64);
    MeeTree mee(mem, testKey());
    mee.writeLine(7, patternLine(1));
    mee.writeLine(7, patternLine(2));
    // Roll the leaf version back (replay attempt).
    mee.tamperCounter(0, 7, 1);
    const auto r = mee.readLine(7);
    EXPECT_FALSE(r.ok);
}

TEST(MeeTree, DetectsInternalNodeTampering)
{
    PhysMem mem(512);
    MeeTree mee(mem, testKey());
    ASSERT_GE(mee.depth(), 2u);
    mee.writeLine(100, patternLine(5));
    mee.tamperCounter(1, 100 / 8, 999);
    EXPECT_FALSE(mee.readLine(100).ok);
}

TEST(MeeTree, UntamperedNeighborsStillVerify)
{
    PhysMem mem(64);
    MeeTree mee(mem, testKey());
    mee.writeLine(0, patternLine(1));
    mee.writeLine(63, patternLine(2));
    mem.raw()[0] ^= 0x01;
    EXPECT_FALSE(mee.readLine(0).ok);
    EXPECT_TRUE(mee.readLine(63).ok);
}

TEST(MeeTree, DepthGrowsWithMemory)
{
    PhysMem small(8), big(4096);
    MeeTree ms(small, testKey());
    MeeTree mb(big, testKey());
    EXPECT_LT(ms.depth(), mb.depth());
    // 4096 lines at arity 8: 4096 -> 512 -> 64 -> 8 = 4 levels.
    EXPECT_EQ(mb.depth(), 4u);
}

TEST(MeeTree, ManyLinesStressRoundtrip)
{
    PhysMem mem(1024);
    MeeTree mee(mem, testKey());
    for (std::size_t i = 0; i < 1024; i += 17)
        mee.writeLine(i, patternLine(static_cast<std::uint8_t>(i)));
    for (std::size_t i = 0; i < 1024; i += 17) {
        const auto r = mee.readLine(i);
        ASSERT_TRUE(r.ok) << "line " << i;
        EXPECT_EQ(r.data, patternLine(static_cast<std::uint8_t>(i)));
    }
}

TEST(MeeTree, StatsCountActivity)
{
    PhysMem mem(64);
    MeeTree mee(mem, testKey());
    mee.clearStats();
    mee.writeLine(0, patternLine(0));
    mee.readLine(0);
    const MeeStats &s = mee.stats();
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.reads, 1u);
    EXPECT_GE(s.nodesTouched, 2 * mee.depth());
    EXPECT_GE(s.macChecks, mee.depth() + 1);
}

TEST(MeeTree, DifferentKeysDifferentCiphertext)
{
    PhysMem m1(16), m2(16);
    MeeTree a(m1, crypto::sha256(std::string("k1")));
    MeeTree b(m2, crypto::sha256(std::string("k2")));
    a.writeLine(0, patternLine(6));
    b.writeLine(0, patternLine(6));
    EXPECT_NE(m1.readLine(0), m2.readLine(0));
}

TEST(MeeTreeDeath, OutOfRangePanics)
{
    PhysMem mem(8);
    MeeTree mee(mem, testKey());
    EXPECT_DEATH(mee.readLine(8), "out of range");
    EXPECT_DEATH(mee.writeLine(9, CacheLine{}), "out of range");
}

TEST(PhysMemDeath, OutOfRangePanics)
{
    PhysMem mem(4);
    EXPECT_DEATH(mem.readLine(4), "out of range");
}
