/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include "src/mem/mshr.hh"

namespace netcrafter::mem {
namespace {

TEST(Mshr, AllocateMergeRelease)
{
    Mshr<int> mshr(4);
    EXPECT_FALSE(mshr.outstanding(0x40));
    mshr.allocate(0x40, 1);
    EXPECT_TRUE(mshr.outstanding(0x40));
    mshr.merge(0x40, 2);
    mshr.merge(0x40, 3);
    auto waiters = mshr.release(0x40);
    EXPECT_EQ(waiters, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(mshr.outstanding(0x40));
    EXPECT_EQ(mshr.allocations(), 1u);
    EXPECT_EQ(mshr.merges(), 2u);
}

TEST(Mshr, CapacityCountsDistinctAddresses)
{
    Mshr<int> mshr(2);
    mshr.allocate(0x40, 1);
    mshr.merge(0x40, 2); // merges don't consume entries
    mshr.allocate(0x80, 3);
    EXPECT_TRUE(mshr.full());
    mshr.release(0x40);
    EXPECT_FALSE(mshr.full());
}

TEST(Mshr, WaitersKeepMergeOrderAcrossReleases)
{
    Mshr<int> mshr(4);
    mshr.allocate(0x40, 10);
    mshr.allocate(0x80, 20);
    mshr.merge(0x40, 11);
    mshr.allocate(0xc0, 30);
    mshr.merge(0x80, 21);
    mshr.merge(0x40, 12);
    // Releasing the first entry moves the last one into its slot; the
    // moved entry must keep its waiters in order and take new merges.
    EXPECT_EQ(mshr.release(0x40), (std::vector<int>{10, 11, 12}));
    mshr.merge(0xc0, 31);
    mshr.merge(0x80, 22);
    EXPECT_EQ(mshr.release(0xc0), (std::vector<int>{30, 31}));
    EXPECT_EQ(mshr.release(0x80), (std::vector<int>{20, 21, 22}));
    EXPECT_EQ(mshr.size(), 0u);
}

TEST(Mshr, SwapRemovalLeavesOtherEntriesAlone)
{
    Mshr<int> mshr(8);
    for (int i = 0; i < 8; ++i)
        mshr.allocate(0x40 * (i + 1), i);
    EXPECT_TRUE(mshr.full());
    // Release from the middle, the back and the front.
    for (Addr gone : {Addr{0x40 * 4}, Addr{0x40 * 8}, Addr{0x40 * 1}}) {
        mshr.release(gone);
        EXPECT_FALSE(mshr.outstanding(gone));
    }
    EXPECT_EQ(mshr.size(), 5u);
    for (int i : {1, 2, 4, 5, 6}) {
        const Addr addr = 0x40 * (i + 1);
        ASSERT_TRUE(mshr.outstanding(addr)) << i;
        EXPECT_EQ(mshr.release(addr), (std::vector<int>{i}));
    }
    EXPECT_EQ(mshr.size(), 0u);
    // A drained file accepts a full complement again.
    for (int i = 0; i < 8; ++i)
        mshr.allocate(0x1000 + 0x40 * i, i);
    EXPECT_TRUE(mshr.full());
}

TEST(Mshr, DoubleAllocatePanics)
{
    Mshr<int> mshr(4);
    mshr.allocate(0x40, 1);
    EXPECT_DEATH(mshr.allocate(0x40, 2), "duplicate");
}

TEST(Mshr, MergeWithoutEntryPanics)
{
    Mshr<int> mshr(4);
    EXPECT_DEATH(mshr.merge(0x40, 1), "without outstanding");
}

TEST(Mshr, ReleaseWithoutEntryPanics)
{
    Mshr<int> mshr(4);
    EXPECT_DEATH(mshr.release(0x40), "without outstanding");
}

TEST(Mshr, AllocateWhenFullPanics)
{
    Mshr<int> mshr(1);
    mshr.allocate(0x40, 1);
    EXPECT_DEATH(mshr.allocate(0x80, 2), "overflow");
}

} // namespace
} // namespace netcrafter::mem
