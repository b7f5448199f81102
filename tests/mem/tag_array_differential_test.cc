/**
 * @file
 * Differential test: the lazily materialized structure-of-arrays
 * TagArray against the array-of-structs implementation it replaced,
 * which is kept here verbatim as the reference. Seeded random streams
 * of fill/touch/markDirty/invalidate/covers must produce identical
 * eviction sequences, valid-sector masks and fill/eviction counts on
 * the L1 geometries (4-way, 64/16/8/4-byte sectors) and the 4 MiB
 * 16-way L2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/mem/tag_array.hh"
#include "src/sim/random.hh"

namespace netcrafter::mem {
namespace {

/** The former AoS tag array: one Way per line, built up front. */
class ReferenceTagArray
{
  public:
    ReferenceTagArray(std::uint64_t size_bytes, std::uint32_t assoc,
                      std::uint32_t line_bytes)
        : assoc_(assoc), lineBytes_(line_bytes)
    {
        numSets_ =
            static_cast<std::uint32_t>(size_bytes / line_bytes / assoc_);
        ways_.resize(static_cast<std::size_t>(numSets_) * assoc_);
    }

    SectorMask
    validSectors(Addr line) const
    {
        const Way *way = findWay(line);
        return way ? way->valid : 0;
    }

    bool
    covers(Addr line, SectorMask needed) const
    {
        return (validSectors(line) & needed) == needed;
    }

    Eviction
    fill(Addr line, SectorMask mask)
    {
        ++fills_;
        ++useClock_;
        if (Way *way = findWay(line)) {
            way->valid |= mask;
            way->lastUse = useClock_;
            return Eviction{};
        }
        const std::size_t base =
            static_cast<std::size_t>(setOf(line)) * assoc_;
        Way *victim = &ways_[base];
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            Way &way = ways_[base + w];
            if (way.valid == 0) {
                victim = &way;
                break;
            }
            if (way.lastUse < victim->lastUse)
                victim = &way;
        }
        Eviction ev;
        if (victim->valid != 0) {
            ev.valid = true;
            ev.line = victim->line;
            ev.dirty = victim->dirty;
            ++evictions_;
        }
        victim->line = line;
        victim->valid = mask;
        victim->dirty = false;
        victim->lastUse = useClock_;
        return ev;
    }

    void
    touch(Addr line)
    {
        if (Way *way = findWay(line))
            way->lastUse = ++useClock_;
    }

    void
    markDirty(Addr line)
    {
        if (Way *way = findWay(line))
            way->dirty = true;
    }

    bool
    invalidate(Addr line)
    {
        if (Way *way = findWay(line)) {
            way->valid = 0;
            way->dirty = false;
            way->line = kAddrInvalid;
            return true;
        }
        return false;
    }

    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Way
    {
        Addr line = kAddrInvalid;
        SectorMask valid = 0;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t
    setOf(Addr line) const
    {
        return static_cast<std::uint32_t>((line / lineBytes_) % numSets_);
    }

    const Way *
    findWay(Addr line) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setOf(line)) * assoc_;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            const Way &way = ways_[base + w];
            if (way.valid != 0 && way.line == line)
                return &way;
        }
        return nullptr;
    }

    Way *
    findWay(Addr line)
    {
        return const_cast<Way *>(
            static_cast<const ReferenceTagArray *>(this)->findWay(line));
    }

    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t evictions_ = 0;
};

struct Geometry
{
    std::uint64_t sizeBytes;
    std::uint32_t assoc;
    std::uint32_t sectorBytes;
    const char *label;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.label;
}

class TagArrayDifferential : public ::testing::TestWithParam<Geometry>
{};

/**
 * Drive both arrays with one random operation stream. Lines map onto
 * up to 128 sets spread over the whole array, with twice as many tags
 * per set as there are ways, so sets overflow and evict while
 * invalidations keep holes (invalid ways) in play.
 */
TEST_P(TagArrayDifferential, MatchesReferenceOnRandomStreams)
{
    const Geometry &g = GetParam();
    constexpr std::uint32_t kLine = 64;
    const std::uint32_t sectors = kLine / g.sectorBytes;

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        TagArray tags(g.sizeBytes, g.assoc, kLine, g.sectorBytes);
        ReferenceTagArray ref(g.sizeBytes, g.assoc, kLine);
        const std::uint32_t sets = tags.numSets();
        const std::uint32_t hot = std::min<std::uint32_t>(sets, 128);
        const std::uint32_t stride = sets / hot;
        Pcg32 rng(seed, 0x7a6);
        for (int i = 0; i < 60000; ++i) {
            const std::uint32_t h = rng.below(hot);
            const Addr set = h * stride + h % stride;
            const Addr line =
                (set + Addr{sets} * rng.below(2 * g.assoc)) * kLine;
            const std::uint32_t first = rng.below(sectors);
            const std::uint32_t count = 1 + rng.below(sectors - first);
            const SectorMask mask =
                fullMask(first + count) & ~fullMask(first);
            switch (rng.below(8)) {
            case 0:
            case 1:
            case 2: {
                const Eviction got = tags.fill(line, mask);
                const Eviction want = ref.fill(line, mask);
                ASSERT_EQ(got.valid, want.valid) << "op " << i;
                ASSERT_EQ(got.line, want.line) << "op " << i;
                ASSERT_EQ(got.dirty, want.dirty) << "op " << i;
                break;
            }
            case 3:
            case 4:
                tags.touch(line);
                ref.touch(line);
                break;
            case 5:
                tags.markDirty(line);
                ref.markDirty(line);
                break;
            case 6:
                ASSERT_EQ(tags.invalidate(line), ref.invalidate(line))
                    << "op " << i;
                break;
            default:
                ASSERT_EQ(tags.covers(line, mask), ref.covers(line, mask))
                    << "op " << i;
                break;
            }
            ASSERT_EQ(tags.validSectors(line), ref.validSectors(line))
                << "op " << i;
            ASSERT_EQ(tags.present(line), ref.validSectors(line) != 0)
                << "op " << i;
        }
        EXPECT_EQ(tags.fills(), ref.fills());
        EXPECT_EQ(tags.evictions(), ref.evictions());
        EXPECT_GT(tags.evictions(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagArrayDifferential,
    ::testing::Values(Geometry{64 * 1024, 4, 64, "L1_unsectored"},
                      Geometry{64 * 1024, 4, 16, "L1_16B"},
                      Geometry{64 * 1024, 4, 8, "L1_8B"},
                      Geometry{64 * 1024, 4, 4, "L1_4B"},
                      Geometry{4ull * 1024 * 1024, 16, 64, "L2"}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.label);
    });

TEST(TagArrayStorage, NothingMaterializedAtConstruction)
{
    TagArray l1(64 * 1024, 4, 64, 16);
    TagArray l2(4ull * 1024 * 1024, 16, 64, 64);
    EXPECT_EQ(l1.materializedBytes(), 0u);
    EXPECT_EQ(l2.materializedBytes(), 0u);
}

TEST(TagArrayStorage, LookupsOnUntouchedSetsAllocateNothing)
{
    TagArray tags(4ull * 1024 * 1024, 16, 64, 64);
    for (Addr line = 0; line < 1024 * 64; line += 64) {
        EXPECT_FALSE(tags.present(line));
        EXPECT_FALSE(tags.covers(line, 1));
        EXPECT_EQ(tags.validSectors(line), 0u);
        tags.touch(line);
        tags.markDirty(line);
        EXPECT_FALSE(tags.invalidate(line));
    }
    EXPECT_EQ(tags.materializedBytes(), 0u);
}

TEST(TagArrayStorage, GrowsOnlyWithTouchedChunks)
{
    TagArray tags(4ull * 1024 * 1024, 16, 64, 64);
    tags.fill(0, 1);
    const std::size_t chunk = tags.materializedBytes();
    ASSERT_GT(chunk, 0u);

    // Re-filling and refilling the same set costs nothing more.
    tags.fill(0, 1);
    tags.fill(64 * tags.numSets(), 1);
    EXPECT_EQ(tags.materializedBytes(), chunk);

    // A far-away set materializes exactly one more chunk.
    const Addr far = 64 * static_cast<Addr>(tags.numSets() / 2);
    tags.fill(far, 1);
    EXPECT_EQ(tags.materializedBytes(), 2 * chunk);

    // Every new chunk costs exactly one chunk; a second pass over the
    // same sets costs nothing.
    std::size_t grown = 0;
    for (std::uint32_t set = 0; set < tags.numSets(); ++set) {
        const std::size_t before = tags.materializedBytes();
        tags.fill(64 * static_cast<Addr>(set), 1);
        const std::size_t step = tags.materializedBytes() - before;
        ASSERT_TRUE(step == 0 || step == chunk) << "set " << set;
        grown += step != 0;
    }
    EXPECT_GT(grown, 0u);
    const std::size_t full = tags.materializedBytes();
    EXPECT_EQ(full, (grown + 2) * chunk);
    for (std::uint32_t set = 0; set < tags.numSets(); ++set)
        tags.fill(64 * static_cast<Addr>(set) + 64 * tags.numSets(), 1);
    EXPECT_EQ(tags.materializedBytes(), full);
}

} // namespace
} // namespace netcrafter::mem
