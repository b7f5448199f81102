/**
 * @file
 * Differential test: the set-block TagArray against the layout it
 * replaced (lazy structure-of-arrays with a 64-bit global LRU clock),
 * which is kept here verbatim as the reference. Seeded random streams
 * of fill/touch/markDirty/invalidate/covers must produce identical
 * eviction sequences, valid-sector masks and fill/eviction counts on
 * the L1 geometries (4-way, 64/16/8/4-byte sectors), the 4 MiB 16-way
 * L2, set counts that are not powers of two, 1- to 32-way sets,
 * page-table addresses on small L2s, and streams long enough to wrap
 * every set's 16-bit LRU clock several times.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <utility>
#include <string>
#include <vector>

#include "src/mem/tag_array.hh"
#include "src/sim/random.hh"

namespace netcrafter::mem {
namespace {

/**
 * The previous TagArray, kept verbatim as the reference: lazy
 * structure-of-arrays storage (a 64-bit tag, a 64-bit valid mask, a
 * 64-bit global LRU stamp and a dirty byte per line, 25 B) in four
 * parallel vectors, with sets indexed by division.
 */
class ReferenceTagArray
{
  public:
    ReferenceTagArray(std::uint64_t size_bytes, std::uint32_t assoc,
                      std::uint32_t line_bytes)
        : assoc_(assoc), lineBytes_(line_bytes)
    {
        numSets_ =
            static_cast<std::uint32_t>(size_bytes / line_bytes / assoc_);
        chunkOf_.resize((numSets_ + kChunkSets - 1) / kChunkSets);
    }

    SectorMask
    validSectors(Addr line) const
    {
        const std::size_t slot = findSlot(line);
        return slot != kNoSlot ? valid_[slot] : 0;
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
        const std::size_t base = materializeSet(setOf(line));
        const Addr key = line + 1;
        std::size_t hit = kNoSlot;
        std::size_t invalid = kNoSlot;
        std::size_t lru = base;
        for (std::size_t slot = base; slot < base + assoc_; ++slot) {
            const Addr tag = tags_[slot];
            if (tag == key) {
                hit = slot;
                break;
            }
            if (tag == 0) {
                if (invalid == kNoSlot)
                    invalid = slot;
            } else if (lastUse_[slot] < lastUse_[lru]) {
                lru = slot;
            }
        }
        if (hit != kNoSlot) {
            valid_[hit] |= mask;
            lastUse_[hit] = useClock_;
            return Eviction{};
        }
        Eviction ev;
        const std::size_t victim = invalid != kNoSlot ? invalid : lru;
        if (tags_[victim] != 0) {
            ev.valid = true;
            ev.line = tags_[victim] - 1;
            ev.dirty = dirty_[victim] != 0;
            ++evictions_;
        }
        tags_[victim] = key;
        valid_[victim] = mask;
        dirty_[victim] = 0;
        lastUse_[victim] = useClock_;
        return ev;
    }

    void
    touch(Addr line)
    {
        const std::size_t slot = findSlot(line);
        if (slot != kNoSlot)
            lastUse_[slot] = ++useClock_;
    }

    void
    markDirty(Addr line)
    {
        const std::size_t slot = findSlot(line);
        if (slot != kNoSlot)
            dirty_[slot] = 1;
    }

    bool
    invalidate(Addr line)
    {
        const std::size_t slot = findSlot(line);
        if (slot == kNoSlot)
            return false;
        tags_[slot] = 0;
        valid_[slot] = 0;
        dirty_[slot] = 0;
        return true;
    }

    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Bytes per line of this layout. */
    static constexpr std::size_t kBytesPerLine =
        sizeof(Addr) + sizeof(SectorMask) + sizeof(std::uint64_t) +
        sizeof(std::uint8_t);

  private:
    static constexpr std::uint32_t kChunkSets = 4;
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    std::uint32_t
    setOf(Addr line) const
    {
        return static_cast<std::uint32_t>((line / lineBytes_) % numSets_);
    }

    std::size_t
    setBase(std::uint32_t set) const
    {
        const std::uint32_t chunk = chunkOf_[set / kChunkSets];
        if (chunk == 0)
            return kNoSlot;
        return (static_cast<std::size_t>(chunk - 1) * kChunkSets +
                set % kChunkSets) *
               assoc_;
    }

    std::size_t
    materializeSet(std::uint32_t set)
    {
        std::uint32_t &chunk = chunkOf_[set / kChunkSets];
        if (chunk == 0) {
            const std::size_t lines = tags_.size() + kChunkSets * assoc_;
            tags_.resize(lines);
            valid_.resize(lines);
            lastUse_.resize(lines);
            dirty_.resize(lines);
            chunk =
                static_cast<std::uint32_t>(lines / (kChunkSets * assoc_));
        }
        return setBase(set);
    }

    std::size_t
    findSlot(Addr line) const
    {
        const std::size_t base = setBase(setOf(line));
        if (base == kNoSlot)
            return kNoSlot;
        const Addr key = line + 1;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (tags_[base + w] == key)
                return base + w;
        }
        return kNoSlot;
    }

    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t numSets_;
    std::vector<std::uint32_t> chunkOf_;
    std::vector<Addr> tags_;
    std::vector<SectorMask> valid_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
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

    /** Lowest line address of the stream (0, or the PTE region). */
    Addr base = 0;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.label;
}

/** Where page-table lines live: 0xF000'0000'0000 + (level << 44). */
constexpr Addr kPteBase = 0xF000'0000'0000ull;

/**
 * Drive both arrays with @p ops random operations over @p hot sets
 * spread across the array, with twice as many tags per set as there
 * are ways, so sets overflow and evict while invalidations keep holes
 * (invalid ways) in play. Lines start at @p base; when @p pte_levels
 * is nonzero, each line is also moved into one of that many
 * page-table levels, all of which alias onto the same sets.
 */
void
driveStream(TagArray &tags, ReferenceTagArray &ref, std::uint32_t assoc,
            std::uint64_t seed, int ops, std::uint32_t hot,
            std::uint32_t sectors, Addr base, std::uint32_t pte_levels)
{
    constexpr std::uint32_t kLine = 64;
    const std::uint32_t sets = tags.numSets();
    const std::uint32_t stride = sets / hot;
    Pcg32 rng(seed, 0x7a6);
    for (int i = 0; i < ops; ++i) {
        const std::uint32_t h = rng.below(hot);
        const Addr set = h * stride + h % stride;
        Addr line =
            base + (set + Addr{sets} * rng.below(2 * assoc)) * kLine;
        if (pte_levels > 0)
            line += Addr{rng.below(pte_levels)} << 44;
        const std::uint32_t first = rng.below(sectors);
        const std::uint32_t count = 1 + rng.below(sectors - first);
        const SectorMask mask = fullMask(first + count) & ~fullMask(first);
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

class TagArrayDifferential : public ::testing::TestWithParam<Geometry>
{};

TEST_P(TagArrayDifferential, MatchesReferenceOnRandomStreams)
{
    const Geometry &g = GetParam();
    constexpr std::uint32_t kLine = 64;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        TagArray tags(g.sizeBytes, g.assoc, kLine, g.sectorBytes);
        ReferenceTagArray ref(g.sizeBytes, g.assoc, kLine);
        driveStream(tags, ref, g.assoc, seed, 60000,
                    std::min<std::uint32_t>(tags.numSets(), 128),
                    kLine / g.sectorBytes, g.base,
                    g.base == kPteBase ? 4 : 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagArrayDifferential,
    ::testing::Values(
        Geometry{64 * 1024, 4, 64, "L1_unsectored"},
        Geometry{64 * 1024, 4, 16, "L1_16B"},
        Geometry{64 * 1024, 4, 8, "L1_8B"},
        Geometry{64 * 1024, 4, 4, "L1_4B"},
        Geometry{4ull * 1024 * 1024, 16, 64, "L2"},
        // Set counts that are not a power of two index by division.
        Geometry{48 * 1024, 4, 16, "L1_192sets"},
        Geometry{3ull * 1024 * 1024, 16, 64, "L2_3072sets"},
        Geometry{96 * 1024, 12, 64, "L2_12way_128sets"},
        Geometry{7 * 64, 1, 64, "DirectMapped_7sets"},
        // Every associativity the set block supports.
        Geometry{16 * 1024, 1, 64, "Assoc1"},
        Geometry{16 * 1024, 2, 32, "Assoc2"},
        Geometry{32 * 1024, 8, 64, "Assoc8"},
        Geometry{64 * 1024, 16, 4, "Assoc16_4B"},
        Geometry{128 * 1024, 32, 64, "Assoc32"},
        // Page-table lines on a small L2: four levels alias onto
        // every set, and only the full 64-bit tag tells them apart.
        Geometry{16 * 1024, 16, 64, "SmallL2_PteRegion", kPteBase},
        Geometry{1024, 16, 64, "OneSetL2_PteRegion", kPteBase}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.label);
    });

/**
 * Each set's 16-bit LRU clock wraps after 65535 stamps; the set is then
 * renumbered to ranks. A stream of 800k operations on a single 16-way
 * set and on two 4-way sets stamps every set past that point at least
 * twice, and every eviction must still match the reference's 64-bit
 * global clock.
 */
TEST(TagArrayDifferential, RenumberingKeepsLruOrderExactly)
{
    constexpr std::uint32_t kLine = 64;
    for (const auto &[size, assoc] :
         {std::pair<std::uint64_t, std::uint32_t>{16 * kLine, 16},
          std::pair<std::uint64_t, std::uint32_t>{8 * kLine, 4}}) {
        TagArray tags(size, assoc, kLine, kLine);
        ReferenceTagArray ref(size, assoc, kLine);
        driveStream(tags, ref, assoc, 11, 800000, tags.numSets(), 1, 0,
                    0);
        // Every fill stamps its set; touches of present lines add more.
        EXPECT_GT(tags.fills() / tags.numSets(), 2u * 0xFFFF);
    }
}

TEST(TagArrayDifferential, PteLinesNeverAliasData)
{
    // One 16-way set: a data line and the four page-table lines with
    // the same low address bits all live in it at once.
    TagArray tags(16 * 64, 16, 64, 64);
    const Addr data = 0x40;
    tags.fill(data, 1);
    for (Addr level = 0; level < 4; ++level) {
        const Addr pte = kPteBase + (level << 44) + data;
        EXPECT_FALSE(tags.present(pte)) << level;
        tags.fill(pte, 1);
        EXPECT_TRUE(tags.present(pte)) << level;
    }
    EXPECT_TRUE(tags.present(data));
    EXPECT_TRUE(tags.invalidate(kPteBase + (2ull << 44) + data));
    EXPECT_TRUE(tags.present(data));
    EXPECT_TRUE(tags.present(kPteBase + (3ull << 44) + data));
}

TEST(TagArrayStorage, NothingMaterializedAtConstruction)
{
    TagArray l1(64 * 1024, 4, 64, 16);
    TagArray l2(4ull * 1024 * 1024, 16, 64, 64);
    EXPECT_EQ(l1.materializedBytes(), 0u);
    EXPECT_EQ(l2.materializedBytes(), 0u);
}

TEST(TagArrayStorage, SetBlocksHalveTheBytesPerLine)
{
    // 8 B tag + 2 B stamp + 2 B valid mask per way, plus a 4 B dirty
    // word and a 2 B clock per set, padded to 8 B.
    TagArray l1(64 * 1024, 4, 64, 16);
    TagArray l2(4ull * 1024 * 1024, 16, 64, 64);
    EXPECT_EQ(l1.setBytes(), 56u); // 14 B per line
    EXPECT_EQ(l2.setBytes(), 200u); // 12.5 B per line
    EXPECT_EQ(ReferenceTagArray::kBytesPerLine, 25u);
    l2.fill(0, 1);
    EXPECT_EQ(l2.materializedBytes(), 8 * 200u); // one chunk of 8 sets
    EXPECT_LT(l2.materializedBytes(),
              8 * 16 * ReferenceTagArray::kBytesPerLine / 2 + 1);
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
