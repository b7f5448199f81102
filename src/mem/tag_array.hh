/**
 * @file
 * Set-associative tag array with LRU replacement and optional per-sector
 * valid bits (for the sectored L1 designs of Sections 4.3 and 5.3).
 */

#ifndef NETCRAFTER_MEM_TAG_ARRAY_HH
#define NETCRAFTER_MEM_TAG_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace netcrafter::mem {

/** Bitmask over the sectors of one cache line. */
using SectorMask = std::uint64_t;

/** Mask covering every sector of a line. */
constexpr SectorMask
fullMask(std::uint32_t num_sectors)
{
    return num_sectors >= 64 ? ~0ull : ((1ull << num_sectors) - 1);
}

/** Result of filling a line: the victim, if a valid line was evicted. */
struct Eviction
{
    bool valid = false;
    Addr line = kAddrInvalid;
    bool dirty = false;
};

/**
 * LRU set-associative tag array. Data values are not stored (this is a
 * timing simulator); only tags, per-sector valid bits, and dirty bits.
 *
 * Storage is lazy and structure-of-arrays. Sets are grouped into chunks
 * of kChunkSets; a chunk's tags, valid masks, LRU stamps and dirty
 * flags are materialized (zeroed) on the chunk's first fill() and live
 * in four parallel arrays, so a short run pays only for the sets it
 * touched. A tag is stored as line + 1, making an all-zero slot an
 * invalid way. Lookups on a never-filled chunk miss without
 * allocating. Replacement is unaffected by laziness: the victim is the
 * first invalid way in way order, else the way with the oldest stamp.
 */
class TagArray
{
  public:
    /**
     * @param size_bytes total capacity.
     * @param assoc ways per set.
     * @param line_bytes cache line size.
     * @param sector_bytes sector size; pass line_bytes for an
     *        unsectored cache (one sector spanning the line).
     */
    TagArray(std::uint64_t size_bytes, std::uint32_t assoc,
             std::uint32_t line_bytes, std::uint32_t sector_bytes);

    /** Number of sectors per line. */
    std::uint32_t sectorsPerLine() const { return sectorsPerLine_; }

    /** Sector size in bytes. */
    std::uint32_t sectorBytes() const { return sectorBytes_; }

    /** True when the line's tag is present (any sector valid). */
    bool present(Addr line) const;

    /** Valid-sector mask of @p line (0 when absent). */
    SectorMask validSectors(Addr line) const;

    /** True when every sector in @p needed is valid for @p line. */
    bool covers(Addr line, SectorMask needed) const;

    /**
     * Install (or extend) @p line with the sectors in @p mask, touching
     * LRU. Returns the eviction performed, if any.
     */
    Eviction fill(Addr line, SectorMask mask);

    /** LRU-touch @p line (on hit). No-op when absent. */
    void touch(Addr line);

    /** Mark @p line dirty. No-op when absent. */
    void markDirty(Addr line);

    /** Drop @p line; returns true if it was present. */
    bool invalidate(Addr line);

    /** Mask of sectors covering [offset, offset+bytes) within a line. */
    SectorMask sectorsForRange(std::uint32_t offset,
                               std::uint32_t bytes) const;

    std::uint32_t numSets() const { return numSets_; }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }

    /**
     * Bytes of per-line state materialized so far: 0 after
     * construction, growing by one chunk's worth per touched chunk.
     */
    std::size_t
    materializedBytes() const
    {
        return tags_.size() * kBytesPerLine;
    }

  private:
    /** Sets per lazily materialized chunk. */
    static constexpr std::uint32_t kChunkSets = 4;

    /** Tag + valid mask + LRU stamp + dirty flag. */
    static constexpr std::size_t kBytesPerLine =
        sizeof(Addr) + sizeof(SectorMask) + sizeof(std::uint64_t) +
        sizeof(std::uint8_t);

    std::uint32_t setOf(Addr line) const;

    /**
     * Index of set @p set's way 0 in the storage arrays, or kNoSlot
     * when its chunk was never filled.
     */
    std::size_t setBase(std::uint32_t set) const;

    /** setBase(), materializing the chunk first if needed. */
    std::size_t materializeSet(std::uint32_t set);

    /** Storage index of @p line, or kNoSlot when absent. */
    std::size_t findSlot(Addr line) const;

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t sectorBytes_;
    std::uint32_t sectorsPerLine_;
    std::uint32_t numSets_;

    /** Per chunk: 1 + its materialization order, or 0 (untouched). */
    std::vector<std::uint32_t> chunkOf_;

    /** Per-line state of materialized chunks, in materialization order. */
    std::vector<Addr> tags_;
    std::vector<SectorMask> valid_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;

    std::uint64_t useClock_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_TAG_ARRAY_HH
