/**
 * @file
 * Set-associative tag array with LRU replacement and optional per-sector
 * valid bits (for the sectored L1 designs of Sections 4.3 and 5.3).
 */

#ifndef NETCRAFTER_MEM_TAG_ARRAY_HH
#define NETCRAFTER_MEM_TAG_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
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
 * Each set is one contiguous block, so a lookup touches one or two
 * adjacent host cache lines:
 *
 *   Addr          tag[assoc]     line + 1; 0 marks an invalid way
 *   std::uint16_t stamp[assoc]   per-set LRU stamp
 *   std::uint16_t valid[assoc]   valid-sector mask (<= 16 sectors)
 *   std::uint32_t dirty          one bit per way (assoc <= 32)
 *   std::uint16_t clock          the set's last stamp
 *
 * padded to 8 bytes: 14 B per line at 4 ways, 12.5 B at 16 ways. LRU
 * only compares ways of one set, so each set keeps its own clock. When
 * a set's clock would pass 0xFFFF its valid ways' stamps are replaced
 * by their ranks 1..n, which keeps their order exactly, and the clock
 * restarts at n. Tags are full 64-bit line addresses: page-table lines
 * sit at 0xF000'0000'0000 + (level << 44), and a small cache would
 * alias them under any narrower tag.
 *
 * Storage is lazy. Sets are grouped into chunks of kChunkSets; a chunk
 * is materialized (zeroed) on its first fill(), at the next free slot
 * of a page of up to 4 KiB. Pages never move or grow, so a short run
 * pays only for the chunks it touched plus at most one partly used
 * page. Lookups on a never-filled chunk miss without allocating.
 * Replacement is unaffected by laziness: the victim is the first
 * invalid way in way order, else the way with the oldest stamp.
 */
class TagArray
{
  public:
    /**
     * A present line, found by lookup(). It stays valid until the next
     * fill() or invalidate() on this array; touch() and markDirty() do
     * not move lines.
     */
    class Way
    {
      public:
        /** True when the line was present. */
        explicit operator bool() const { return set_ != nullptr; }

      private:
        friend class TagArray;
        std::byte *set_ = nullptr;
        std::uint32_t way_ = 0;
    };

    /**
     * @param size_bytes total capacity; a multiple of assoc lines.
     * @param assoc ways per set (1..32).
     * @param line_bytes cache line size (a power of two).
     * @param sector_bytes sector size; pass line_bytes for an
     *        unsectored cache (one sector spanning the line).
     */
    TagArray(std::uint64_t size_bytes, std::uint32_t assoc,
             std::uint32_t line_bytes, std::uint32_t sector_bytes);

    /** Number of sectors per line. */
    std::uint32_t sectorsPerLine() const { return sectorsPerLine_; }

    /** Sector size in bytes. */
    std::uint32_t sectorBytes() const { return sectorBytes_; }

    /** Find @p line: one scan of its set. */
    Way lookup(Addr line) const;

    /** Valid-sector mask of a present line. */
    SectorMask
    validSectors(Way way) const
    {
        return validOf(way.set_)[way.way_];
    }

    /** LRU-touch a present line (on hit). */
    void
    touch(Way way)
    {
        // nextStamp() may renumber the set first; the way then gets the
        // stamp after every renumbered one.
        const std::uint16_t stamp = nextStamp(way.set_);
        stampsOf(way.set_)[way.way_] = stamp;
    }

    /** Mark a present line dirty. */
    void
    markDirty(Way way)
    {
        dirtyOf(way.set_) |= 1u << way.way_;
    }

    /** True when the line's tag is present (any sector valid). */
    bool present(Addr line) const { return bool(lookup(line)); }

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

    /** Bytes of one set's block (see the class comment). */
    std::size_t setBytes() const { return setBytes_; }

    /**
     * Bytes of per-line state materialized so far: 0 after
     * construction, growing by one chunk's worth per touched chunk.
     */
    std::size_t
    materializedBytes() const
    {
        return chunks_ * kChunkSets * setBytes_;
    }

  private:
    /** Sets per lazily materialized chunk. */
    static constexpr std::uint32_t kChunkSets = 8;

    /** Target size of one storage page. */
    static constexpr std::size_t kPageBytes = 4096;

    /** Largest stamp; the set is renumbered before passing it. */
    static constexpr std::uint16_t kMaxStamp = 0xFFFF;

    std::uint32_t
    setOf(Addr line) const
    {
        const Addr n = line >> lineShift_;
        return static_cast<std::uint32_t>(pow2Sets_ ? n & setMask_
                                                    : n % numSets_);
    }

    /** Set @p set's block, or nullptr when its chunk was never filled. */
    std::byte *
    setPtr(std::uint32_t set) const
    {
        std::byte *chunk = chunkPtr_[set / kChunkSets];
        return chunk == nullptr
                   ? nullptr
                   : chunk + (set % kChunkSets) * setBytes_;
    }

    /** setPtr(), materializing the chunk first if needed. */
    std::byte *materializeSet(std::uint32_t set);

    Addr *tagsOf(std::byte *set) const
    {
        return reinterpret_cast<Addr *>(set);
    }
    std::uint16_t *stampsOf(std::byte *set) const
    {
        return reinterpret_cast<std::uint16_t *>(set + 8 * assoc_);
    }
    std::uint16_t *validOf(std::byte *set) const
    {
        return reinterpret_cast<std::uint16_t *>(set + 10 * assoc_);
    }
    std::uint32_t &dirtyOf(std::byte *set) const
    {
        return *reinterpret_cast<std::uint32_t *>(set + 12 * assoc_);
    }
    std::uint16_t &clockOf(std::byte *set) const
    {
        return *reinterpret_cast<std::uint16_t *>(set + 12 * assoc_ + 4);
    }

    /** The set's next LRU stamp, renumbering the set when it would wrap. */
    std::uint16_t
    nextStamp(std::byte *set)
    {
        std::uint16_t &clock = clockOf(set);
        if (clock == kMaxStamp)
            renumber(set);
        return ++clock;
    }

    /** Replace the valid ways' stamps by their ranks 1..n. */
    void renumber(std::byte *set);

    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t lineShift_ = 0;
    std::uint32_t sectorBytes_;
    std::uint32_t sectorsPerLine_;
    std::uint32_t numSets_;

    /** Index sets by shift and mask when numSets_ is a power of two. */
    bool pow2Sets_ = false;
    Addr setMask_ = 0;
    std::size_t setBytes_;

    /** Per chunk: its storage, or nullptr (untouched). */
    std::vector<std::byte *> chunkPtr_;

    /** Storage pages; each holds pageChunks_ chunks. */
    std::vector<std::unique_ptr<std::byte[]>> pages_;
    std::size_t pageChunks_ = 1;
    std::size_t chunks_ = 0;

    std::uint64_t fills_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_TAG_ARRAY_HH
