/**
 * @file
 * Hardware memory coalescer (Section 2.1): merges the per-thread
 * addresses of one wavefront instruction into per-cache-line accesses,
 * recording the byte span each line access actually needs — the signal
 * Trimming exploits (Observation 2, Figure 7).
 */

#ifndef NETCRAFTER_GPU_COALESCER_HH
#define NETCRAFTER_GPU_COALESCER_HH

#include <cstdint>
#include <vector>

#include "src/workloads/workload.hh"

namespace netcrafter::gpu {

/** One coalesced per-line access. */
struct CoalescedAccess
{
    /** 64B-aligned line address. */
    Addr line = 0;

    /** First needed byte within the line. */
    std::uint32_t offset = 0;

    /** Needed byte span within the line (1..64). */
    std::uint32_t bytes = 0;

    bool isWrite = false;
};

/**
 * Coalesce @p instr into per-line accesses, ordered by first touch.
 * Inactive lanes (kAddrInvalid) are skipped.
 */
std::vector<CoalescedAccess> coalesce(const workloads::Instruction &instr);

/** coalesce() into @p out, replacing its contents but keeping its
 *  storage: the allocation-free form for the issue path. */
void coalesce(const workloads::Instruction &instr,
              std::vector<CoalescedAccess> &out);

} // namespace netcrafter::gpu

#endif // NETCRAFTER_GPU_COALESCER_HH
