/**
 * @file
 * Host-capacity helpers shared by the bench tools (and the simulator
 * benchmark under perfbench/): how many CPUs a run really has, and a
 * loud warning when a sharded run has fewer than it needs.
 */

#ifndef NETCRAFTER_BENCH_BENCH_COMMON_HH
#define NETCRAFTER_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace netcrafter::bench {

/**
 * CPUs actually usable by this process. hardware_concurrency() reports
 * the machine's core count even when the process is confined to fewer
 * (cgroup cpusets, taskset, CI runners), which would let a bench JSON
 * claim parallel headroom the run never had. Prefer the scheduling
 * affinity mask; fall back to hardware_concurrency(), floor of 1.
 */
inline unsigned
hostCpus()
{
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int count = CPU_COUNT(&mask);
        if (count > 0)
            return static_cast<unsigned>(count);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Loud undersubscription check for sharded bench modes: when the
 * process has fewer usable CPUs than the widest shard count it is
 * about to run, every "parallel" point actually measures
 * synchronization overhead, not speedup. Prints the warning to stderr
 * immediately and returns it so the bench can embed it in the JSON's
 * "notes" field (empty string when the host is wide enough).
 */
inline std::string
undersubscribedNote(const char *bench_name, unsigned max_shards)
{
    const unsigned cpus = hostCpus();
    if (cpus >= max_shards)
        return {};
    std::string note = std::string("WARNING: host_cpus=") +
                       std::to_string(cpus) + " < shards=" +
                       std::to_string(max_shards) +
                       ": sharded points measure synchronization "
                       "overhead, not parallel speedup";
    std::cerr << bench_name << ": " << note << "\n";
    return note;
}

} // namespace netcrafter::bench

#endif // NETCRAFTER_BENCH_BENCH_COMMON_HH
