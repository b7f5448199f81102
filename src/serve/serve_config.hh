/**
 * @file
 * Configuration of one open-loop serving run: which arrival process,
 * how much offered load, the class mix, and the warmup / measurement
 * phase lengths. A ServeConfig is part of a job's identity the same way
 * SystemConfig is — it has a canonical text form and an FNV-1a digest
 * that feeds the experiment ResultCache key, while execution details
 * like the shard count stay excluded.
 */

#ifndef NETCRAFTER_SERVE_SERVE_CONFIG_HH
#define NETCRAFTER_SERVE_SERVE_CONFIG_HH

#include <cstdint>
#include <string>

#include "src/serve/arrival.hh"
#include "src/serve/traffic_class.hh"
#include "src/sim/types.hh"

namespace netcrafter::serve {

/** All knobs of one open-loop serving scenario. */
struct ServeConfig
{
    /** Off by default: jobs without serving keep the closed-loop path. */
    bool enabled = false;

    ArrivalKind arrival = ArrivalKind::Poisson;

    /**
     * Aggregate offered load in requests per kilocycle across the whole
     * system (all GPUs, all classes). Each (gpu, class) stream gets the
     * slice numGpus/share tells it to carry.
     */
    double offeredLoad = 4.0;

    /** Relative request rates of the read/write/ptw classes. */
    ClassMix mix;

    /** Seed feeding every stream's counter-based arrival draws. */
    std::uint64_t seed = 1;

    /** Cycles to run before latencies start counting. */
    Tick warmupTicks = 20'000;

    /** Cycles of the measurement window. */
    Tick measureTicks = 80'000;

    /** Bursty-process shape (ignored by poisson/uniform). */
    BurstParams burst;

    /**
     * Mean inter-arrival gap in ticks of the (gpu, class) stream for
     * @p cls on a @p num_gpus system: each GPU carries 1/num_gpus of
     * the class's share of the aggregate load.
     */
    double meanGapTicks(TrafficClass cls,
                        std::uint32_t num_gpus) const;

    /** Canonical one-line text form (feeds digest()). */
    std::string toString() const;

    /**
     * Stable fingerprint of every field (0 when disabled, so
     * closed-loop cache keys are unchanged by this subsystem).
     */
    std::uint64_t digest() const;

    /** NC_FATAL on non-positive load, bad mix, or empty phases. */
    void validate() const;
};

/**
 * Parse one NETCRAFTER_SERVE_LOAD value: offered load in requests per
 * kilocycle, a positive finite number. Zero, negatives, and garbage
 * are fatal.
 */
double parseServeLoadEnv(const char *text);

/**
 * Parse one NETCRAFTER_SERVE_WARMUP / NETCRAFTER_SERVE_MEASURE value
 * (@p var names the variable for the error message): a positive tick
 * count. Zero, negatives, and garbage are fatal.
 */
Tick parseServeTicksEnv(const char *text, const char *var);

/** Parse one NETCRAFTER_SERVE_SEED value: a non-negative integer. */
std::uint64_t parseServeSeedEnv(const char *text);

/**
 * Overlay the NETCRAFTER_SERVE_* environment onto @p serve:
 * _LOAD (requests/kilocycle), _ARRIVAL (poisson|uniform|bursty),
 * _MIX (read:write:ptw weights), _WARMUP / _MEASURE (ticks), and
 * _SEED. Unset variables leave the corresponding field untouched;
 * invalid values are fatal. Does not flip serve.enabled — the caller
 * (a --serve flag, a bench) decides whether serving runs at all.
 */
void applyServeEnv(ServeConfig &serve);

} // namespace netcrafter::serve

#endif // NETCRAFTER_SERVE_SERVE_CONFIG_HH
