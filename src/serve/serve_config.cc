#include "src/serve/serve_config.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "src/sim/logging.hh"

namespace netcrafter::serve {

double
ServeConfig::meanGapTicks(TrafficClass cls,
                          std::uint32_t num_gpus) const
{
    NC_ASSERT(num_gpus > 0, "meanGapTicks with zero GPUs");
    // offeredLoad is requests per 1000 ticks system-wide; this stream
    // carries share(cls)/num_gpus of it.
    const double streamLoad =
        offeredLoad * mix.share(cls) / static_cast<double>(num_gpus);
    NC_ASSERT(streamLoad > 0.0, "stream ", trafficClassName(cls),
              " has zero offered load");
    return std::max(1.0, 1000.0 / streamLoad);
}

std::string
ServeConfig::toString() const
{
    std::ostringstream os;
    os.precision(17);
    os << "arrival=" << arrivalKindName(arrival)
       << " load=" << offeredLoad << " mix=" << mix.toString()
       << " seed=" << seed << " warmup=" << warmupTicks
       << " measure=" << measureTicks << " duty=" << burst.duty
       << " burst=" << burst.meanBurst;
    return os.str();
}

std::uint64_t
ServeConfig::digest() const
{
    if (!enabled)
        return 0;
    const std::string text = toString();
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64-bit
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    // Reserve 0 for "serving disabled".
    return h == 0 ? 1 : h;
}

void
ServeConfig::validate() const
{
    if (!enabled)
        return;
    NC_ASSERT(std::isfinite(offeredLoad) && offeredLoad > 0.0,
              "offered load must be positive, got ", offeredLoad);
    mix.validate();
    NC_ASSERT(warmupTicks > 0, "serve warmup must be > 0 ticks");
    NC_ASSERT(measureTicks > 0, "serve measurement must be > 0 ticks");
    NC_ASSERT(burst.duty > 0.0 && burst.duty <= 1.0,
              "burst duty must be in (0,1], got ", burst.duty);
    NC_ASSERT(burst.meanBurst >= 1.0,
              "mean burst length must be >= 1, got ", burst.meanBurst);
}

double
parseServeLoadEnv(const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v <= 0) {
        NC_FATAL("NETCRAFTER_SERVE_LOAD must be a positive finite "
                 "requests-per-kilocycle rate, got '", text, "'");
    }
    return v;
}

Tick
parseServeTicksEnv(const char *text, const char *var)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < 1) {
        NC_FATAL(var, " must be a positive tick count, got '", text,
                 "'");
    }
    return static_cast<Tick>(v);
}

std::uint64_t
parseServeSeedEnv(const char *text)
{
    // strtoull silently wraps negatives, so reject a leading '-'
    // explicitly.
    if (text[0] == '-')
        NC_FATAL("NETCRAFTER_SERVE_SEED must be a non-negative "
                 "integer, got '", text, "'");
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        NC_FATAL("NETCRAFTER_SERVE_SEED must be a non-negative "
                 "integer, got '", text, "'");
    }
    return static_cast<std::uint64_t>(v);
}

void
applyServeEnv(ServeConfig &serve)
{
    if (const char *env = std::getenv("NETCRAFTER_SERVE_LOAD"))
        serve.offeredLoad = parseServeLoadEnv(env);
    if (const char *env = std::getenv("NETCRAFTER_SERVE_ARRIVAL"))
        serve.arrival = parseArrivalKind(env);
    if (const char *env = std::getenv("NETCRAFTER_SERVE_MIX"))
        serve.mix = parseClassMix(env);
    if (const char *env = std::getenv("NETCRAFTER_SERVE_WARMUP")) {
        serve.warmupTicks =
            parseServeTicksEnv(env, "NETCRAFTER_SERVE_WARMUP");
    }
    if (const char *env = std::getenv("NETCRAFTER_SERVE_MEASURE")) {
        serve.measureTicks =
            parseServeTicksEnv(env, "NETCRAFTER_SERVE_MEASURE");
    }
    if (const char *env = std::getenv("NETCRAFTER_SERVE_SEED"))
        serve.seed = parseServeSeedEnv(env);
}

} // namespace netcrafter::serve
