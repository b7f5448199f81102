#include "src/config/exec_config.hh"

#include <cstdlib>

#include "src/sim/logging.hh"

namespace netcrafter::config {

unsigned
parseThreadsEnv(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    // strtol saturates overflow at LONG_MAX, so the upper check also
    // rejects absurdly long digit strings. 0 is legal: one thread per
    // shard, the default mapping.
    if (end == text || *end != '\0' || v < 0 || v > (1L << 16)) {
        NC_FATAL("NETCRAFTER_THREADS must be 0 (one per shard) or a "
                 "positive executor-thread count, got '", text, "'");
    }
    return static_cast<unsigned>(v);
}

sim::ExecPolicy
execPolicyFromEnv()
{
    sim::ExecPolicy exec;
    if (const char *env = std::getenv("NETCRAFTER_THREADS"))
        exec.threads = parseThreadsEnv(env);
    return exec;
}

} // namespace netcrafter::config
