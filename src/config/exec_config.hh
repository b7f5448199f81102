/**
 * @file
 * Execution-policy knobs: how many host threads drive the shard
 * engines. Pure execution details — no knob here can change a
 * simulation result, which is why they live outside SystemConfig and
 * its digest.
 */

#ifndef NETCRAFTER_CONFIG_EXEC_CONFIG_HH
#define NETCRAFTER_CONFIG_EXEC_CONFIG_HH

#include "src/sim/sharded_engine.hh"

namespace netcrafter::config {

/**
 * Parse one NETCRAFTER_THREADS value: 0 (one thread per shard) or a
 * positive executor-thread count (sanely capped at 65536; the engine
 * clamps to the shard count). Negative numbers and garbage are fatal —
 * silently running one thread on a typo would make every speedup
 * number lie.
 */
unsigned parseThreadsEnv(const char *text);

/**
 * Build an ExecPolicy from the NETCRAFTER_THREADS environment
 * variable, starting from the default (one thread per shard). An unset
 * variable leaves the field untouched; an invalid value is fatal.
 */
sim::ExecPolicy execPolicyFromEnv();

} // namespace netcrafter::config

#endif // NETCRAFTER_CONFIG_EXEC_CONFIG_HH
