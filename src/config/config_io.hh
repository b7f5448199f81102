/**
 * @file
 * Textual serialization of SystemConfig as `key = value` lines, so
 * experiment configurations can be logged alongside results and loaded
 * back for exact reruns.
 */

#ifndef NETCRAFTER_CONFIG_CONFIG_IO_HH
#define NETCRAFTER_CONFIG_CONFIG_IO_HH

#include <iosfwd>
#include <string>

#include "src/config/system_config.hh"

namespace netcrafter::config {

/** Write every field of @p cfg as `key = value` lines. */
void writeConfig(const SystemConfig &cfg, std::ostream &os);

/** writeConfig into a string. */
std::string configToString(const SystemConfig &cfg);

/**
 * Parse `key = value` lines (comments start with '#', blank lines
 * ignored) over @p base; unknown keys are fatal (catches typos), and
 * so is a result that SystemConfig::validate() rejects.
 */
SystemConfig parseConfig(std::istream &is,
                         const SystemConfig &base = SystemConfig{});

/** parseConfig from a string. */
SystemConfig parseConfigString(const std::string &text,
                               const SystemConfig &base = SystemConfig{});

/** Name of a sequencing mode for serialization. */
const char *sequencingModeName(SequencingMode mode);

/** Name of an L1 fill mode for serialization. */
const char *l1FillModeName(L1FillMode mode);

} // namespace netcrafter::config

#endif // NETCRAFTER_CONFIG_CONFIG_IO_HH
