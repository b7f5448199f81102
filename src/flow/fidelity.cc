#include "src/flow/fidelity.hh"

#include <cstdlib>

#include "src/sim/logging.hh"

namespace netcrafter::flow {

const char *
fidelityName(Fidelity f)
{
    switch (f) {
      case Fidelity::Cycle:
        return "cycle";
      case Fidelity::Flow:
        return "flow";
      case Fidelity::Hybrid:
        return "hybrid";
    }
    return "?";
}

std::optional<Fidelity>
parseFidelity(const std::string &text)
{
    if (text == "cycle")
        return Fidelity::Cycle;
    if (text == "flow")
        return Fidelity::Flow;
    if (text == "hybrid")
        return Fidelity::Hybrid;
    return std::nullopt;
}

Fidelity
parseFidelityOrDie(const std::string &text, const char *what)
{
    const auto parsed = parseFidelity(text);
    if (!parsed) {
        NC_FATAL("invalid ", what, " value '", text,
                 "': expected cycle, flow or hybrid");
    }
    return *parsed;
}

std::uint64_t
parseFlowEpochTicksEnv(const char *text)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > (1LL << 30)) {
        NC_FATAL("NETCRAFTER_FLOW_EPOCH_TICKS must be a positive epoch "
                 "length in ticks, got '", text, "'");
    }
    return static_cast<std::uint64_t>(v);
}

std::uint32_t
parseFlowStableEpochsEnv(const char *text)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > (1LL << 20)) {
        NC_FATAL("NETCRAFTER_FLOW_STABLE_EPOCHS must be a positive "
                 "stable-epoch count, got '", text, "'");
    }
    return static_cast<std::uint32_t>(v);
}

std::uint64_t
flowEpochTicksFromEnv(std::uint64_t fallback)
{
    const char *text = std::getenv("NETCRAFTER_FLOW_EPOCH_TICKS");
    if (text == nullptr || *text == '\0')
        return fallback;
    return parseFlowEpochTicksEnv(text);
}

std::uint32_t
flowStableEpochsFromEnv(std::uint32_t fallback)
{
    const char *text = std::getenv("NETCRAFTER_FLOW_STABLE_EPOCHS");
    if (text == nullptr || *text == '\0')
        return fallback;
    return parseFlowStableEpochsEnv(text);
}

} // namespace netcrafter::flow
