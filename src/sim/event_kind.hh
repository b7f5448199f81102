/**
 * @file
 * Event kinds: the keys of the per-handler event ledger. Every Event
 * carries a one-byte kind. A MemberEvent's kind names its handler
 * ("ComputeUnit::dispatchCycle"); a pooled one-shot callback's kind
 * names the class that scheduled it ("L1Cache::callback"). Each engine
 * counts its executed events per kind (Engine::eventsByKind()), and
 * MultiGpuSystem::collectStats() exports the sums as
 * `sim.events.<kind name>`.
 *
 * Kind ids are interned process-wide on first use, so an id depends on
 * the order in which threads first meet its kind; the name does not.
 * Compare ledgers by name.
 */

#ifndef NETCRAFTER_SIM_EVENT_KIND_HH
#define NETCRAFTER_SIM_EVENT_KIND_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <typeinfo>

namespace netcrafter::sim {

/** Ledger key of an event (see the file comment). */
using EventKind = std::uint8_t;

/** Kind ids are one byte. */
inline constexpr std::size_t kMaxEventKinds = 256;

/** Events scheduled without a kind (tests); named "unattributed". */
inline constexpr EventKind kUnattributed = 0;

/** The id of @p name, interning it on first use. Thread-safe. */
EventKind internEventKind(const std::string &name);

/** The name of @p kind. Thread-safe. */
std::string eventKindName(EventKind kind);

/** Kind of the pooled callbacks that objects of @p type schedule. */
EventKind callbackEventKind(const std::type_info &type);

/** Kind of the pooled callbacks that objects of class @p T schedule. */
template <typename T>
EventKind
callbackEventKind()
{
    static const EventKind kind = callbackEventKind(typeid(T));
    return kind;
}

/**
 * "Class::handler" from the __PRETTY_FUNCTION__ of memberEventKind(),
 * whose template argument list ends with "&ns::Class::handler".
 */
std::string memberHandlerName(const char *pretty_function);

/** Kind of MemberEvent<T, Handler>: "Class::handler". */
template <typename T, void (T::*Handler)()>
EventKind
memberEventKind()
{
    static const EventKind kind =
        internEventKind(memberHandlerName(__PRETTY_FUNCTION__));
    return kind;
}

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_EVENT_KIND_HH
