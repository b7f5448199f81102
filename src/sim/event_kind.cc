#include "src/sim/event_kind.hh"

#include <cxxabi.h>

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/logging.hh"

namespace netcrafter::sim {
namespace {

/** Interned kind names and the per-class callback kinds. */
struct Registry
{
    std::mutex mutex;
    std::vector<std::string> names{"unattributed"};
    std::vector<std::pair<const std::type_info *, EventKind>> classes;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

EventKind
internLocked(Registry &r, const std::string &name)
{
    for (std::size_t i = 0; i < r.names.size(); ++i) {
        if (r.names[i] == name)
            return static_cast<EventKind>(i);
    }
    NC_ASSERT(r.names.size() < kMaxEventKinds,
              "more than ", kMaxEventKinds, " event kinds");
    r.names.push_back(name);
    return static_cast<EventKind>(r.names.size() - 1);
}

/** Last component of a qualified name: "ns::Foo" -> "Foo". */
std::string_view
unqualified(std::string_view name)
{
    const std::size_t args = name.find('<');
    const std::size_t sep = name.substr(0, args).rfind("::");
    return sep == std::string_view::npos ? name : name.substr(sep + 2);
}

/** Unqualified, demangled name of @p type. */
std::string
className(const std::type_info &type)
{
    int status = 0;
    std::unique_ptr<char, void (*)(void *)> demangled(
        abi::__cxa_demangle(type.name(), nullptr, nullptr, &status),
        std::free);
    const std::string_view full =
        status == 0 ? std::string_view(demangled.get()) : type.name();
    return std::string(unqualified(full));
}

} // namespace

EventKind
internEventKind(const std::string &name)
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    return internLocked(r, name);
}

std::string
eventKindName(EventKind kind)
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    NC_ASSERT(kind < r.names.size(), "unknown event kind ", int{kind});
    return r.names[kind];
}

EventKind
callbackEventKind(const std::type_info &type)
{
    Registry &r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto &[t, kind] : r.classes) {
        if (*t == type)
            return kind;
    }
    const EventKind kind =
        internLocked(r, className(type) + "::callback");
    r.classes.emplace_back(&type, kind);
    return kind;
}

std::string
memberHandlerName(const char *pretty_function)
{
    // GCC: "... [with T = ns::C; void (T::* Handler)() = &ns::C::h]";
    // Clang: "... [T = ns::C, Handler = &ns::C::h]".
    const std::string_view pretty(pretty_function);
    const std::size_t amp = pretty.rfind('&');
    if (amp == std::string_view::npos)
        return std::string(pretty);
    std::string_view handler = pretty.substr(amp + 1);
    handler = handler.substr(0, handler.find_first_of("];,) "));
    const std::size_t last = handler.rfind("::");
    if (last == std::string_view::npos || last == 0)
        return std::string(handler);
    const std::size_t prev = handler.rfind("::", last - 1);
    return std::string(prev == std::string_view::npos
                           ? handler
                           : handler.substr(prev + 2));
}

} // namespace netcrafter::sim
