/**
 * @file
 * In-memory span recorder for the benchmark's traced run. The benchmark
 * opens a span around every call it makes into a simulator layer
 * (name "<layer>.<call>", e.g. "gpu.run"); spans keep their parent and
 * the id of the design point they belong to, stay in memory while the
 * run lasts, and are written out once at exit as Chrome-trace JSON.
 */

#ifndef NETCRAFTER_PERFBENCH_SPANS_HH
#define NETCRAFTER_PERFBENCH_SPANS_HH

#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One recorded span. Times are host seconds since the recorder's epoch. */
struct Span
{
    std::string name;
    std::string label;
    int parent = -1;
    int point = -1;
    unsigned lane = 0;
    double start = 0;
    double end = 0;
};

class Spans
{
  public:
    explicit Spans(Clock::time_point epoch) : epoch_(epoch) {}

    /** Open a span starting at @p start; returns its id. */
    int open(std::string name, std::string label, int parent, int point,
             Clock::time_point start, unsigned lane = 0);

    /** Close span @p id at @p end. */
    void close(int id, Clock::time_point end);

    std::size_t size() const { return spans_.size(); }

    /**
     * Self seconds per layer (the span name up to its first '.') over
     * spans [@p first, size()): each span's duration minus the part of
     * it that its children's intervals cover.
     */
    std::map<std::string, double> selfSecondsByLayer(std::size_t first) const;

    /**
     * Write every span as Chrome-trace "X" slices, one thread lane per
     * Span::lane, with @p meta as string metadata under "otherData".
     */
    void writeChromeTrace(
        std::ostream &os,
        const std::vector<std::pair<std::string, std::string>> &meta) const;

  private:
    double seconds(Clock::time_point t) const
    {
        return std::chrono::duration<double>(t - epoch_).count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/**
 * A timed call: measures host seconds from construction to close(), and
 * also records a span when given a recorder. Untraced passes pass null
 * and pay only the two clock reads every timed call needs anyway.
 */
class Section
{
  public:
    Section(Spans *spans, std::string name, std::string label = {},
            int parent = -1, int point = -1);

    /** Stop the clock; returns the section's host seconds. */
    double close();

    /** Span id (-1 when untraced). */
    int id() const { return id_; }

  private:
    Spans *spans_;
    int id_ = -1;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // NETCRAFTER_PERFBENCH_SPANS_HH
