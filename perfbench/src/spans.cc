#include "spans.hh"

#include <algorithm>
#include <numeric>
#include <ostream>

namespace perfbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Length of the union of @p ivs clipped to [lo, hi]. */
double
coveredSeconds(std::vector<std::pair<double, double>> ivs, double lo,
               double hi)
{
    std::sort(ivs.begin(), ivs.end());
    double covered = 0;
    double cur_lo = lo, cur_hi = lo;
    for (auto [a, b] : ivs) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (a > cur_hi) {
            covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    return covered + (cur_hi - cur_lo);
}

} // namespace

int
Spans::open(std::string name, std::string label, int parent, int point,
            Clock::time_point start, unsigned lane)
{
    Span s;
    s.name = std::move(name);
    s.label = std::move(label);
    s.parent = parent;
    s.point = point;
    s.lane = lane;
    s.start = seconds(start);
    s.end = s.start;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
Spans::close(int id, Clock::time_point end)
{
    spans_.at(static_cast<std::size_t>(id)).end = seconds(end);
}

std::map<std::string, double>
Spans::selfSecondsByLayer(std::size_t first) const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const int p = spans_[i].parent;
        if (p >= 0)
            children[static_cast<std::size_t>(p)].emplace_back(
                spans_[i].start, spans_[i].end);
    }
    std::map<std::string, double> self;
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += (s.end - s.start) -
                       coveredSeconds(children[i], s.start, s.end);
    }
    return self;
}

void
Spans::writeChromeTrace(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    // The validator wants slices in non-decreasing ts order per lane;
    // a parent sorts before a child that starts with it.
    std::vector<std::size_t> order(spans_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         const Span &x = spans_[a], &y = spans_[b];
                         if (x.lane != y.lane)
                             return x.lane < y.lane;
                         if (x.start != y.start)
                             return x.start < y.start;
                         return x.end > y.end;
                     });

    unsigned lanes = 0;
    for (const Span &s : spans_)
        lanes = std::max(lanes, s.lane + 1);

    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    for (std::size_t i = 0; i < meta.size(); ++i) {
        os << (i ? "," : "") << jsonString(meta[i].first) << ":"
           << jsonString(meta[i].second);
    }
    os << "},\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"perfbench\"}}";
    for (unsigned l = 0; l < lanes; ++l) {
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << l << ",\"args\":{\"name\":\""
           << (l == 0 ? std::string("bench") :
                        "worker " + std::to_string(l))
           << "\"}}";
    }
    os.precision(3);
    os << std::fixed;
    for (std::size_t i : order) {
        const Span &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        os << ",\n{\"name\":" << jsonString(s.name)
           << ",\"cat\":" << jsonString(layer)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
           << ",\"ts\":" << s.start * 1e6
           << ",\"dur\":" << (s.end - s.start) * 1e6
           << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
           << ",\"point\":" << s.point
           << ",\"label\":" << jsonString(s.label) << "}}";
    }
    os << "\n]}\n";
}

Section::Section(Spans *spans, std::string name, std::string label,
                 int parent, int point)
    : spans_(spans), start_(Clock::now())
{
    if (spans_ != nullptr)
        id_ = spans_->open(std::move(name), std::move(label), parent,
                           point, start_);
}

double
Section::close()
{
    const Clock::time_point end = Clock::now();
    if (spans_ != nullptr)
        spans_->close(id_, end);
    return std::chrono::duration<double>(end - start_).count();
}

} // namespace perfbench
