#include "harness.hh"

#include <cinttypes>
#include <cstdio>

namespace perfbench
{

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Tracer::open(std::string name, std::string unit)
{
    Span s;
    s.name = std::move(name);
    s.unit = std::move(unit);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::close(int idx)
{
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
    stack_.pop_back();
}

std::map<std::string, double>
Tracer::selfMs(std::size_t from) const
{
    // Children close before their parent, so each child's duration is
    // subtracted from its parent's once; siblings never overlap.
    std::vector<std::int64_t> self(spans_.size(), 0);
    for (std::size_t i = from; i < spans_.size(); ++i)
        self[i] += spans_[i].endNs - spans_[i].startNs;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const int p = spans_[i].parent;
        if (p >= static_cast<int>(from))
            self[static_cast<std::size_t>(p)] -=
                spans_[i].endNs - spans_[i].startNs;
    }
    std::map<std::string, double> out;
    for (std::size_t i = from; i < spans_.size(); ++i)
        out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
    return out;
}

bool
Tracer::writeJson(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"unit\": \"%s\"}}%s\n",
                     s.name.c_str(), static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                     s.parent, s.unit.c_str(),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::string
ratioBase(const char* num, double n, const char* den, double d)
{
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s %.17g / %s %.17g", num, n, den,
                  d);
    return buf;
}

} // namespace perfbench
