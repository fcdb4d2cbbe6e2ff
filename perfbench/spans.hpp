/**
 * @file
 * Host-clock spans recorded by the benchmark around its calls into
 * each layer. They stay in memory, never touch obs::Tracer (so the
 * simulator's sim-clock traces are unaffected), and are written as
 * Chrome-trace JSON when the run ends.
 *
 * Every span names either a layer ("graph", "vpps.fb", ...) or a
 * frame (the run, a pass, a measurement point). A span's self time
 * is its duration minus the time its direct children cover; summing
 * layer self times plus the frames' self times ("other") gives the
 * root's duration exactly, because all arithmetic is in integer
 * nanoseconds and spans are properly nested.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

class HostSpans
{
  public:
    enum class Kind : std::uint8_t
    {
        Frame, //!< bench structure; self time counts as "other"
        Layer, //!< a call into one simulator layer
    };

    struct Span
    {
        std::string name;
        Kind kind = Kind::Layer;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1; //!< -1 while open
        int parent = -1;
        std::int64_t id = -1; //!< batch, request or pass id
    };

    /** Per-layer self time under one root span. */
    struct SelfTimes
    {
        std::map<std::string, std::int64_t> layer_ns;
        std::int64_t other_ns = 0;
        std::int64_t wall_ns = 0;
    };

    HostSpans() : origin_(std::chrono::steady_clock::now()) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one. @return its index,
     *  or -1 when recording is off. */
    int
    open(std::string name, Kind kind, std::int64_t id = -1)
    {
        if (!enabled_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), kind, nowNs(), -1, parent, id});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    /** Close span @p index, which must be the innermost open one;
     *  anything else marks the record broken (selfTimes() throws). */
    void
    close(int index) noexcept
    {
        if (index < 0)
            return;
        if (stack_.empty() || stack_.back() != index) {
            broken_ = true;
            return;
        }
        spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
        stack_.pop_back();
    }

    /** Record a finished span directly (tests). */
    int
    add(std::string name, Kind kind, std::int64_t start_ns,
        std::int64_t end_ns, int parent, std::int64_t id = -1)
    {
        spans_.push_back(
            {std::move(name), kind, start_ns, end_ns, parent, id});
        return static_cast<int>(spans_.size() - 1);
    }

    /**
     * Self times of every span in the subtree of @p root, summed per
     * layer name; frames' self times go to other_ns. Throws if a
     * child lies outside its parent or overlaps a sibling, since
     * self time would then be meaningless.
     */
    SelfTimes
    selfTimes(int root) const
    {
        if (broken_)
            throw std::logic_error("spans were closed out of order");
        const std::size_t n = spans_.size();
        std::vector<std::vector<int>> children(n);
        for (std::size_t i = 0; i < n; ++i)
            if (spans_[i].parent >= 0)
                children[static_cast<std::size_t>(spans_[i].parent)]
                    .push_back(static_cast<int>(i));
        SelfTimes out;
        const Span& r = at(root);
        out.wall_ns = r.end_ns - r.start_ns;
        std::vector<int> todo{root};
        while (!todo.empty()) {
            const int s = todo.back();
            todo.pop_back();
            const Span& sp = at(s);
            std::int64_t covered = 0;
            std::int64_t last_end = sp.start_ns;
            for (int c : children[static_cast<std::size_t>(s)]) {
                const Span& ch = at(c);
                if (ch.start_ns < last_end || ch.end_ns > sp.end_ns ||
                    ch.end_ns < ch.start_ns)
                    throw std::logic_error("span '" + ch.name +
                                           "' is not nested in '" +
                                           sp.name + "'");
                last_end = ch.end_ns;
                covered += ch.end_ns - ch.start_ns;
                todo.push_back(c);
            }
            const std::int64_t self = sp.end_ns - sp.start_ns - covered;
            if (sp.kind == Kind::Layer)
                out.layer_ns[sp.name] += self;
            else
                out.other_ns += self;
        }
        return out;
    }

    /** Total duration and count of closed spans named @p name. */
    std::int64_t
    totalNs(const std::string& name, std::size_t* count = nullptr) const
    {
        std::int64_t sum = 0;
        std::size_t k = 0;
        for (const Span& s : spans_)
            if (s.name == name && s.end_ns >= 0) {
                sum += s.end_ns - s.start_ns;
                ++k;
            }
        if (count != nullptr)
            *count = k;
        return sum;
    }

    /** Chrome-trace JSON ("X" events, microseconds with ns digits). */
    std::string
    chromeTrace() const
    {
        std::string out = "{\"traceEvents\":[\n";
        char buf[96];
        bool first = true;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            if (s.end_ns < 0)
                continue;
            out += first ? "" : ",\n";
            first = false;
            out += "{\"name\":\"" + s.name + "\",\"cat\":\"";
            out += s.kind == Kind::Layer ? "layer" : "frame";
            std::snprintf(buf, sizeof buf,
                          "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,",
                          static_cast<double>(s.start_ns) * 1e-3,
                          static_cast<double>(s.end_ns - s.start_ns) *
                              1e-3);
            out += buf;
            std::snprintf(buf, sizeof buf,
                          "\"pid\":1,\"tid\":1,\"args\":{\"span\":%zu,"
                          "\"parent\":%d,\"id\":%lld}}",
                          i, s.parent, static_cast<long long>(s.id));
            out += buf;
        }
        out += "\n]}\n";
        return out;
    }

  private:
    const Span&
    at(int i) const
    {
        if (i < 0 || static_cast<std::size_t>(i) >= spans_.size() ||
            spans_[static_cast<std::size_t>(i)].end_ns < 0)
            throw std::logic_error("span index out of range or open");
        return spans_[static_cast<std::size_t>(i)];
    }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    std::chrono::steady_clock::time_point origin_;
    bool enabled_ = false;
    bool broken_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(HostSpans& spans, std::string name,
              HostSpans::Kind kind = HostSpans::Kind::Layer,
              std::int64_t id = -1)
        : spans_(spans), index_(spans.open(std::move(name), kind, id))
    {
    }
    ~SpanScope() { spans_.close(index_); }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    HostSpans& spans_;
    int index_;
};

} // namespace perfbench
