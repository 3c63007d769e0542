#include "trace.hh"

#include <cstdio>
#include <fstream>

namespace sagebench
{

namespace
{

Recorder *g_recorder = nullptr;

/** Per-thread state: a stable small thread number and the open-span
 *  stack that gives each new span its parent. */
struct ThreadState
{
    const Recorder *owner = nullptr;
    unsigned tid = 0;
    std::vector<std::int64_t> stack;
};

thread_local ThreadState t_state;

} // namespace

Recorder *
activeRecorder()
{
    return g_recorder;
}

void
setActiveRecorder(Recorder *recorder)
{
    g_recorder = recorder;
}

Recorder::Recorder() : origin_(std::chrono::steady_clock::now())
{
    spans_.reserve(1 << 16);
}

std::int64_t
Recorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::int64_t
Recorder::open(const char *name, std::uint64_t id)
{
    ThreadState &ts = t_state;
    SpanRecord rec;
    rec.name = name;
    rec.id = id;
    rec.parent = ts.stack.empty() ? -1 : ts.stack.back();
    std::int64_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ts.owner != this) {
            ts.owner = this;
            ts.tid = next_tid_++;
            ts.stack.clear();
            rec.parent = -1;
        }
        rec.tid = ts.tid;
        rec.start_ns = nowNs();
        index = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(rec);
    }
    ts.stack.push_back(index);
    return index;
}

void
Recorder::close(std::int64_t index)
{
    const std::int64_t end = nowNs();
    t_state.stack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<std::int64_t>
Recorder::selfTimes() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durationNs();
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.durationNs();
    return self;
}

bool
Recorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::vector<std::int64_t> self = selfTimes();
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"span\":%zu,\"parent\":%lld,\"id\":%llu,"
                      "\"self_us\":%.3f}}",
                      i ? ",\n" : "", s.name, s.tid, s.start_ns / 1e3,
                      s.durationNs() / 1e3, i,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.id),
                      self[i] / 1e3);
        os << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace sagebench
