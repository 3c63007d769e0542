/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * A span is one timed call into a program layer: name, start, end, the
 * span open on the same thread when it began (its parent), and the
 * batch or request id it served. Spans stay in memory while the run
 * measures and are written once at exit as Chrome trace-event JSON
 * (chrome://tracing, ui.perfetto.dev). With no recorder installed a
 * Span costs one pointer test, and the untraced runs never install one.
 */

#ifndef SAGEBENCH_TRACE_HH
#define SAGEBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sagebench
{

/** One recorded span; times are nanoseconds since the recorder began. */
struct SpanRecord
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1; //!< -1 while open
    std::int64_t parent = -1; //!< index of the enclosing span, or -1
    std::uint64_t id = 0;     //!< batch or request id
    unsigned tid = 0;         //!< small per-thread number

    std::int64_t durationNs() const { return end_ns - start_ns; }
};

/** Thread-safe span store. */
class Recorder
{
  public:
    Recorder();

    /** Open a span on the calling thread; returns its index. */
    std::int64_t open(const char *name, std::uint64_t id);

    /** Close span @p index (the innermost open one on this thread). */
    void close(std::int64_t index);

    /** Nanoseconds since construction. */
    std::int64_t nowNs() const;

    /** Every span; call only after the threads that record are done. */
    const std::vector<SpanRecord> &spans() const { return spans_; }
    std::vector<SpanRecord> &spans() { return spans_; }

    /** Self time of span @p index: duration minus its children's. */
    std::vector<std::int64_t> selfTimes() const;

    /** Write the Chrome trace-event JSON document to @p path. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::mutex mutex_; // guards spans_ and next_tid_
    std::vector<SpanRecord> spans_;
    unsigned next_tid_ = 0;
};

/** The recorder of the current traced run; null when untraced. */
Recorder *activeRecorder();
void setActiveRecorder(Recorder *recorder);

/** RAII span on the active recorder (no-op when there is none). */
class Span
{
  public:
    Span(const char *name, std::uint64_t id = 0)
        : rec_(activeRecorder()), index_(rec_ ? rec_->open(name, id) : -1)
    {
    }
    ~Span()
    {
        if (rec_)
            rec_->close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Recorder *rec_;
    std::int64_t index_;
};

} // namespace sagebench

#endif // SAGEBENCH_TRACE_HH
