#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <tuple>

#include "core/hash.h"
#include "core/logging.h"

namespace sov::obs {

namespace {

/** Process-unique recorder ids so the TLS cache can never alias a
 *  destroyed recorder that was reallocated at the same address. */
std::atomic<std::uint64_t> next_recorder_id{1};

/** TLS fast path: the last recorder this thread emitted into. */
thread_local std::uint64_t tls_recorder_id = 0;
thread_local void *tls_buffer = nullptr;

std::atomic<TraceRecorder *> active_recorder{nullptr};

std::int64_t
wallNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Logging sink: land the dying message as a final instant in the
 *  active recorder, then dump its trace if a crash path is set. */
void
logCaptureSink(LogLevel level, const char *msg, const char *file, int line)
{
    (void)file;
    (void)line;
    if (level != LogLevel::Fatal && level != LogLevel::Panic)
        return;
    TraceRecorder *rec = TraceRecorder::active();
    if (!rec)
        return;
    const NameId name = rec->intern(msg ? msg : "");
    const NameId cat =
        rec->intern(level == LogLevel::Panic ? "panic" : "fatal");
    const NameId track = rec->intern("log");
    rec->instant(name, cat, track, rec->lastEventTime());
    rec->dumpCrashTrace();
}

/** Escape for a JSON string literal (control chars, quote, bslash). */
void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** Nanoseconds as a decimal microsecond literal with ns precision. */
void
writeMicros(std::ostream &os, std::int64_t ns)
{
    const bool neg = ns < 0;
    const std::uint64_t mag =
        neg ? static_cast<std::uint64_t>(-(ns + 1)) + 1
            : static_cast<std::uint64_t>(ns);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64 ".%03" PRIu64,
                  neg ? "-" : "", mag / 1000, mag % 1000);
    os << buf;
}

void
writeDouble(std::ostream &os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os << buf;
}

} // namespace

TraceRecorder::TraceRecorder(TraceConfig config)
    : config_(config),
      id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed))
{
    SOV_ASSERT(config_.ring_capacity > 0);
    names_.push_back(std::string());
    ids_.emplace(std::string(), 0);
}

TraceRecorder::~TraceRecorder()
{
    TraceRecorder *self = this;
    active_recorder.compare_exchange_strong(self, nullptr);
}

NameId
TraceRecorder::intern(std::string_view s)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = ids_.find(s);
    if (it != ids_.end())
        return it->second;
    const NameId id = static_cast<NameId>(names_.size());
    names_.emplace_back(s);
    ids_.emplace(names_.back(), id);
    return id;
}

std::string
TraceRecorder::name(NameId id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    SOV_ASSERT(id < names_.size());
    return names_[id];
}

TraceRecorder::ThreadBuffer &
TraceRecorder::localBuffer()
{
    if (tls_recorder_id == id_)
        return *static_cast<ThreadBuffer *>(tls_buffer);

    std::lock_guard<std::mutex> lock(mu_);
    const std::thread::id self = std::this_thread::get_id();
    ThreadBuffer *buffer = nullptr;
    for (const auto &b : buffers_) {
        if (b->owner == self) {
            buffer = b.get();
            break;
        }
    }
    if (!buffer) {
        auto fresh = std::make_unique<ThreadBuffer>();
        fresh->arena =
            FrameArena(config_.ring_capacity * sizeof(TraceEvent));
        fresh->owner = self;
        fresh->capacity = config_.ring_capacity;
        fresh->ring = fresh->arena.alloc<TraceEvent>(fresh->capacity);
        buffer = fresh.get();
        buffers_.push_back(std::move(fresh));
    }
    tls_recorder_id = id_;
    tls_buffer = buffer;
    return *buffer;
}

void
TraceRecorder::emit(const TraceEvent &event)
{
    ThreadBuffer &b = localBuffer();
    TraceEvent &slot = b.ring[b.head];
    slot = event;
    if (config_.wall_clock)
        slot.wall_ns = wallNowNs();
    b.head = b.head + 1 == b.capacity ? 0 : b.head + 1;
    ++b.written;
    last_ts_.store(event.ts_ns, std::memory_order_relaxed);
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &b : buffers_)
        n += std::min<std::uint64_t>(b->written, b->capacity);
    return n;
}

std::uint64_t
TraceRecorder::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const auto &b : buffers_)
        n += b->written > b->capacity ? b->written - b->capacity : 0;
    return n;
}

std::size_t
TraceRecorder::systemAllocations() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &b : buffers_)
        n += b->arena.systemAllocations();
    return n;
}

void
TraceRecorder::drainBuffer(const ThreadBuffer &buffer,
                           std::vector<TraceEvent> &out) const
{
    if (buffer.written <= buffer.capacity) {
        out.insert(out.end(), buffer.ring, buffer.ring + buffer.written);
        return;
    }
    // Wrapped: oldest surviving event sits at head.
    out.insert(out.end(), buffer.ring + buffer.head,
               buffer.ring + buffer.capacity);
    out.insert(out.end(), buffer.ring, buffer.ring + buffer.head);
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceEvent> events;
    std::size_t total = 0;
    for (const auto &b : buffers_)
        total += std::min<std::uint64_t>(b->written, b->capacity);
    events.reserve(total);
    for (const auto &b : buffers_)
        drainBuffer(*b, events);

    // Canonical content order: which thread's ring held an event must
    // not influence the exported timeline or the fingerprint.
    const auto &names = names_;
    std::stable_sort(
        events.begin(), events.end(),
        [&names](const TraceEvent &a, const TraceEvent &b) {
            return std::tie(a.ts_ns, a.kind, names[a.category],
                            names[a.name], names[a.track], a.frame,
                            a.dur_ns, a.value) <
                   std::tie(b.ts_ns, b.kind, names[b.category],
                            names[b.name], names[b.track], b.frame,
                            b.dur_ns, b.value);
        });
    return events;
}

std::uint64_t
TraceRecorder::fingerprint() const
{
    const std::vector<TraceEvent> events = snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t h = kFnv1aOffset;
    for (const TraceEvent &e : events) {
        fnv1aPod(h, static_cast<std::uint8_t>(e.kind));
        fnv1aTerminatedString(h, names_[e.name]);
        fnv1aTerminatedString(h, names_[e.category]);
        fnv1aTerminatedString(h, names_[e.track]);
        fnv1aPod(h, e.ts_ns);
        fnv1aPod(h, e.dur_ns);
        fnv1aPod(h, e.frame);
        fnv1aPod(h, e.value);
        // wall_ns deliberately excluded: wall time is diagnostics,
        // never part of the determinism contract.
    }
    return h;
}

void
TraceRecorder::writeChromeTrace(std::ostream &os) const
{
    const std::vector<TraceEvent> events = snapshot();

    std::vector<std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu_);
        names = names_;
    }

    // Stable track -> tid mapping, sorted by track name.
    std::map<std::string, int> tids;
    for (const TraceEvent &e : events)
        tids.emplace(names[e.track], 0);
    int next_tid = 0;
    for (auto &kv : tids)
        kv.second = next_tid++;

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &[track, tid] : tids) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":"
           << tid << ",\"args\":{\"name\":";
        writeJsonString(os, track.empty() ? std::string("main") : track);
        os << "}}";
    }
    for (const TraceEvent &e : events) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":";
        writeJsonString(os, names[e.name]);
        if (e.category != 0) {
            os << ",\"cat\":";
            writeJsonString(os, names[e.category]);
        }
        switch (e.kind) {
          case EventKind::Span:
            os << ",\"ph\":\"X\",\"ts\":";
            writeMicros(os, e.ts_ns);
            os << ",\"dur\":";
            writeMicros(os, e.dur_ns);
            break;
          case EventKind::Instant:
            os << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
            writeMicros(os, e.ts_ns);
            break;
          case EventKind::Counter:
            os << ",\"ph\":\"C\",\"ts\":";
            writeMicros(os, e.ts_ns);
            break;
        }
        os << ",\"pid\":0,\"tid\":" << tids.at(names[e.track])
           << ",\"args\":{";
        if (e.kind == EventKind::Counter) {
            os << "\"value\":";
            writeDouble(os, e.value);
        } else {
            os << "\"frame\":" << e.frame;
        }
        if (e.wall_ns != 0) {
            // Wall time rides along as an annotation only; ts/dur
            // above are pure sim time.
            os << ",\"wall_us\":";
            writeMicros(os, e.wall_ns);
        }
        os << "}}";
    }
    os << "\n]}\n";
}

bool
TraceRecorder::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeChromeTrace(out);
    return out.good();
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &b : buffers_) {
        b->head = 0;
        b->written = 0;
    }
    last_ts_.store(0, std::memory_order_relaxed);
}

void
TraceRecorder::setActive(TraceRecorder *recorder)
{
    active_recorder.store(recorder, std::memory_order_release);
    if (recorder)
        setLogSink(&logCaptureSink);
}

TraceRecorder *
TraceRecorder::active()
{
    return active_recorder.load(std::memory_order_acquire);
}

void
TraceRecorder::setCrashDumpPath(std::string path)
{
    std::lock_guard<std::mutex> lock(mu_);
    crash_dump_path_ = std::move(path);
}

void
TraceRecorder::dumpCrashTrace() const
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mu_);
        path = crash_dump_path_;
    }
    if (!path.empty())
        writeChromeTraceFile(path);
}

} // namespace sov::obs
