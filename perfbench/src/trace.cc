#include "trace.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {

/** Child spans one log keeps for the trace file (its totals keep
 *  all). */
constexpr size_t kMaxSpansPerLog = 16384;
/** Spans the trace file keeps across all logs. */
constexpr size_t kMaxKeptSpans = 60000;

const Clock::time_point kEpoch = Clock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (uint8_t(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

const char *
layerName(Layer l)
{
    static const char *const names[kLayerCount] = {
        "core.mission",       "sync.begin",          "soc.run",
        "sync.end",           "core.checkpoint",     "env.save_state",
        "replay",             "env.step_frame",      "env.render",
        "bridge.image_encode", "bridge.image_decode", "bridge.frame",
        "dnn.infer",          "serve.job",           "serve.submit",
        "serve.poll",         "serve.fetch",
    };
    return names[size_t(l)];
}

SpanLog::SpanLog(uint64_t group) : group_(group) {}

OpenSpan
SpanLog::begin(Layer l, const OpenSpan *parent)
{
    OpenSpan s;
    s.layer = l;
    s.id = nextId_++;
    if (parent) {
        s.parent = parent->id;
        s.parentLayer = int(parent->layer);
    }
    s.startNs = nowNs();
    return s;
}

void
SpanLog::end(const OpenSpan &s)
{
    const int64_t end_ns = nowNs();
    const int64_t dur = end_ns - s.startNs;
    LayerTotals &t = totals_[size_t(s.layer)];
    ++t.calls;
    t.totalNs += dur;
    if (s.parentLayer >= 0)
        totals_[size_t(s.parentLayer)].childNs += dur;
    // Root spans (mission, replay, job) are kept past the cap so the
    // file still shows every kept group's extent.
    if (spans_.size() < kMaxSpansPerLog || s.parent == 0)
        spans_.push_back({s.layer, s.id, s.parent, s.startNs, end_ns});
}

void
TraceSink::nameGroup(uint64_t group, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    groupNames_.emplace_back(group, name);
}

void
TraceSink::merge(SpanLog &&log)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < kLayerCount; ++i) {
        totals_[i].calls += log.totals_[i].calls;
        totals_[i].totalNs += log.totals_[i].totalNs;
        totals_[i].childNs += log.totals_[i].childNs;
        recorded_ += log.totals_[i].calls;
    }
    for (const SpanLog::Span &s : log.spans_) {
        if (kept_.size() >= kMaxKeptSpans)
            break;
        kept_.emplace_back(log.group_, s);
    }
}

std::array<LayerTotals, kLayerCount>
TraceSink::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
}

size_t
TraceSink::keptSpans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return kept_.size();
}

uint64_t
TraceSink::recordedSpans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
}

bool
TraceSink::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    // Complete ("X") events; tid groups the spans of one mission or
    // job, args carry the span id, its parent and its end.
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",\n";
        first = false;
    };
    for (const auto &[group, name] : groupNames_) {
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
            << "\"tid\":" << group << ",\"args\":{\"name\":\""
            << jsonEscape(name) << "\"}}";
    }
    char buf[320];
    for (const auto &[group, s] : kept_) {
        sep();
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
            ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"group\":%" PRIu64
            ",\"id\":%u,\"parent\":%u,\"start_us\":%.3f,"
            "\"end_us\":%.3f}}",
            layerName(s.layer), group, double(s.startNs) / 1e3,
            double(s.endNs - s.startNs) / 1e3, group, s.id, s.parent,
            double(s.startNs) / 1e3, double(s.endNs) / 1e3);
        out << buf;
    }
    out << "\n]}\n";
    return bool(out);
}

void
TraceSink::printSelfTime(std::ostream &os) const
{
    auto totals = this->totals();
    os << "# per-layer self time (self = span time minus child spans)\n";
    os << std::left << std::setw(22) << "# layer" << std::right
       << std::setw(10) << "calls" << std::setw(14) << "total_ms"
       << std::setw(14) << "self_ms" << std::setw(12) << "mean_us"
       << "\n";
    for (size_t i = 0; i < kLayerCount; ++i) {
        const LayerTotals &t = totals[i];
        if (t.calls == 0)
            continue;
        os << "# " << std::left << std::setw(20) << layerName(Layer(i))
           << std::right << std::setw(10) << t.calls << std::fixed
           << std::setprecision(3) << std::setw(14)
           << double(t.totalNs) / 1e6 << std::setw(14)
           << double(t.totalNs - t.childNs) / 1e6 << std::setw(12)
           << double(t.totalNs) / 1e3 / double(t.calls) << "\n"
           << std::defaultfloat;
    }
}

} // namespace perfbench
