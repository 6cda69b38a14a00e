/**
 * @file
 * Span recording for the traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the simulator's public functions; nothing inside the program is
 * instrumented. Each mission (or served job) owns one SpanLog on the
 * thread that drives it; finished logs merge into the process-wide
 * TraceSink, which keeps per-layer totals for every span and writes a
 * bounded prefix of the spans as one Chrome/Perfetto JSON trace.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench {

/** Every span name the benchmark records. */
enum class Layer : uint8_t
{
    Mission,       ///< one traced mission's period loop
    SyncBegin,     ///< Synchronizer::beginPeriod
    SocRun,        ///< SocSim::runPeriod
    SyncEnd,       ///< Synchronizer::endPeriod
    Checkpoint,    ///< CoSimulation::checkpoint
    Capture,       ///< EnvSim::saveState for the replay
    Replay,        ///< stage calls replayed on one captured state
    EnvStepFrame,  ///< EnvSim::stepFrames(1)
    EnvRender,     ///< EnvSim::getImageInto
    ImageEncode,   ///< bridge::encodeImageResp
    ImageDecode,   ///< bridge::decodeImageRespInto
    Frame,         ///< bridge::serializePacket + FrameBuffer::next
    DnnInfer,      ///< dnn::Classifier::infer
    ServeJob,      ///< submit to verified, acked result
    ServeSubmit,   ///< ServeClient::submit
    ServePoll,     ///< a tryFetchResult that found the job unfinished
    ServeFetch,    ///< the completing tryFetchResult
    Count_,
};

constexpr size_t kLayerCount = size_t(Layer::Count_);

/** Span name as written to the trace ("sync.begin", ...). */
const char *layerName(Layer l);

/** Calls and time of one layer, summed over spans. */
struct LayerTotals
{
    uint64_t calls = 0;
    int64_t totalNs = 0;
    /** Part of totalNs covered by child spans. */
    int64_t childNs = 0;
};

/** A span still open; returned by SpanLog::begin. */
struct OpenSpan
{
    Layer layer = Layer::Mission;
    uint32_t id = 0;
    /** Parent span id, 0 for a root. */
    uint32_t parent = 0;
    int parentLayer = -1;
    int64_t startNs = 0;
};

/** The spans of one mission or job, recorded by one thread. */
class SpanLog
{
  public:
    /** @param group mission or job id (the trace's tid). */
    explicit SpanLog(uint64_t group);

    OpenSpan begin(Layer l, const OpenSpan *parent = nullptr);
    void end(const OpenSpan &s);

  private:
    friend class TraceSink;

    struct Span
    {
        Layer layer;
        uint32_t id;
        uint32_t parent;
        int64_t startNs;
        int64_t endNs;
    };

    uint64_t group_;
    uint32_t nextId_ = 1;
    std::array<LayerTotals, kLayerCount> totals_{};
    std::vector<Span> spans_;
};

/** Process-wide collector of finished SpanLogs. Thread-safe. */
class TraceSink
{
  public:
    /** Name a group in the trace (mission label, job id). */
    void nameGroup(uint64_t group, const std::string &name);

    void merge(SpanLog &&log);

    std::array<LayerTotals, kLayerCount> totals() const;

    /** Write the Chrome/Perfetto JSON; @return false on I/O error. */
    bool writeChrome(const std::string &path) const;

    /** Print the per-layer self-time table. */
    void printSelfTime(std::ostream &os) const;

    /** Spans kept for the trace file / recorded in total. */
    size_t keptSpans() const;
    uint64_t recordedSpans() const;

  private:
    mutable std::mutex mu_;
    std::array<LayerTotals, kLayerCount> totals_{};
    std::vector<std::pair<uint64_t, std::string>> groupNames_;
    std::vector<std::pair<uint64_t, SpanLog::Span>> kept_;
    uint64_t recorded_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
