/**
 * @file
 * The two workload runners and what they report.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace.hh"
#include "workload.hh"

namespace rose::serve {
class MissionServer;
}

namespace perfbench {

struct RunOptions
{
    /** Host seconds to measure. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
};

/** Work counts of one mission, read from the components' public stats. */
struct MissionCounts
{
    uint64_t periods = 0;
    uint64_t imageRequests = 0;
    uint64_t frames = 0;
    uint64_t inferences = 0;
    uint64_t actions = 0;
    uint64_t mmioReads = 0;
    uint64_t simCycles = 0;
};

/** What a workload run reports. */
struct RunOutput
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** One line per failure or mismatch. */
    std::vector<std::string> errors;
    /** Digest of one round of the workload (see missionDigest). */
    uint64_t simDigest = 0;
    /** Simulated work of that round. */
    SimBase round;
    TraceSink sink;

    void fail(const std::string &why)
    {
        ++failed;
        errors.push_back(why);
    }

    /** Fill in a declared metric; throws std::logic_error on a name
     *  that was never declared. */
    void set(const std::string &name, double value, size_t samples,
             const std::string &base = "");
};

/** Warm the artifact caches every mission of @p w reads. */
void warmCaches(const Workload &w);

/** Traced-run helpers shared by both runners. */
struct TracedMission
{
    uint64_t digest = 0;
    bool failed = false;
    std::string error;
    MissionCounts counts;
    /** EnvSim states captured every kProbePeriods (probe runs only). */
    std::vector<std::vector<uint8_t>> captures;
};

/**
 * Drive one mission's period loop through CoSimulation's component
 * accessors, timing each stage. With @p probe, also time
 * CoSimulation::checkpoint and capture the environment state every
 * kProbePeriods periods.
 */
TracedMission runTracedMission(const rose::core::CosimConfig &cfg,
                               uint64_t group, bool probe,
                               TraceSink &sink);

/**
 * Replay the frame stages (render, image encode/decode, framing,
 * inference, one frame step) on each captured environment state.
 * @return false when a replayed frame fails to round-trip.
 */
bool replayCaptures(const rose::core::CosimConfig &cfg,
                    const std::vector<std::vector<uint8_t>> &captures,
                    uint64_t group, TraceSink &sink);

/** Per-layer metrics read from the sink's totals (layers 1-3 of the
 *  metric table: sync, soc, core, env, bridge, dnn). */
void addLayerMetrics(RunOutput &out);

/** Mean per-mission work counts as metrics, plus a per-mission table. */
void addCountMetrics(RunOutput &out,
                     const std::vector<rose::core::MissionSpec> &specs,
                     const std::vector<MissionCounts> &counts,
                     std::ostream &log);

/** Local sweep (BatchRunner / parallelIndexed over CoSimulation). */
void runLocal(const Workload &w, const RunOptions &opt, RunOutput &out,
              std::ostream &log);

/** rosed path against an already started in-process server. */
void runServed(const Workload &w, rose::serve::MissionServer &server,
               const RunOptions &opt, RunOutput &out, std::ostream &log);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
