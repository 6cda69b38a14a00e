/**
 * @file
 * Seeded workload generator and the shared plumbing of the mission-path
 * benchmark: metric records, percentiles, and the simulated-outcome
 * digest that every run checks.
 *
 * The program under test only ever sees the MissionSpecs generated
 * here; everything else (timing, digests, traces) is the benchmark's.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Worker threads of every workload (BatchRunner jobs, rosed workers). */
constexpr int kWorkers = 2;

/** Fewest timed missions per run, so p90 has ten samples beyond it. */
constexpr size_t kMinSamples = 100;

/** One named workload: a fixed round of missions, run repeatedly. */
struct Workload
{
    uint64_t seed = 0;
    /** Missions go through rosed (MissionServer + ServeClient)
     *  instead of a local batch. */
    bool served = false;
    rose::core::TransportKind transport =
        rose::core::TransportKind::InProcess;
    /** One round in submission order; per-mission seeds derive from
     *  the workload seed. */
    std::vector<rose::core::MissionSpec> specs;

    /** The co-simulation configuration of one of the specs. */
    rose::core::CosimConfig config(const rose::core::MissionSpec &s) const;
};

/** Generate a workload; throws std::invalid_argument on a bad name. */
Workload makeWorkload(const std::string &name, uint64_t seed);

/** One reported number with its unit and sample count. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
    /** What a ratio is taken over ("" when not a ratio). */
    std::string base;
};

/** Nearest-rank percentile (@p q in [0, 1]); 0 for an empty set. */
double percentile(std::vector<double> v, double q);

/** Text form of the SoC counters that enter a mission digest. */
std::string socStatsText(const rose::soc::SocStats &s);

/** FNV-1a over a mission's canonical trajectory CSV and its counters. */
uint64_t missionDigest(const std::string &trajectory_csv,
                       const std::string &stats_text);

/** FNV-1a chain of per-mission digests in submission order. */
uint64_t chainDigest(const std::vector<uint64_t> &digests);

/** Simulated work of a set of missions: the base of every ratio. */
struct SimBase
{
    size_t missions = 0;
    double simSeconds = 0.0;
    uint64_t simCycles = 0;
    uint64_t periods = 0;
    uint64_t inferences = 0;

    void add(double sim_s, uint64_t cycles, uint64_t periods_,
             uint64_t inferences_);
    std::string text() const;
};

/** Peak resident set of this process [MB]. */
double peakRssMb();

/** Format a double with all its digits for JSON. */
std::string jsonNumber(double v);

/** Hex form of a digest. */
std::string hex64(uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
