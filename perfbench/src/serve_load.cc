/**
 * @file
 * The rosed path: an in-process MissionServer on loopback TCP, loaded
 * by kClients client connections in this process. Each client is a
 * closed loop keeping kInFlightPerClient missions in flight, polling
 * FetchResult at waitResult's default 10 ms, fetching in binary and
 * acking every verified result.
 */

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "runner.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/hash.hh"

namespace perfbench {

using namespace rose;

namespace {

constexpr int kClients = 2;
constexpr size_t kInFlightPerClient = 2;
/** waitResult's default poll interval. */
constexpr auto kPollInterval = std::chrono::milliseconds(10);
/** Local unsupervised runs per spec for serve.supervisor_ratio. */
constexpr int kLocalRuns = 3;

/** One finished (or failed) job as the client saw it. */
struct Job
{
    size_t specIndex = 0;
    bool failed = false;
    std::string error;
    double latencyMs = 0.0;
    double submitMs = 0.0;
    double fetchMs = 0.0;
    uint64_t polls = 0;
    double queueWaitMs = 0.0;
    double serviceMs = 0.0;
    double simSeconds = 0.0;
    uint64_t cycles = 0;
    uint64_t inferences = 0;
    uint64_t trajectoryHash = 0;
    uint64_t digest = 0;
};

struct Phase
{
    std::vector<Job> jobs;
    double wallSeconds = 0.0;
    uint64_t submits = 0;
    uint64_t shed = 0;
};

/** Counters a served result carries besides its trajectory. */
std::string
servedStatsText(const serve::ServedResult &r)
{
    return "cycles=" + std::to_string(r.simulatedCycles) +
           ",inferences=" + std::to_string(r.inferences) +
           ",status=" + std::to_string(r.status) + "\n";
}

/**
 * One client's closed loop until the deadline and at least kMinSamples
 * submissions, then drain. Each job is
 * polled every kPollInterval from a random phase after its submit, so
 * the time from completion to fetch is uniform over the interval
 * instead of locked to one poll clock shared by all jobs.
 */
void
clientLoop(const Workload &w, int client_index, uint16_t port,
           Clock::time_point deadline, std::atomic<uint64_t> &next_job,
           TraceSink *sink, Phase &phase, std::mutex &mu)
{
    struct InFlight
    {
        uint64_t jobId;
        size_t specIndex;
        uint64_t group;
        Clock::time_point submitted;
        double submitMs;
        uint64_t polls;
        Clock::time_point nextPoll;
        SpanLog log;
        OpenSpan span;
    };

    serve::ServeClient client(port);
    std::mt19937_64 rng(w.seed * 31 + uint64_t(client_index));
    std::uniform_int_distribution<int64_t> phase_us(
        0, std::chrono::microseconds(kPollInterval).count() - 1);
    std::deque<InFlight> inflight;
    std::vector<Job> done;
    uint64_t submits = 0, shed = 0;
    auto ms_since = [](Clock::time_point t) {
        return secondsSince(t) * 1e3;
    };

    for (;;) {
        while (inflight.size() < kInFlightPerClient &&
               (Clock::now() < deadline || next_job < kMinSamples)) {
            const uint64_t k = next_job.fetch_add(1);
            const size_t idx = size_t(k % w.specs.size());
            const uint64_t group = (uint64_t(1) << 32) + k;
            SpanLog log(group);
            OpenSpan job = log.begin(Layer::ServeJob);
            const auto t0 = Clock::now();
            OpenSpan s = log.begin(Layer::ServeSubmit, &job);
            serve::SubmitOutcome o = client.submit(w.specs[idx]);
            log.end(s);
            const double submit_ms = ms_since(t0);
            ++submits;
            if (!o.accepted) {
                // Never admitted: counts as a failure, not retried.
                ++shed;
                Job j;
                j.specIndex = idx;
                j.failed = true;
                j.error = "submission rejected: " + o.detail;
                done.push_back(j);
                continue;
            }
            const auto first_poll =
                Clock::now() + std::chrono::microseconds(phase_us(rng));
            inflight.push_back({o.jobId, idx, group, t0, submit_ms, 0,
                                first_poll, std::move(log), job});
        }
        if (inflight.empty())
            break;

        Clock::time_point due = inflight.front().nextPoll;
        for (const InFlight &f : inflight)
            due = std::min(due, f.nextPoll);
        std::this_thread::sleep_until(due);
        const auto now = Clock::now();
        for (auto it = inflight.begin(); it != inflight.end();) {
            if (it->nextPoll > now) {
                ++it;
                continue;
            }
            serve::ServedResult r;
            serve::JobState state = serve::JobState::Queued;
            Job j;
            j.specIndex = it->specIndex;
            const auto t0 = Clock::now();
            OpenSpan s = it->log.begin(Layer::ServeFetch, &it->span);
            bool complete = false;
            try {
                complete = client.tryFetchResult(
                    it->jobId, r, &state,
                    serve::TrajectoryEncoding::Binary);
            } catch (const std::exception &e) {
                j.failed = true;
                j.error = std::string("fetch failed: ") + e.what();
                complete = true;
            }
            ++it->polls;
            if (!complete) {
                // An unfinished poll is its own span name.
                s.layer = Layer::ServePoll;
                it->log.end(s);
                it->nextPoll = std::max(it->nextPoll + kPollInterval, now);
                ++it;
                continue;
            }
            j.fetchMs = ms_since(t0);
            it->log.end(s);
            it->log.end(it->span);
            j.latencyMs = ms_since(it->submitted);
            j.submitMs = it->submitMs;
            j.polls = it->polls;
            if (!j.failed) {
                const std::string csv =
                    core::trajectoryCsvString(r.trajectory);
                j.queueWaitMs = r.queueWaitMs;
                j.serviceMs = r.serviceMs;
                j.simSeconds = r.missionTime;
                j.cycles = r.simulatedCycles;
                j.inferences = r.inferences;
                j.trajectoryHash = r.trajectoryHash;
                j.digest = missionDigest(csv, servedStatsText(r));
                if (state != serve::JobState::Done) {
                    j.failed = true;
                    j.error = "job failed: " + r.failureReason;
                } else if (r.status ==
                           uint8_t(core::MissionStatus::Crashed)) {
                    j.failed = true;
                    j.error = "mission crashed: " + r.failureReason;
                } else if (fnv1a(csv) != r.trajectoryHash) {
                    j.failed = true;
                    j.error = "re-encoded trajectory does not match "
                              "the served hash";
                }
            }
            if (sink)
                sink->merge(std::move(it->log));
            done.push_back(std::move(j));
            it = inflight.erase(it);
        }
    }

    std::lock_guard<std::mutex> lock(mu);
    for (Job &j : done)
        phase.jobs.push_back(std::move(j));
    phase.submits += submits;
    phase.shed += shed;
}

Phase
runPhase(const Workload &w, uint16_t port, double seconds,
         TraceSink *sink)
{
    Phase phase;
    std::mutex mu;
    std::atomic<uint64_t> next_job{0};
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    std::vector<std::string> errors(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                clientLoop(w, c, port, deadline, next_job, sink, phase,
                           mu);
            } catch (const std::exception &e) {
                errors[size_t(c)] = e.what();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    phase.wallSeconds = secondsSince(t0);
    for (const std::string &e : errors) {
        if (!e.empty()) {
            Job j;
            j.failed = true;
            j.error = "client aborted: " + e;
            phase.jobs.push_back(j);
        }
    }
    return phase;
}

/**
 * Check a phase's jobs: every job of one spec must carry the same
 * digest, and @p ref (spec index -> digest) collects the first one.
 */
void
checkPhase(const Workload &w, const Phase &phase,
           std::map<size_t, const Job *> &ref, RunOutput &out)
{
    out.attempted += phase.submits;
    for (const Job &j : phase.jobs) {
        if (j.failed) {
            out.fail(w.specs[j.specIndex].label() + ": " + j.error);
            continue;
        }
        auto [it, first] = ref.emplace(j.specIndex, &j);
        if (!first && it->second->digest != j.digest)
            out.fail("served digest of " + w.specs[j.specIndex].label() +
                     " differs between jobs");
    }
    // A job that threw before its submit was counted still counts.
    if (phase.jobs.size() > phase.submits)
        out.attempted += phase.jobs.size() - phase.submits;
}

std::vector<double>
collect(const Phase &phase, double Job::*field)
{
    std::vector<double> v;
    for (const Job &j : phase.jobs)
        if (!j.failed)
            v.push_back(j.*field);
    return v;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

} // namespace

void
runServed(const Workload &w, serve::MissionServer &server,
          const RunOptions &opt, RunOutput &out, std::ostream &log)
{
    const size_t n = w.specs.size();
    const uint16_t port = server.port();
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;

    std::map<size_t, const Job *> ref;
    Phase untraced = runPhase(w, port, budget, nullptr);
    checkPhase(w, untraced, ref, out);
    Phase traced;
    serve::ServerStatsData before, after;
    if (opt.trace) {
        serve::ServeClient stats(port);
        before = stats.serverStats();
        traced = runPhase(w, port, budget, &out.sink);
        after = stats.serverStats();
        checkPhase(w, traced, ref, out);
    }

    // Every spec must have been served at least once, and each served
    // trajectory must match a local runMission of the same spec.
    std::vector<uint64_t> digests;
    for (size_t i = 0; i < n; ++i) {
        auto it = ref.find(i);
        if (it == ref.end()) {
            out.fail("no served result for " + w.specs[i].label());
            continue;
        }
        const Job &j = *it->second;
        digests.push_back(j.digest);
        out.round.add(j.simSeconds, j.cycles,
                      j.cycles / w.specs[i].syncGranularity, j.inferences);
        core::MissionResult local = core::runMission(w.specs[i]);
        if (fnv1a(core::trajectoryCsvString(local)) != j.trajectoryHash ||
            local.simulatedCycles != j.cycles ||
            local.inferences != j.inferences)
            out.fail("served result of " + w.specs[i].label() +
                     " differs from a local runMission");
        log << "#   " << w.specs[i].label() << " seed=" << w.specs[i].seed
            << " sim_s=" << j.simSeconds << " sim_cycles=" << j.cycles
            << " inferences=" << j.inferences
            << " digest=" << hex64(j.digest) << "\n";
    }
    out.simDigest = chainDigest(digests);

    const std::vector<double> latency = collect(untraced, &Job::latencyMs);
    const double untraced_mps =
        double(latency.size()) / untraced.wallSeconds;
    if (!opt.trace) {
        double service_s = 0.0;
        SimBase all;
        for (const Job &j : untraced.jobs) {
            service_s += j.serviceMs / 1e3;
            all.add(j.simSeconds, j.cycles,
                    j.cycles / w.specs[j.specIndex].syncGranularity,
                    j.inferences);
        }
        out.metrics = {
            {"missions_per_s", untraced_mps, "1/s", latency.size(),
             std::to_string(latency.size()) + " jobs / " +
                 jsonNumber(untraced.wallSeconds) + " host s"},
            {"latency_ms_p50", median(latency), "ms", latency.size(),
             "submit to verified, acked result"},
            {"latency_ms_p90", percentile(latency, 0.9), "ms",
             latency.size(), "submit to verified, acked result"},
            {"host_s_per_sim_s", service_s / all.simSeconds, "s/s",
             latency.size(),
             jsonNumber(service_s) + " server service s / " +
                 all.text()},
            {"peak_rss_mb", peakRssMb(), "MB", 1, ""},
        };
        return;
    }

    // Per-layer: client-side serve spans, server-reported timings,
    // and the simulator layers from local runs of the same specs.
    const size_t jobs = collect(traced, &Job::latencyMs).size();
    std::vector<double> local_ms(n), served_ms(n);
    std::vector<MissionCounts> counts(n);
    for (size_t i = 0; i < n; ++i) {
        std::vector<double> runs, service;
        for (int r = 0; r < kLocalRuns; ++r) {
            core::CoSimulation sim(w.config(w.specs[i]));
            runs.push_back(sim.run().wallSeconds * 1e3);
        }
        for (const Job &j : traced.jobs)
            if (!j.failed && j.specIndex == i)
                service.push_back(j.serviceMs);
        local_ms[i] = median(runs);
        served_ms[i] = median(service);
        const uint64_t group = (uint64_t(1) << 40) + i;
        out.sink.nameGroup(group, "local " + w.specs[i].label());
        TracedMission tm =
            runTracedMission(w.config(w.specs[i]), group, true, out.sink);
        out.attempted += 1;
        if (tm.failed)
            out.fail("traced local mission threw: " + tm.error);
        counts[i] = tm.counts;
        if (!replayCaptures(w.config(w.specs[i]), tm.captures,
                            group + n, out.sink))
            out.fail("replayed frame did not round-trip");
    }
    double local_sum = 0.0, served_sum = 0.0, service_total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        local_sum += local_ms[i];
        served_sum += served_ms[i];
    }
    for (const Job &j : traced.jobs)
        service_total += j.serviceMs;
    const double traced_mps = double(jobs) / traced.wallSeconds;

    addLayerMetrics(out);
    addCountMetrics(out, w.specs, counts, log);
    auto t = out.sink.totals();
    auto set_mean_ms = [&](const char *name, Layer l) {
        const LayerTotals &x = t[size_t(l)];
        out.set(name,
                x.calls ? double(x.totalNs) / 1e6 / double(x.calls) : 0.0,
                x.calls);
    };
    auto per_job = [&](double total) {
        return jobs ? total / double(jobs) : 0.0;
    };
    set_mean_ms("serve.submit_ms", Layer::ServeSubmit);
    set_mean_ms("serve.fetch_ms", Layer::ServeFetch);
    const std::vector<double> queue = collect(traced, &Job::queueWaitMs);
    out.set("serve.queue_wait_ms_p50", median(queue), queue.size());
    out.set("serve.queue_wait_ms_p90", percentile(queue, 0.9),
            queue.size());
    out.set("serve.service_ms", median(collect(traced, &Job::serviceMs)),
            jobs);
    out.set("serve.supervisor_ratio", served_sum / local_sum, n,
            "median supervised service " + jsonNumber(served_sum) +
                " ms / median local run " + jsonNumber(local_sum) +
                " ms over " + std::to_string(n) + " specs");
    const uint64_t polls = t[size_t(Layer::ServePoll)].calls +
                           t[size_t(Layer::ServeFetch)].calls;
    out.set("serve.polls_per_job", per_job(double(polls)), jobs,
            std::to_string(polls) + " tryFetchResult calls / " +
                std::to_string(jobs) + " jobs");
    out.set("serve.shed_frac",
            traced.submits ? double(traced.shed) / double(traced.submits)
                           : 0.0,
            traced.submits,
            std::to_string(traced.shed) + " rejected / " +
                std::to_string(traced.submits) + " submits");
    const uint64_t bytes =
        after.streamedPayloadBytes - before.streamedPayloadBytes;
    out.set("serve.stream_bytes_per_job", per_job(double(bytes)), jobs,
            std::to_string(bytes) + " streamed bytes / " +
                std::to_string(jobs) + " jobs");
    out.set("core.batch_efficiency",
            service_total / 1e3 / (traced.wallSeconds * kWorkers), jobs,
            "server service s / (wall s x " + std::to_string(kWorkers) +
                " workers)");
    out.set("trace.overhead_frac",
            (untraced_mps - traced_mps) / untraced_mps, jobs,
            "untraced " + jsonNumber(untraced_mps) + " vs traced " +
                jsonNumber(traced_mps) + " jobs/s");
}

} // namespace perfbench
