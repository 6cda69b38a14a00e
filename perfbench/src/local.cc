/**
 * @file
 * Local sweeps: untraced rounds through core::BatchRunner (in-process
 * transport) or core::parallelIndexed over CoSimulation::run (TCP,
 * which BatchRunner's MissionSpec cannot select), and traced rounds
 * that drive the period loop through CoSimulation's components.
 */

#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>

#include "bridge/packet.hh"
#include "core/batch.hh"
#include "dnn/classifier.hh"
#include "env/world.hh"
#include "runner.hh"
#include "util/serde.hh"

namespace perfbench {

using namespace rose;

namespace {

/** Periods between checkpoint / capture probes in a traced mission. */
constexpr uint64_t kProbePeriods = 256;

/** Host outcome and simulated digest of one untraced mission. */
struct MissionOutcome
{
    uint64_t digest = 0;
    bool failed = false;
    std::string error;
    double wallSeconds = 0.0;
    double simSeconds = 0.0;
    uint64_t cycles = 0;
    uint64_t periods = 0;
    uint64_t inferences = 0;
};

MissionOutcome
outcomeOf(const core::MissionResult &r)
{
    MissionOutcome o;
    o.digest = missionDigest(core::trajectoryCsvString(r),
                             socStatsText(r.socStats));
    o.failed = r.status == core::MissionStatus::Crashed;
    o.error = r.failureReason;
    o.wallSeconds = r.wallSeconds;
    o.simSeconds = r.missionTime;
    o.cycles = r.simulatedCycles;
    o.periods = r.socStats.periods;
    o.inferences = r.inferences;
    return o;
}

struct Round
{
    std::vector<MissionOutcome> missions;
    double wallSeconds = 0.0;
    /** Sum of per-mission walls. */
    double serialSeconds = 0.0;
};

Round
runRound(const Workload &w)
{
    Round round;
    std::vector<core::MissionResult> results;
    if (w.transport == core::TransportKind::InProcess) {
        core::BatchRunner runner(core::BatchOptions{kWorkers});
        results = runner.run(w.specs);
        round.wallSeconds = runner.stats().wallSeconds;
        round.serialSeconds = runner.stats().serialSeconds;
    } else {
        auto t0 = Clock::now();
        results = core::parallelIndexed<core::MissionResult>(
            w.specs.size(), kWorkers, [&](size_t i) {
                try {
                    core::CoSimulation sim(w.config(w.specs[i]));
                    return sim.run();
                } catch (const std::exception &e) {
                    core::MissionResult r;
                    r.status = core::MissionStatus::Crashed;
                    r.failureReason = e.what();
                    return r;
                }
            });
        round.wallSeconds = secondsSince(t0);
        for (const core::MissionResult &r : results)
            round.serialSeconds += r.wallSeconds;
    }
    for (const core::MissionResult &r : results)
        round.missions.push_back(outcomeOf(r));
    return round;
}

/** What CoSimulation::sample() records after a period. */
core::TrajectorySample
sampleOf(core::CoSimulation &sim)
{
    env::EnvSim &env = sim.environment();
    core::TrajectorySample s;
    flight::VehicleState k = env.kinematics();
    s.time = env.simTime();
    s.position = k.position;
    s.yaw = k.attitude.yaw();
    s.speed = std::hypot(k.velocity.x, k.velocity.y);
    s.lateralOffset = env.lateralOffset();
    s.collisions = env.collisionInfo().count;
    const sync::LastCommand &cmd = sim.synchronizer().lastCommand();
    if (cmd.valid) {
        s.cmdForward = cmd.forward;
        s.cmdLateral = cmd.lateral;
        s.cmdYawRate = cmd.yawRate;
    }
    return s;
}

/** Compare a round's digests with the reference round's. */
void
checkRound(const Workload &w, const std::vector<uint64_t> &ref,
           const std::vector<uint64_t> &got, const char *what,
           RunOutput &out)
{
    for (size_t i = 0; i < ref.size(); ++i) {
        if (got[i] != ref[i])
            out.fail(std::string(what) + " digest mismatch on mission " +
                     std::to_string(i) + " (" + w.specs[i].label() + ")");
    }
}

} // namespace

void
warmCaches(const Workload &w)
{
    std::set<std::string> worlds;
    std::set<int> depths;
    for (const core::MissionSpec &s : w.specs) {
        worlds.insert(s.world);
        depths.insert(s.modelDepth);
        depths.insert(s.toConfig().app.smallModelDepth);
    }
    for (const std::string &name : worlds)
        env::sharedWorld(name);
    for (int d : depths)
        dnn::sharedResNet(d);
    // One co-simulation per distinct configuration (inference
    // schedules) and one classifier frame per world and depth (pose
    // template bank).
    std::set<std::tuple<std::string, std::string, int>> seen;
    for (const core::MissionSpec &s : w.specs) {
        if (!seen.insert({s.world, s.socName, s.modelDepth}).second)
            continue;
        core::CosimConfig cfg = w.config(s);
        core::CoSimulation sim(cfg);
        env::Image img;
        sim.environment().getImageInto(img);
        dnn::Classifier cls(*dnn::sharedResNet(s.modelDepth),
                            Rng(cfg.app.seed), cfg.app.estimator);
        cls.infer(img);
    }
}

TracedMission
runTracedMission(const core::CosimConfig &cfg, uint64_t group, bool probe,
                 TraceSink &sink)
{
    TracedMission tm;
    SpanLog log(group);
    try {
        core::CoSimulation sim(cfg);
        env::EnvSim &env = sim.environment();
        sync::Synchronizer &sync = sim.synchronizer();
        soc::SocSim &soc = sim.socSim();
        std::vector<core::TrajectorySample> trajectory;
        uint64_t periods = 0;

        // CoSimulation::run()'s loop, one stage per span.
        OpenSpan mission = log.begin(Layer::Mission);
        while (env.simTime() < cfg.maxSimSeconds) {
            OpenSpan s = log.begin(Layer::SyncBegin, &mission);
            sync.beginPeriod();
            log.end(s);
            s = log.begin(Layer::SocRun, &mission);
            soc.runPeriod();
            log.end(s);
            s = log.begin(Layer::SyncEnd, &mission);
            sync.endPeriod();
            log.end(s);
            ++periods;
            if (periods % cfg.samplePeriods == 0)
                trajectory.push_back(sampleOf(sim));
            if (probe && periods % kProbePeriods == 0) {
                if (sim.checkpointable()) {
                    s = log.begin(Layer::Checkpoint, &mission);
                    core::Checkpoint ck = sim.checkpoint();
                    log.end(s);
                }
                s = log.begin(Layer::Capture, &mission);
                StateWriter state;
                env.saveState(state);
                tm.captures.push_back(state.take());
                log.end(s);
            }
            if (env.missionComplete())
                break;
        }
        log.end(mission);

        tm.digest = missionDigest(core::trajectoryCsvString(trajectory),
                                  socStatsText(soc.stats()));
        tm.counts.periods = sync.stats().periods;
        tm.counts.imageRequests = sync.stats().imageRequests;
        tm.counts.frames = env.frameCount();
        tm.counts.inferences = sim.app().inferenceCount();
        tm.counts.actions = soc.stats().actionsIssued;
        tm.counts.mmioReads = sim.bridge().stats().mmioReads;
        tm.counts.simCycles = soc.stats().totalCycles;
    } catch (const std::exception &e) {
        tm.failed = true;
        tm.error = e.what();
    }
    sink.merge(std::move(log));
    return tm;
}

bool
replayCaptures(const core::CosimConfig &cfg,
               const std::vector<std::vector<uint8_t>> &captures,
               uint64_t group, TraceSink &sink)
{
    if (captures.empty())
        return true;
    env::EnvConfig env_cfg = cfg.env;
    env_cfg.frameHz = cfg.sync.clocks.envFrameHz; // as CoSimulation does
    env::EnvSim env(env_cfg);
    dnn::Classifier cls(*dnn::sharedResNet(cfg.app.modelDepth),
                        Rng(cfg.app.seed), cfg.app.estimator);
    env::Image img, decoded;
    std::vector<uint8_t> wire;
    bridge::FrameBuffer frames;
    bridge::Packet parsed;

    // First frame untimed: builds the classifier's template bank.
    {
        StateReader r(captures.front());
        env.restoreState(r);
        env.getImageInto(img);
        cls.infer(img);
    }

    SpanLog log(group);
    bool ok = true;
    for (const std::vector<uint8_t> &state : captures) {
        StateReader r(state);
        env.restoreState(r);
        OpenSpan replay = log.begin(Layer::Replay);
        OpenSpan s = log.begin(Layer::EnvRender, &replay);
        env.getImageInto(img);
        log.end(s);
        s = log.begin(Layer::ImageEncode, &replay);
        bridge::Packet pkt = bridge::encodeImageResp(img);
        log.end(s);
        s = log.begin(Layer::ImageDecode, &replay);
        bridge::decodeImageRespInto(pkt, decoded);
        log.end(s);
        s = log.begin(Layer::Frame, &replay);
        wire.clear();
        bridge::serializePacket(pkt, wire);
        frames.append(wire.data(), wire.size());
        bridge::FrameStatus status = frames.next(parsed);
        log.end(s);
        s = log.begin(Layer::DnnInfer, &replay);
        dnn::ClassifierOutput result = cls.infer(decoded);
        log.end(s);
        s = log.begin(Layer::EnvStepFrame, &replay);
        env.stepFrames(1);
        log.end(s);
        log.end(replay);
        ok = ok && status == bridge::FrameStatus::Ok &&
             parsed.type == pkt.type && parsed.payload == pkt.payload &&
             decoded.width == img.width && result.valid;
    }
    sink.merge(std::move(log));
    return ok;
}

void
RunOutput::set(const std::string &name, double value, size_t samples,
               const std::string &base)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.value = value;
            m.samples = samples;
            m.base = base;
            return;
        }
    }
    throw std::logic_error("undeclared metric " + name);
}

void
addLayerMetrics(RunOutput &out)
{
    auto t = out.sink.totals();
    auto set = [&](const char *name, Layer l) {
        const LayerTotals &x = t[size_t(l)];
        out.set(name,
                x.calls ? double(x.totalNs) / 1e3 / double(x.calls) : 0.0,
                x.calls);
    };
    set("sync.begin_us", Layer::SyncBegin);
    set("soc.run_us", Layer::SocRun);
    set("sync.end_us", Layer::SyncEnd);
    set("env.step_frame_us", Layer::EnvStepFrame);
    set("env.render_us", Layer::EnvRender);
    set("bridge.image_encode_us", Layer::ImageEncode);
    set("bridge.image_decode_us", Layer::ImageDecode);
    set("bridge.frame_us", Layer::Frame);
    set("dnn.infer_us", Layer::DnnInfer);
    set("core.checkpoint_us", Layer::Checkpoint);

    const LayerTotals &mission = t[size_t(Layer::Mission)];
    const LayerTotals &periods = t[size_t(Layer::SyncBegin)];
    const int64_t probe_ns = t[size_t(Layer::Checkpoint)].totalNs +
                             t[size_t(Layer::Capture)].totalNs;
    if (periods.calls)
        out.set("core.host_us_per_period",
                double(mission.totalNs - probe_ns) / 1e3 /
                    double(periods.calls),
                periods.calls,
                std::to_string(periods.calls) + " periods");
    if (mission.totalNs)
        out.set("trace.coverage",
                double(mission.childNs) / double(mission.totalNs),
                mission.calls,
                "span time / " + std::to_string(mission.calls) +
                    " traced mission walls");
}

void
addCountMetrics(RunOutput &out,
                const std::vector<core::MissionSpec> &specs,
                const std::vector<MissionCounts> &counts,
                std::ostream &log)
{
    log << "# per-mission work counts (public component stats)\n";
    MissionCounts sum;
    for (size_t i = 0; i < counts.size(); ++i) {
        const MissionCounts &c = counts[i];
        log << "#   " << specs[i].label() << " seed=" << specs[i].seed
            << " sync.periods=" << c.periods
            << " sync.image_requests=" << c.imageRequests
            << " env.frames=" << c.frames
            << " runtime.inferences=" << c.inferences
            << " soc.actions=" << c.actions
            << " bridge.mmio_reads=" << c.mmioReads
            << " soc.sim_cycles=" << c.simCycles << "\n";
        sum.periods += c.periods;
        sum.imageRequests += c.imageRequests;
        sum.frames += c.frames;
        sum.inferences += c.inferences;
        sum.actions += c.actions;
        sum.mmioReads += c.mmioReads;
        sum.simCycles += c.simCycles;
    }
    const double n = counts.empty() ? 1.0 : double(counts.size());
    const std::pair<const char *, uint64_t> means[] = {
        {"sync.periods", sum.periods},
        {"sync.image_requests", sum.imageRequests},
        {"env.frames", sum.frames},
        {"runtime.inferences", sum.inferences},
        {"soc.actions", sum.actions},
        {"bridge.mmio_reads", sum.mmioReads},
        {"soc.sim_cycles", sum.simCycles},
    };
    for (const auto &[name, total] : means)
        out.set(name, double(total) / n, counts.size(),
                "per mission over " + std::to_string(counts.size()) +
                    " missions");
}

void
runLocal(const Workload &w, const RunOptions &opt, RunOutput &out,
         std::ostream &log)
{
    const size_t n = w.specs.size();
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;

    // Untraced rounds: the end-to-end numbers. Round 0 is the
    // reference every later round (and the traced run) must match.
    std::vector<uint64_t> ref;
    std::vector<double> latency_ms;
    double wall = 0.0, serial = 0.0, mission_wall = 0.0;
    size_t missions = 0;
    SimBase all;
    while (wall < budget || missions < kMinSamples) {
        Round round = runRound(w);
        std::vector<uint64_t> digests;
        for (size_t i = 0; i < n; ++i) {
            const MissionOutcome &m = round.missions[i];
            digests.push_back(m.digest);
            if (m.failed)
                out.fail("mission " + std::to_string(i) + " (" +
                         w.specs[i].label() + ") crashed: " + m.error);
            latency_ms.push_back(m.wallSeconds * 1e3);
            mission_wall += m.wallSeconds;
            all.add(m.simSeconds, m.cycles, m.periods, m.inferences);
            if (ref.empty())
                out.round.add(m.simSeconds, m.cycles, m.periods,
                              m.inferences);
        }
        if (ref.empty()) {
            ref = digests;
            log << "# round 0 missions (submission order)\n";
            for (size_t i = 0; i < n; ++i)
                log << "#   " << w.specs[i].label()
                    << " seed=" << w.specs[i].seed << " sim_s="
                    << round.missions[i].simSeconds
                    << " periods=" << round.missions[i].periods
                    << " inferences=" << round.missions[i].inferences
                    << " wall_ms=" << round.missions[i].wallSeconds * 1e3
                    << " digest=" << hex64(digests[i]) << "\n";
        } else {
            checkRound(w, ref, digests, "repeated round", out);
        }
        out.attempted += n;
        missions += n;
        wall += round.wallSeconds;
        serial += round.serialSeconds;
    }
    out.simDigest = chainDigest(ref);
    const double untraced_mps = double(missions) / wall;

    if (!opt.trace) {
        const std::string rounds = std::to_string(missions / n) +
                                   " rounds of " + std::to_string(n);
        out.metrics = {
            {"missions_per_s", untraced_mps, "1/s", missions,
             std::to_string(missions) + " missions / " +
                 jsonNumber(wall) + " host s (" + rounds + ")"},
            {"latency_ms_p50", percentile(latency_ms, 0.5), "ms",
             latency_ms.size(), ""},
            {"latency_ms_p90", percentile(latency_ms, 0.9), "ms",
             latency_ms.size(), ""},
            {"host_s_per_sim_s", mission_wall / all.simSeconds, "s/s",
             missions,
             jsonNumber(mission_wall) + " host s / " + all.text()},
            {"peak_rss_mb", peakRssMb(), "MB", 1, ""},
        };
        return;
    }

    // Traced rounds for the same budget; the first one also probes
    // checkpoints and captures states for the stage replay.
    double traced_wall = 0.0;
    size_t traced = 0;
    std::vector<std::vector<std::vector<uint8_t>>> captures(n);
    std::vector<MissionCounts> counts(n);
    for (size_t r = 0; traced_wall < budget || r == 0; ++r) {
        auto t0 = Clock::now();
        std::vector<TracedMission> ms =
            core::parallelIndexed<TracedMission>(
                n, kWorkers, [&](size_t i) {
                    uint64_t group = r * n + i + 1;
                    if (r == 0)
                        out.sink.nameGroup(group, w.specs[i].label());
                    return runTracedMission(w.config(w.specs[i]), group,
                                            r == 0, out.sink);
                });
        traced_wall += secondsSince(t0);
        traced += n;
        out.attempted += n;
        std::vector<uint64_t> digests;
        for (size_t i = 0; i < n; ++i) {
            if (ms[i].failed)
                out.fail("traced mission " + std::to_string(i) + " (" +
                         w.specs[i].label() + ") threw: " + ms[i].error);
            digests.push_back(ms[i].digest);
            if (r == 0) {
                captures[i] = std::move(ms[i].captures);
                counts[i] = ms[i].counts;
            }
        }
        checkRound(w, ref, digests, "traced", out);
    }
    const double traced_mps = double(traced) / traced_wall;

    for (size_t i = 0; i < n; ++i) {
        if (!replayCaptures(w.config(w.specs[i]), captures[i],
                            (uint64_t(1) << 40) + i, out.sink))
            out.fail("replayed frame of mission " + std::to_string(i) +
                     " did not round-trip");
    }

    addLayerMetrics(out);
    addCountMetrics(out, w.specs, counts, log);
    out.set("core.batch_efficiency", serial / (wall * kWorkers), missions,
            jsonNumber(serial) + " serial s / (" + jsonNumber(wall) +
                " wall s x " + std::to_string(kWorkers) + " workers)");
    out.set("trace.overhead_frac",
            (untraced_mps - traced_mps) / untraced_mps, traced,
            "untraced " + jsonNumber(untraced_mps) + " vs traced " +
                jsonNumber(traced_mps) + " missions/s");
}

} // namespace perfbench
