#include "cosim.hh"

#include <bit>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <ostream>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::core {

const char *
missionStatusName(MissionStatus s)
{
    switch (s) {
      case MissionStatus::Completed:
        return "completed";
      case MissionStatus::TimedOut:
        return "timed-out";
      case MissionStatus::Crashed:
        return "crashed";
      case MissionStatus::Degraded:
        return "degraded";
    }
    return "unknown";
}

CoSimulation::CoSimulation(const CosimConfig &cfg) : cfg_(cfg)
{
    // The environment frame rate must match the sync clock ratio.
    cfg_.env.frameHz = cfg_.sync.clocks.envFrameHz;
    env_ = std::make_unique<env::EnvSim>(cfg_.env);

    if (cfg_.transport == TransportKind::Tcp) {
        auto [server, client] = bridge::TcpTransport::makeLoopbackPair();
        syncEnd_ = std::move(server);
        bridgeEnd_ = std::move(client);
    } else {
        auto [a, b] = bridge::makeInProcPair();
        syncEnd_ = std::move(a);
        bridgeEnd_ = std::move(b);
    }

    if (cfg_.faults.enabled) {
        auto wrapped = std::make_unique<bridge::FaultInjectTransport>(
            std::move(syncEnd_), cfg_.faults);
        faults_ = wrapped.get();
        syncEnd_ = std::move(wrapped);
        // On a lossy link the target software must be able to recover
        // from lost sensor traffic: default its timeout to three sync
        // periods unless the caller chose one.
        if (cfg_.app.sensorTimeoutCycles == 0)
            cfg_.app.sensorTimeoutCycles = 3 * cfg_.sync.cyclesPerSync;
    }

    bridge_ = std::make_unique<bridge::RoseBridge>(*bridgeEnd_,
                                                   cfg_.bridgeCfg);
    driver_ = std::make_unique<bridge::TargetDriver>(*bridge_);
    app_ = std::make_unique<runtime::ControlApp>(*driver_, cfg_.soc,
                                                 cfg_.app);
    soc::Workload *workload = app_.get();
    if (cfg_.background.enabled) {
        backgroundLoad_ = std::make_unique<soc::BackgroundLoad>(
            cfg_.background.batchCycles, cfg_.background.idleCycles);
        timeShared_ = std::make_unique<soc::TimeSharedWorkload>(
            *app_, *backgroundLoad_, cfg_.background.fgQuantum,
            cfg_.background.bgQuantum);
        workload = timeShared_.get();
    }
    soc_ = std::make_unique<soc::SocSim>(*bridge_, *workload, cfg_.soc);
    sync_ = std::make_unique<sync::Synchronizer>(*env_, *syncEnd_,
                                                 cfg_.sync);

    sync_->configure();
    // Deliver the step-size configuration to the bridge before the
    // first period.
    bridge_->hostService();

    prevPos_ = env_->kinematics().position;
}

CoSimulation::~CoSimulation() = default;

void
CoSimulation::stepPeriod()
{
    // Algorithm 1 in lockstep: grant tokens, run the SoC through its
    // budget (the SoC side services its own bridge), then translate
    // the period's packets into environment API calls and advance the
    // environment by the matching frames.
    sync_->beginPeriod();
    soc_->runPeriod();
    sync_->endPeriod();
    ++periods_;

    flight::VehicleState k = env_->kinematics();
    double sp = std::hypot(k.velocity.x, k.velocity.y);
    speedSum_ += sp;
    maxSpeed_ = std::max(maxSpeed_, sp);
    ++speedN_;
    distance_ += (k.position - prevPos_).norm();
    prevPos_ = k.position;

    if (periods_ % cfg_.samplePeriods == 0)
        sample();

    if (cfg_.progressPeriods != 0 && cfg_.progressHook &&
        periods_ % cfg_.progressPeriods == 0)
        cfg_.progressHook(env_->simTime(), trajectory_.size());
}

void
CoSimulation::sample()
{
    TrajectorySample s;
    flight::VehicleState k = env_->kinematics();
    s.time = env_->simTime();
    s.position = k.position;
    s.yaw = k.attitude.yaw();
    s.speed = std::hypot(k.velocity.x, k.velocity.y);
    s.lateralOffset = env_->lateralOffset();
    s.collisions = env_->collisionInfo().count;
    const sync::LastCommand &cmd = sync_->lastCommand();
    if (cmd.valid) {
        s.cmdForward = cmd.forward;
        s.cmdLateral = cmd.lateral;
        s.cmdYawRate = cmd.yawRate;
    }
    trajectory_.push_back(s);
}

void
CoSimulation::printSummary(std::ostream &os) const
{
    auto line = [&os](const char *name, auto value) {
        os << std::left << std::setw(40) << name << value << "\n";
    };

    os << "---------- RoSE co-simulation summary ----------\n";
    line("sim.periods", periods_);
    line("env.simSeconds", env_->simTime());
    line("env.frames", env_->frameCount());
    line("env.collisions", env_->collisionInfo().count);

    const sync::SyncStats &ss = sync_->stats();
    line("sync.grantsSent", ss.grantsSent);
    line("sync.donesReceived", ss.donesReceived);
    line("sync.imageRequests", ss.imageRequests);
    line("sync.imuRequests", ss.imuRequests);
    line("sync.depthRequests", ss.depthRequests);
    line("sync.velocityCommands", ss.velocityCommands);
    line("sync.deadlineWaits", ss.deadlineWaits);

    if (faults_) {
        const bridge::FaultStats &fs = faults_->stats();
        line("fault.sent", fs.sent);
        line("fault.received", fs.received);
        line("fault.dropped", fs.dropped);
        line("fault.corrupted", fs.corrupted);
        line("fault.reordered", fs.reordered);
        line("fault.delayed", fs.delayed);
        line("app.sensorRetries", app_->sensorRetries());
    }

    const bridge::BridgeStats &bs = bridge_->stats();
    line("bridge.mmioReads", bs.mmioReads);
    line("bridge.mmioWrites", bs.mmioWrites);
    line("bridge.rxPackets", bs.rxPackets);
    line("bridge.txPackets", bs.txPackets);
    line("bridge.rxDropped", bs.rxDropped);
    line("bridge.txBackpressure", bs.txBackpressure);

    const soc::SocStats &st = soc_->stats();
    line("soc.totalCycles", st.totalCycles);
    line("soc.cpuBusyCycles", st.cpuBusyCycles);
    line("soc.accelBusyCycles", st.accelBusyCycles);
    line("soc.ioBusyCycles", st.ioBusyCycles);
    line("soc.rxStallCycles", st.rxStallCycles);
    line("soc.accelActivityFactor", st.accelActivityFactor());
    line("soc.actionsIssued", st.actionsIssued);

    soc::EnergyModel energy;
    line("soc.energyJoules",
         energy.energyJoules(st, cfg_.soc.cpu));
    line("soc.avgPowerWatts",
         energy.averagePowerWatts(st, cfg_.soc.cpu, cfg_.soc.clockHz));
    line("app.inferences", app_->inferenceCount());
    os << "------------------------------------------------\n";
}

MissionResult
CoSimulation::collectResult() const
{
    MissionResult r;
    r.completed = env_->missionComplete();
    if (r.completed) {
        r.status = app_->degradedIntervals().empty()
                       ? MissionStatus::Completed
                       : MissionStatus::Degraded;
    } else {
        r.status = MissionStatus::TimedOut;
        r.failureReason = "simulated-time limit reached";
    }
    r.missionTime = env_->simTime();
    r.collisions = env_->collisionInfo().count;
    r.avgSpeed = speedN_ ? speedSum_ / double(speedN_) : 0.0;
    r.maxSpeed = maxSpeed_;
    r.distanceTravelled = distance_;
    r.inferences = app_->inferenceCount();
    r.accelActivityFactor = soc_->stats().accelActivityFactor();
    r.socStats = soc_->stats();
    r.trajectory = trajectory_;
    r.inferenceLog = app_->records();
    r.degradedIntervals = app_->degradedIntervals();
    r.simulatedCycles = soc_->stats().totalCycles;

    soc::EnergyModel energy;
    r.energyJoules =
        energy.energyJoules(soc_->stats(), cfg_.soc.cpu);
    r.avgPowerWatts = energy.averagePowerWatts(
        soc_->stats(), cfg_.soc.cpu, cfg_.soc.clockHz);

    if (!r.inferenceLog.empty()) {
        double sum = 0.0;
        for (const auto &rec : r.inferenceLog)
            sum += double(rec.requestToCommand());
        r.avgInferenceLatency =
            sum / double(r.inferenceLog.size()) / cfg_.soc.clockHz;
    }
    return r;
}

MissionResult
CoSimulation::run()
{
    auto t0 = std::chrono::steady_clock::now();

    bool crashed = false;
    bool transport_error = false;
    std::string failure;
    try {
        while (env_->simTime() < cfg_.maxSimSeconds) {
            stepPeriod();
            if (env_->missionComplete())
                break;
        }
    } catch (const bridge::TransportError &e) {
        // Graceful degradation: a dead/corrupt/stalled transport ends
        // the mission with a diagnosis, never a silent deadlock. The
        // metrics accumulated so far are still reported.
        crashed = true;
        transport_error = true;
        failure = e.what();
        rose_warn("mission aborted on transport error: ", e.what());
    } catch (const SerdeError &e) {
        // A corrupted packet that survived framing but failed payload
        // validation (fault injection without the supervisor).
        crashed = true;
        failure = e.what();
        rose_warn("mission aborted on malformed payload: ", e.what());
    } catch (const env::DivergenceError &e) {
        // Non-finite physics state: abort with the diagnostic dump
        // rather than propagating NaNs into the metrics.
        crashed = true;
        failure = e.what();
        rose_warn("mission aborted on divergence: ", e.what());
    }

    auto t1 = std::chrono::steady_clock::now();

    MissionResult r = collectResult();
    if (crashed) {
        r.completed = false;
        r.status = MissionStatus::Crashed;
        r.failureReason = failure;
        r.transportError = transport_error;
        r.transportErrorMessage = transport_error ? failure : "";
    }
    r.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return r;
}

bool
CoSimulation::checkpointable() const
{
    return syncEnd_->checkpointable() && bridgeEnd_->checkpointable();
}

namespace {

/** Append one tagged section (u8 tag + u32 length + payload); the
 *  payload is written in place and its length patched in after. */
template <typename Fill>
void
putSection(StateWriter &w, CkptSection tag, Fill &&fill)
{
    w.u8(uint8_t(tag));
    size_t at = w.size();
    w.u32(0);
    fill(w);
    w.patchU32(at, uint32_t(w.size() - at - 4));
}

/** Checkpoint bytes per trajectory sample: ten f64 and one u64. */
constexpr size_t kSampleStateBytes = 11 * 8;

/** Write @p s in place: the words StateWriter::f64/u64 would append. */
void
saveSample(uint8_t *p, const TrajectorySample &s)
{
    const uint64_t words[] = {
        std::bit_cast<uint64_t>(s.time),
        std::bit_cast<uint64_t>(s.position.x),
        std::bit_cast<uint64_t>(s.position.y),
        std::bit_cast<uint64_t>(s.position.z),
        std::bit_cast<uint64_t>(s.yaw),
        std::bit_cast<uint64_t>(s.speed),
        std::bit_cast<uint64_t>(s.lateralOffset),
        s.collisions,
        std::bit_cast<uint64_t>(s.cmdForward),
        std::bit_cast<uint64_t>(s.cmdLateral),
        std::bit_cast<uint64_t>(s.cmdYawRate),
    };
    static_assert(sizeof(words) == kSampleStateBytes);
    for (uint64_t word : words) {
        StateWriter::store64(p, word);
        p += 8;
    }
}

TrajectorySample
loadSample(StateReader &r)
{
    TrajectorySample s;
    s.time = r.f64();
    s.position.x = r.f64();
    s.position.y = r.f64();
    s.position.z = r.f64();
    s.yaw = r.f64();
    s.speed = r.f64();
    s.lateralOffset = r.f64();
    s.collisions = r.u64();
    s.cmdForward = r.f64();
    s.cmdLateral = r.f64();
    s.cmdYawRate = r.f64();
    return s;
}

} // namespace

Checkpoint
CoSimulation::checkpoint() const
{
    if (!checkpointable())
        throw CheckpointError(
            "transport does not support checkpointing (TCP sockets "
            "cannot be snapshotted; use the in-process transport or "
            "cold-restart recovery)");

    StateWriter w;
    putSection(w, CkptSection::Cosim, [this](StateWriter &b) {
        b.u64(periods_);
        b.f64(speedSum_);
        b.f64(maxSpeed_);
        b.u64(speedN_);
        b.f64(prevPos_.x);
        b.f64(prevPos_.y);
        b.f64(prevPos_.z);
        b.f64(distance_);
        b.u32(uint32_t(trajectory_.size()));
        uint8_t *p = b.extend(trajectory_.size() * kSampleStateBytes);
        for (const TrajectorySample &s : trajectory_) {
            saveSample(p, s);
            p += kSampleStateBytes;
        }
    });
    putSection(w, CkptSection::Env,
               [this](StateWriter &b) { env_->saveState(b); });
    putSection(w, CkptSection::Sync,
               [this](StateWriter &b) { sync_->saveState(b); });
    putSection(w, CkptSection::Soc,
               [this](StateWriter &b) { soc_->saveState(b); });
    putSection(w, CkptSection::Bridge,
               [this](StateWriter &b) { bridge_->saveState(b); });
    putSection(w, CkptSection::App,
               [this](StateWriter &b) { app_->saveState(b); });
    // The fault injector is a decorator: its own state goes into the
    // (optional) Faults section while the wrapped in-process endpoint
    // saves the actual wire queues. A faults-disabled retry can then
    // restore everything except the Faults section.
    const bridge::Transport &syncWire =
        faults_ ? faults_->inner() : *syncEnd_;
    putSection(w, CkptSection::TransportSync,
               [&syncWire](StateWriter &b) { syncWire.saveState(b); });
    putSection(w, CkptSection::TransportBridge,
               [this](StateWriter &b) { bridgeEnd_->saveState(b); });
    if (faults_)
        putSection(w, CkptSection::Faults,
                   [this](StateWriter &b) { faults_->saveState(b); });
    if (timeShared_)
        putSection(w, CkptSection::Background, [this](StateWriter &b) {
            backgroundLoad_->saveState(b);
            timeShared_->saveState(b);
        });

    Checkpoint ck;
    ck.period = periods_;
    ck.simTime = env_->simTime();
    ck.configFingerprint = configFingerprint(cfg_);
    ck.state = w.take();
    return ck;
}

void
CoSimulation::restore(const Checkpoint &ck)
{
    if (ck.version != Checkpoint::kVersion)
        throw CheckpointError("unsupported checkpoint version " +
                              std::to_string(ck.version));
    if (ck.configFingerprint != configFingerprint(cfg_))
        throw CheckpointError(
            "checkpoint was taken under a different mission "
            "configuration (fingerprint mismatch)");
    if (!checkpointable())
        throw CheckpointError(
            "transport does not support checkpoint restore (TCP)");

    StateReader r(ck.state);
    while (r.remaining() > 0) {
        auto tag = CkptSection(r.u8());
        uint32_t len = r.u32();
        if (len > r.remaining())
            throw SerdeError("checkpoint section overruns the blob");
        // Give each section its own bounded reader so a short section
        // cannot silently consume its successor's bytes.
        StateReader body(ck.state.data() + r.pos(), len);
        switch (tag) {
          case CkptSection::Cosim: {
            periods_ = body.u64();
            speedSum_ = body.f64();
            maxSpeed_ = body.f64();
            speedN_ = body.u64();
            prevPos_.x = body.f64();
            prevPos_.y = body.f64();
            prevPos_.z = body.f64();
            distance_ = body.f64();
            uint32_t n = body.count(kSampleStateBytes);
            trajectory_.clear();
            trajectory_.reserve(n);
            for (uint32_t i = 0; i < n; ++i)
                trajectory_.push_back(loadSample(body));
            break;
          }
          case CkptSection::Env:
            env_->restoreState(body);
            break;
          case CkptSection::Sync:
            sync_->restoreState(body);
            break;
          case CkptSection::Soc:
            soc_->restoreState(body);
            break;
          case CkptSection::Bridge:
            bridge_->restoreState(body);
            break;
          case CkptSection::App:
            app_->restoreState(body);
            break;
          case CkptSection::TransportSync:
            (faults_ ? faults_->inner() : *syncEnd_).restoreState(body);
            break;
          case CkptSection::TransportBridge:
            bridgeEnd_->restoreState(body);
            break;
          case CkptSection::Faults:
            // Skipped (not an error) when this instance runs without
            // fault injection: the supervisor's Disable retry policy
            // restores a faulty run's snapshot into a clean config.
            if (faults_)
                faults_->restoreState(body);
            break;
          case CkptSection::Background:
            if (timeShared_) {
                backgroundLoad_->restoreState(body);
                timeShared_->restoreState(body);
            }
            break;
          default:
            // Unknown forward-compatible section: skip.
            break;
        }
        r.skip(len);
    }
}

} // namespace rose::core
