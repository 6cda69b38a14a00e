/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates: packet
 * codec throughput, corridor raycasting, camera rendering, classifier
 * inference, Gemmini tiling-model evaluation, RV32IM simulation rate,
 * and full co-simulation periods. These quantify the infrastructure
 * itself (the paper's Figure 15 concern: what limits simulator
 * throughput) rather than the modeled UAV.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "bridge/packet.hh"
#include "core/cosim.hh"
#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "dnn/forward.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "gemmini/gemmini.hh"
#include "rv/assembler.hh"
#include "rv/core.hh"
#include "rv/timing.hh"
#include "util/rng.hh"

using namespace rose;

static void
BM_PacketImageRoundTrip(benchmark::State &state)
{
    env::Image img(64, 48);
    for (size_t i = 0; i < img.pixels.size(); ++i)
        img.pixels[i] = float(i % 251) / 251.0f;
    for (auto _ : state) {
        bridge::Packet p = bridge::encodeImageResp(img);
        env::Image out = bridge::decodeImageResp(p);
        benchmark::DoNotOptimize(out.pixels.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(img.byteSize()));
}
BENCHMARK(BM_PacketImageRoundTrip);

static void
BM_WireFraming(benchmark::State &state)
{
    bridge::Packet p = bridge::encodeVelocityCmd({1.0, 2.0, 3.0});
    std::vector<uint8_t> buf;
    bridge::FrameBuffer frames;
    bridge::Packet out;
    for (auto _ : state) {
        buf.clear();
        bridge::serializePacket(p, buf);
        frames.append(buf.data(), buf.size());
        frames.next(out);
        benchmark::DoNotOptimize(out.payload.data());
    }
}
BENCHMARK(BM_WireFraming);

static void
BM_RaycastTunnel(benchmark::State &state)
{
    env::TunnelWorld w;
    double az = 0.3;
    for (auto _ : state) {
        env::RayHit hit = w.raycast({10, 0.4, 1.5}, az);
        benchmark::DoNotOptimize(hit.distance);
        az = -az;
    }
}
BENCHMARK(BM_RaycastTunnel);

static void
BM_CameraRender(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    for (auto _ : state) {
        env::Image img = cam.render(w, d);
        benchmark::DoNotOptimize(img.pixels.data());
    }
}
BENCHMARK(BM_CameraRender);

static void
BM_ClassifierInference(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    env::Image img = cam.render(w, d);
    dnn::Model m = dnn::makeResNet(14);
    dnn::Classifier cls(m, Rng(2));
    for (auto _ : state) {
        dnn::ClassifierOutput out = cls.infer(img);
        benchmark::DoNotOptimize(out.angular.probs);
    }
}
BENCHMARK(BM_ClassifierInference);

static void
BM_CameraRenderInto(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    env::Image img;
    for (auto _ : state) {
        cam.renderInto(w, d.position(), d.attitude(), img);
        benchmark::DoNotOptimize(img.pixels.data());
    }
}
BENCHMARK(BM_CameraRenderInto);

static void
BM_PoseEstimateScratch(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    env::Image img = cam.render(w, d);
    dnn::EstimatorConfig cfg;
    dnn::PoseScratch scratch;
    for (auto _ : state) {
        dnn::PoseEstimate est = dnn::estimatePose(img, cfg, scratch);
        benchmark::DoNotOptimize(est.headingRad);
    }
}
BENCHMARK(BM_PoseEstimateScratch);

static void
BM_GemmNaive(benchmark::State &state)
{
    const int m = int(state.range(0)), k = int(state.range(1)),
              n = int(state.range(2));
    gemmini::Gemmini g;
    Rng rng(3);
    std::vector<float> a(size_t(m) * k), b(size_t(k) * n),
        c(size_t(m) * n);
    for (float &v : a)
        v = float(rng.uniform(-1, 1));
    for (float &v : b)
        v = float(rng.uniform(-1, 1));
    for (auto _ : state) {
        g.matmul(m, k, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * m * k * n);
}
BENCHMARK(BM_GemmNaive)->Args({2500, 9, 8})->Args({625, 72, 16})
    ->Args({144, 144, 32});

static void
BM_Im2col(benchmark::State &state)
{
    dnn::Model m = dnn::makeResNet(14);
    const dnn::LayerSpec &spec = m.layers.front(); // stem conv
    dnn::Tensor in(1, dnn::kDnnInputH, dnn::kDnnInputW);
    Rng rng(5);
    for (float &v : in.data())
        v = float(rng.uniform(0, 1));
    int64_t bytes = 0;
    for (auto _ : state) {
        std::vector<float> out = dnn::im2col(spec, in);
        benchmark::DoNotOptimize(out.data());
        bytes = int64_t(out.size() * sizeof(float));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * bytes);
}
BENCHMARK(BM_Im2col);

static void
BM_GemminiTilingModel(benchmark::State &state)
{
    gemmini::Gemmini g;
    for (auto _ : state) {
        gemmini::GemmCost c = g.gemmCycles(2500, 288, 64);
        benchmark::DoNotOptimize(c.totalCycles);
    }
}
BENCHMARK(BM_GemminiTilingModel);

static void
BM_InferenceSchedule(benchmark::State &state)
{
    dnn::ExecutionEngine engine(soc::configA());
    dnn::Model m = dnn::makeResNet(int(state.range(0)));
    for (auto _ : state) {
        dnn::InferenceSchedule s = engine.schedule(m);
        benchmark::DoNotOptimize(s.totalCycles);
    }
}
BENCHMARK(BM_InferenceSchedule)->Arg(6)->Arg(34);

static void
BM_RvCoreSimRate(benchmark::State &state)
{
    rv::Program p = rv::assemble(R"(
        li a0, 100000
    loop:
        addi a1, a1, 3
        xori a2, a1, 5
        and a3, a2, a1
        addi a0, a0, -1
        bnez a0, loop
        ecall
    )");
    for (auto _ : state) {
        rv::Core core;
        core.loadProgram(p.words);
        uint64_t n = core.run();
        benchmark::DoNotOptimize(n);
        state.SetItemsProcessed(state.items_processed() + int64_t(n));
    }
}
BENCHMARK(BM_RvCoreSimRate);

static void
BM_RvTimedSimRate(benchmark::State &state)
{
    rv::Program p = rv::assemble(R"(
        li a0, 100000
    loop:
        addi a1, a1, 3
        xori a2, a1, 5
        and a3, a2, a1
        addi a0, a0, -1
        bnez a0, loop
        ecall
    )");
    for (auto _ : state) {
        rv::Core core;
        core.loadProgram(p.words);
        rv::BoomTiming tm;
        uint64_t n = 0;
        while (core.stopReason() == rv::StopReason::Running) {
            tm.retire(core.step());
            ++n;
        }
        benchmark::DoNotOptimize(tm.cycles());
        state.SetItemsProcessed(state.items_processed() + int64_t(n));
    }
}
BENCHMARK(BM_RvTimedSimRate);

static void
BM_CosimPeriod(benchmark::State &state)
{
    core::CosimConfig cfg;
    cfg.env.worldName = "tunnel";
    cfg.soc = soc::configA();
    cfg.sync.cyclesPerSync = Cycles(state.range(0)) * kMegaCycles;
    core::CoSimulation sim(cfg);
    for (auto _ : state)
        sim.stepPeriod();
    // Simulated cycles per wall second.
    state.counters["sim_MHz"] = benchmark::Counter(
        double(state.iterations()) * double(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CosimPeriod)->Arg(10)->Arg(100);

BENCHMARK_MAIN();
