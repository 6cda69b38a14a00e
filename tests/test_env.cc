/**
 * @file
 * Unit tests for the environment substrate: world geometry, raycasting,
 * quadrotor dynamics, sensors, and the EnvSim facade.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "env/envsim.hh"
#include "env/sensors.hh"
#include "env/world.hh"

using namespace rose;
using namespace rose::env;

// ----------------------------------------------------------------- World

TEST(World, TunnelDimensionsMatchPaper)
{
    // "a straight path 50 meters in length and 3.2 meters wide";
    // Figure 10: "boundaries are at y = +-1.6m".
    TunnelWorld t;
    EXPECT_DOUBLE_EQ(t.length(), 50.0);
    EXPECT_DOUBLE_EQ(t.halfWidth(25.0), 1.6);
    EXPECT_DOUBLE_EQ(t.centerY(10.0), 0.0);
}

TEST(World, SShapeDimensionsMatchPaper)
{
    // "an 'S' shaped trajectory of 80 meters in length", wider than
    // the tunnel; mission completes at x = 80.
    SShapeWorld s;
    EXPECT_DOUBLE_EQ(s.length(), 80.0);
    EXPECT_GT(s.halfWidth(0.0), 1.6);
    EXPECT_NEAR(s.centerY(0.0), 0.0, 1e-12);
    EXPECT_NEAR(s.centerY(80.0), 0.0, 1e-9);
    // The S swings both ways.
    EXPECT_GT(s.centerY(20.0), 2.0);
    EXPECT_LT(s.centerY(60.0), -2.0);
}

TEST(World, LateralOffsetSigned)
{
    TunnelWorld t;
    EXPECT_GT(t.lateralOffset({5, 0.5, 1}), 0.0);
    EXPECT_LT(t.lateralOffset({5, -0.5, 1}), 0.0);
}

TEST(World, CollisionDetection)
{
    TunnelWorld t;
    EXPECT_FALSE(t.collides({5, 0, 1.5}, 0.25));
    EXPECT_TRUE(t.collides({5, 1.5, 1.5}, 0.25));  // wall graze
    EXPECT_TRUE(t.collides({5, -1.6, 1.5}, 0.25)); // in the wall
    EXPECT_TRUE(t.collides({5, 0, -0.1}, 0.25));   // under the floor
    EXPECT_TRUE(t.collides({-3, 0, 1.5}, 0.25));   // behind the start
}

TEST(World, MissionCompletion)
{
    TunnelWorld t;
    EXPECT_FALSE(t.missionComplete({49.9, 0, 1.5}));
    EXPECT_TRUE(t.missionComplete({50.0, 0, 1.5}));
}

TEST(World, SlopeMatchesNumericalDerivative)
{
    SShapeWorld s;
    for (double x : {1.0, 13.0, 37.0, 61.0, 79.0}) {
        double h = 1e-5;
        double num = (s.centerY(x + h) - s.centerY(x - h)) / (2 * h);
        EXPECT_NEAR(s.centerSlope(x), num, 1e-6);
    }
}

TEST(World, FactoryNames)
{
    EXPECT_EQ(makeWorld("tunnel")->name(), "tunnel");
    EXPECT_EQ(makeWorld("s-shape")->name(), "s-shape");
    EXPECT_EQ(makeWorld("sshape")->name(), "s-shape");
}

// --------------------------------------------------------------- Raycast

TEST(Raycast, PerpendicularWallDistance)
{
    TunnelWorld t;
    // Looking straight left (+y) from the centerline: wall at 1.6 m.
    RayHit hit = t.raycast({10, 0, 1.5}, kPi / 2);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 1.6, 0.01);
    EXPECT_EQ(hit.side, 1);
    // Looking right (-y): also 1.6 m away but the other wall.
    hit = t.raycast({10, 0, 1.5}, -kPi / 2);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 1.6, 0.01);
    EXPECT_EQ(hit.side, -1);
}

TEST(Raycast, AngledDistanceGeometry)
{
    TunnelWorld t;
    // At 30 degrees off-axis, the wall distance is halfWidth/sin(30).
    RayHit hit = t.raycast({10, 0, 1.5}, deg2rad(30.0));
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 1.6 / std::sin(deg2rad(30.0)), 0.02);
}

TEST(Raycast, DownCorridorNoHitWithinRange)
{
    TunnelWorld t;
    RayHit hit = t.raycast({10, 0, 1.5}, 0.0, 30.0);
    EXPECT_FALSE(hit.hit);
    EXPECT_DOUBLE_EQ(hit.distance, 30.0);
}

TEST(Raycast, StartInsideWallReportsImmediateHit)
{
    TunnelWorld t;
    RayHit hit = t.raycast({10, 1.7, 1.5}, 0.0);
    EXPECT_TRUE(hit.hit);
    EXPECT_DOUBLE_EQ(hit.distance, 0.0);
}

TEST(Raycast, SShapeCurvedWall)
{
    SShapeWorld s;
    // Looking straight down +x from the start, the curving right wall
    // must intercept the ray eventually.
    RayHit hit = s.raycast({0, 0, 1.5}, 0.0, 60.0);
    EXPECT_TRUE(hit.hit);
    EXPECT_GT(hit.distance, 1.5);
    EXPECT_LT(hit.distance, 50.0);
}

namespace {

/** Nearest ray-circle intersection distance, or a negative value. */
double
referenceRayCircle(double ox, double oy, double dx, double dy,
                   const Obstacle &o)
{
    double cx = o.x - ox, cy = o.y - oy;
    double t = cx * dx + cy * dy;
    if (t < 0.0)
        return -1.0;
    double closest2 = cx * cx + cy * cy - t * t;
    double r2 = o.radius * o.radius;
    if (closest2 > r2)
        return -1.0;
    double thit = t - std::sqrt(r2 - closest2);
    return thit >= 0.0 ? thit : 0.0;
}

/**
 * Oracle for World::raycast: the plain fixed-step march that tests the
 * walls at every step and every bisection midpoint.
 */
RayHit
referenceRaycast(const World &w, const Vec3 &origin, double azimuth,
                 double max_range)
{
    const double coarse = 0.10;
    double dx = std::cos(azimuth);
    double dy = std::sin(azimuth);

    double pillar_t = max_range + 1.0;
    for (const Obstacle &o : w.obstacles()) {
        double t = referenceRayCircle(origin.x, origin.y, dx, dy, o);
        if (t >= 0.0 && t < pillar_t)
            pillar_t = t;
    }

    auto outside = [&](double t) {
        double x = origin.x + dx * t;
        double y = origin.y + dy * t;
        return std::abs(y - w.centerY(x)) >= w.halfWidth(x);
    };

    RayHit hit;
    if (outside(0.0)) {
        hit.hit = true;
        hit.distance = 0.0;
        hit.point = origin;
        hit.side = w.lateralOffset(origin) > 0.0 ? 1 : -1;
        return hit;
    }

    auto pillarHit = [&]() {
        RayHit h;
        h.hit = true;
        h.distance = pillar_t;
        h.point = Vec3{origin.x + dx * pillar_t,
                       origin.y + dy * pillar_t, origin.z};
        h.side = w.lateralOffset(h.point) > 0.0 ? 1 : -1;
        return h;
    };

    double t_prev = 0.0;
    for (double t = coarse; t <= max_range; t += coarse) {
        if (t > pillar_t && pillar_t <= max_range)
            return pillarHit();
        if (outside(t)) {
            double lo = t_prev, hi = t;
            for (int i = 0; i < 20; ++i) {
                double mid = 0.5 * (lo + hi);
                if (outside(mid))
                    hi = mid;
                else
                    lo = mid;
            }
            if (pillar_t < hi && pillar_t <= max_range)
                return pillarHit();
            hit.hit = true;
            hit.distance = hi;
            hit.point = Vec3{origin.x + dx * hi, origin.y + dy * hi,
                             origin.z};
            hit.side =
                (hit.point.y - w.centerY(hit.point.x)) > 0.0 ? 1 : -1;
            return hit;
        }
        t_prev = t;
    }
    if (pillar_t <= max_range)
        return pillarHit();
    hit.hit = false;
    hit.distance = max_range;
    hit.point = Vec3{origin.x + dx * max_range, origin.y + dy * max_range,
                     origin.z};
    return hit;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameHit(const RayHit &a, const RayHit &b)
{
    return a.hit == b.hit && a.side == b.side &&
           sameBits(a.distance, b.distance) &&
           sameBits(a.point.x, b.point.x) &&
           sameBits(a.point.y, b.point.y) &&
           sameBits(a.point.z, b.point.z);
}

} // namespace

TEST(Raycast, SkippingMarchMatchesFullMarchBitForBit)
{
    // zigzag's centerY integrates its slope from x = 0 on every call,
    // so its rays cost the oracle far more; it gets fewer of them.
    const struct
    {
        const char *world;
        int rays;
    } cases[] = {{"tunnel", 45000}, {"s-shape", 45000}, {"zigzag", 12000}};

    Rng rng(0x7a9c);
    int checked = 0, mismatches = 0, wall_hits = 0, pillar_hits = 0,
        misses = 0, inside_wall = 0;
    for (const auto &c : cases) {
        std::unique_ptr<World> open = makeWorld(c.world);
        std::unique_ptr<World> pillars = makeWorld(c.world);
        for (int i = 0; i < 16; ++i) {
            double x = rng.uniform(0.0, pillars->length());
            pillars->addObstacle({x,
                                  pillars->centerY(x) +
                                      rng.uniform(-1.5, 1.5),
                                  rng.uniform(0.1, 0.6)});
        }
        for (int i = 0; i < c.rays; ++i) {
            const World &w = i % 3 == 0 ? *pillars : *open;
            double x = rng.uniform(-1.0, w.length() + 1.0);
            double hw = w.halfWidth(x);
            double off;
            switch (i % 4) {
              case 0: // anywhere, including a little inside the walls
                off = rng.uniform(-1.05, 1.05) * hw;
                break;
              case 1: // hugging a wall from inside, within 1 mm
                off = (rng.uniform() < 0.5 ? -1.0 : 1.0) *
                      (hw - rng.uniform(0.0, 1e-3));
                break;
              default:
                off = rng.uniform(-0.6, 0.6) * hw;
            }
            Vec3 origin{x, w.centerY(x) + off, 1.5};
            // Half the rays look roughly down the corridor, as the
            // camera's do; the rest go in any direction.
            double az = i % 2 == 0
                            ? w.tangentAngle(x) + rng.uniform(-0.8, 0.8)
                            : rng.uniform(-kPi, kPi);
            double range = i % 5 == 0   ? rng.uniform(0.0, 2.0)
                           : i % 5 == 1 ? rng.uniform(2.0, 15.0)
                                        : 60.0;

            RayHit got = w.raycast(origin, az, range);
            RayHit want = referenceRaycast(w, origin, az, range);
            ++checked;
            if (!sameHit(got, want)) {
                if (++mismatches <= 5)
                    ADD_FAILURE()
                        << c.world << " ray " << i << " from (" << x
                        << ", " << origin.y << ") az " << az
                        << " range " << range << ": got "
                        << got.distance << " want " << want.distance;
            }
            if (!want.hit)
                ++misses;
            else if (want.distance == 0.0)
                ++inside_wall;
            else if (&w == pillars.get() &&
                     std::abs(std::abs(want.point.y -
                                       w.centerY(want.point.x)) -
                              w.halfWidth(want.point.x)) > 1e-3)
                ++pillar_hits;
            else
                ++wall_hits;
        }
    }
    EXPECT_EQ(mismatches, 0) << "of " << checked << " rays";
    EXPECT_GE(checked, 100000);
    // The sample must exercise every outcome of the march.
    EXPECT_GT(wall_hits, 10000);
    EXPECT_GT(pillar_hits, 100);
    EXPECT_GT(misses, 1000);
    EXPECT_GT(inside_wall, 1000);
}

TEST(World, WallBoundsHoldForComputedGeometry)
{
    // raycast() trusts these bounds to skip wall tests; check them on
    // the geometry as computed, by finite differences.
    const double h = 2e-3;
    for (const char *name : {"tunnel", "s-shape", "zigzag"}) {
        SCOPED_TRACE(name);
        std::unique_ptr<World> w = makeWorld(name);
        WallBounds b = w->wallBounds();
        ASSERT_TRUE(std::isfinite(b.slope));
        double max_slope = 0.0, max_curv = 0.0, min_hw = 1e30;
        for (double x = -2.0; x < w->length() + 2.0; x += h) {
            double c0 = w->centerY(x - h), c1 = w->centerY(x),
                   c2 = w->centerY(x + h);
            double w0 = w->halfWidth(x - h), w1 = w->halfWidth(x),
                   w2 = w->halfWidth(x + h);
            max_slope = std::max(max_slope,
                                 std::abs(c2 - c1) / h +
                                     std::abs(w2 - w1) / h);
            max_curv = std::max(max_curv,
                                std::abs(c2 - 2 * c1 + c0) / (h * h) +
                                    std::abs(w2 - 2 * w1 + w0) / (h * h));
            min_hw = std::min(min_hw, w1);
        }
        EXPECT_LE(max_slope, b.slope);
        if (std::isfinite(b.curvature)) {
            EXPECT_LE(max_curv, b.curvature);
            EXPECT_GT(min_hw, 0.1 * (1.0 + b.slope));
        }
    }
}

// ----------------------------------------------------------------- Drone

TEST(Drone, FreeFallWithoutThrust)
{
    Drone d;
    d.setPose({0, 0, 10}, Quat{});
    for (int i = 0; i < 600; ++i)
        d.step(1.0 / 600.0);
    // ~1 s of free fall: z drops by ~4.9 m (slightly less with drag).
    EXPECT_LT(d.position().z, 6.0);
    EXPECT_GT(d.position().z, 4.5);
    EXPECT_LT(d.velocity().z, -7.5);
}

TEST(Drone, HoverThrustBalancesGravity)
{
    Drone d;
    DroneParams p;
    d.setPose({0, 0, 5}, Quat{});
    double hover = p.massKg * p.gravity / 4.0;
    d.setMotorCommand({hover, hover, hover, hover});
    for (int i = 0; i < 1200; ++i)
        d.step(1.0 / 600.0);
    // Open-loop hover: the spin-up lag costs some altitude, but there
    // must be no sustained acceleration once thrust settles.
    EXPECT_NEAR(d.position().z, 5.0, 0.5);
    EXPECT_GT(d.velocity().z, -0.5);
}

TEST(Drone, DifferentialThrustRolls)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    double hover = 9.81 / 4.0;
    // Raise the left-side motors (0 FL, 3 RL at +y): positive torque
    // about +x, i.e. positive roll (tips the body toward -y).
    d.setMotorCommand({hover + 0.2, hover - 0.2, hover - 0.2,
                       hover + 0.2});
    for (int i = 0; i < 120; ++i)
        d.step(1.0 / 600.0);
    EXPECT_GT(d.bodyRates().x, 0.05);
    EXPECT_GT(d.attitude().roll(), 0.0);
}

TEST(Drone, YawFromCounterTorque)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    double hover = 9.81 / 4.0;
    // CCW motors (0, 2) produce +z torque.
    d.setMotorCommand({hover + 0.3, hover - 0.3, hover + 0.3,
                       hover - 0.3});
    for (int i = 0; i < 300; ++i)
        d.step(1.0 / 600.0);
    EXPECT_GT(d.bodyRates().z, 0.05);
}

TEST(Drone, GroundClampsDescent)
{
    Drone d;
    d.setPose({0, 0, 0.05}, Quat{});
    for (int i = 0; i < 600; ++i)
        d.step(1.0 / 600.0);
    EXPECT_DOUBLE_EQ(d.position().z, 0.0);
    EXPECT_GE(d.velocity().z, 0.0);
}

TEST(Drone, MotorLagSmoothsStep)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    d.setMotorCommand({5, 5, 5, 5});
    d.step(1.0 / 600.0);
    // After one substep the lagged thrust is well below the command.
    EXPECT_LT(d.motorThrust()[0], 1.0);
    for (int i = 0; i < 600; ++i)
        d.step(1.0 / 600.0);
    EXPECT_NEAR(d.motorThrust()[0], 5.0, 0.05);
}

TEST(Drone, WallCollisionResolution)
{
    Drone d;
    d.setPose({5, 1.5, 1.5}, Quat{});
    // Moving into the left wall (positive y).
    d.setMotorCommand({9.81 / 4, 9.81 / 4, 9.81 / 4, 9.81 / 4});
    d.step(1.0 / 600.0);
    Vec3 before_pos{5, 1.3, 1.5};
    double impact =
        d.resolveWallCollision(before_pos, Vec3{0, -1, 0});
    EXPECT_DOUBLE_EQ(d.position().y, 1.3);
    EXPECT_GE(impact, 0.0);
}

// --------------------------------------------------------------- Sensors

TEST(Imu, GravityAtRest)
{
    Drone d;
    d.setPose({0, 0, 1.5}, Quat{});
    double hover = 9.81 / 4.0;
    d.setMotorCommand({hover, hover, hover, hover});
    for (int i = 0; i < 1200; ++i)
        d.step(1.0 / 600.0);
    Imu imu(ImuConfig{}, Rng(3));
    ImuSample s = imu.sample(d, 2.0);
    // At hover the specific force reads +g on body z.
    EXPECT_NEAR(s.accel.z, 9.81, 0.5);
    EXPECT_NEAR(s.accel.x, 0.0, 0.3);
    EXPECT_NEAR(s.gyro.norm(), 0.0, 0.1);
    EXPECT_DOUBLE_EQ(s.timestamp, 2.0);
}

TEST(Imu, GyroTracksBodyRates)
{
    Drone d;
    d.setPose({0, 0, 5}, Quat{});
    double hover = 9.81 / 4.0;
    d.setMotorCommand({hover + 0.3, hover - 0.3, hover + 0.3,
                       hover - 0.3});
    for (int i = 0; i < 300; ++i)
        d.step(1.0 / 600.0);
    Imu imu(ImuConfig{}, Rng(5));
    ImuSample s = imu.sample(d, 0.5);
    EXPECT_NEAR(s.gyro.z, d.bodyRates().z, 0.05);
}

TEST(Camera, ImageDimensionsAndRange)
{
    TunnelWorld w;
    Drone d;
    d.setPose({5, 0, 1.5}, Quat{});
    Camera cam(CameraConfig{}, Rng(7));
    Image img = cam.render(w, d);
    EXPECT_EQ(img.width, 64);
    EXPECT_EQ(img.height, 48);
    ASSERT_EQ(img.pixels.size(), size_t(64) * 48);
    for (float v : img.pixels) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(Camera, OffsetSkewsBrightness)
{
    // Near the left wall, left-side columns see a much closer (brighter)
    // wall than right-side columns; the classifier features rely on
    // this asymmetry carrying pose information.
    TunnelWorld w;
    Camera cam(CameraConfig{}, Rng(9));

    Drone d;
    d.setPose({5, 1.0, 1.5}, Quat{}); // near left wall
    Image img = cam.render(w, d);

    auto col_mean = [&](int c) {
        double s = 0;
        for (int r = 0; r < img.height; ++r)
            s += img.at(r, c);
        return s / img.height;
    };
    double left = (col_mean(2) + col_mean(6) + col_mean(10)) / 3;
    double right = (col_mean(img.width - 3) + col_mean(img.width - 7) +
                    col_mean(img.width - 11)) / 3;
    EXPECT_GT(left, right + 0.02);
}

TEST(Camera, DeterministicGivenSeed)
{
    TunnelWorld w;
    Drone d;
    d.setPose({5, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    Camera a(CameraConfig{}, Rng(11));
    Camera b(CameraConfig{}, Rng(11));
    Image ia = a.render(w, d);
    Image ib = b.render(w, d);
    EXPECT_EQ(ia.pixels, ib.pixels);
}

TEST(Depth, ReadsForwardDistance)
{
    TunnelWorld w;
    Drone d;
    // Heading 90 degrees left: wall 1.6 m away.
    d.setPose({10, 0, 1.5}, Quat::fromEuler(0, 0, kPi / 2));
    DepthSensor ds(30.0, 0.0, Rng(13));
    EXPECT_NEAR(ds.sample(w, d), 1.6, 0.02);
    // Heading down the corridor: max range.
    d.setPose({10, 0, 1.5}, Quat{});
    EXPECT_NEAR(ds.sample(w, d), 30.0, 0.01);
}

// ---------------------------------------------------------------- EnvSim

TEST(EnvSim, FrameSteppingAdvancesTime)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(60);
    EXPECT_EQ(sim.frameCount(), 60u);
    EXPECT_NEAR(sim.simTime(), 1.0, 1e-9);
}

TEST(EnvSim, TakesOffAndHolds)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(6 * 60);
    EXPECT_NEAR(sim.kinematics().position.z, cfg.cruiseAltitude, 0.1);
    EXPECT_FALSE(sim.collisionInfo().hasCollided);
}

TEST(EnvSim, CommandedForwardFlightProgresses)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60); // take off
    sim.commandVelocity(3.0, 0.0, 0.0);
    sim.stepFrames(5 * 60);
    EXPECT_GT(sim.kinematics().position.x, 10.0);
    EXPECT_FALSE(sim.collisionInfo().hasCollided);
    EXPECT_NEAR(sim.lateralOffset(), 0.0, 0.4);
}

TEST(EnvSim, DriftIntoWallCollides)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(0.0, 2.0, 0.0); // fly left into the wall
    sim.stepFrames(4 * 60);
    EXPECT_TRUE(sim.collisionInfo().hasCollided);
    EXPECT_GE(sim.collisionInfo().count, 1u);
    // Collision resolution keeps the drone inside the corridor.
    EXPECT_LT(std::abs(sim.lateralOffset()), 1.6);
}

TEST(EnvSim, AngledStartHeadsTowardWall)
{
    // Figure 10 setup: starting at 20 degrees, an uncorrected drone
    // reaches the wall in ~1.6/sin(20) = 4.7 m of travel.
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.initialYawDeg = 20.0;
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(3.0, 0.0, 0.0);
    sim.stepFrames(4 * 60);
    EXPECT_TRUE(sim.collisionInfo().hasCollided);
}

TEST(EnvSim, MissionCompletion)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.initialPosition = {48.0, 0.0, 0.4};
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(3.0, 0.0, 0.0);
    sim.stepFrames(3 * 60);
    EXPECT_TRUE(sim.missionComplete());
}

TEST(EnvSim, DeterministicWithSameSeed)
{
    EnvConfig cfg;
    cfg.seed = 77;
    auto run = [&]() {
        EnvSim sim(cfg);
        sim.stepFrames(60);
        sim.commandVelocity(2.0, 0.0, 0.1);
        sim.stepFrames(120);
        return sim.kinematics().position;
    };
    Vec3 a = run();
    Vec3 b = run();
    EXPECT_DOUBLE_EQ(a.x, b.x);
    EXPECT_DOUBLE_EQ(a.y, b.y);
    EXPECT_DOUBLE_EQ(a.z, b.z);
}

TEST(EnvSim, SeedsChangeTurbulence)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.3;
    cfg.seed = 1;
    EnvSim a(cfg);
    cfg.seed = 2;
    EnvSim b(cfg);
    a.stepFrames(300);
    b.stepFrames(300);
    EXPECT_NE(a.kinematics().position.y, b.kinematics().position.y);
}

TEST(EnvSim, HeadingErrorTracksYaw)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.initialYawDeg = 15.0;
    EnvSim sim(cfg);
    EXPECT_NEAR(sim.headingError(), deg2rad(15.0), 1e-6);
}

// -------------------------------------------------------------- obstacles

TEST(Obstacles, RaycastHitsPillar)
{
    TunnelWorld t;
    t.addObstacle({15.0, 0.0, 0.5});
    // Looking straight down the corridor from x=10: pillar face at
    // 15 - 0.5 - 10 = 4.5 m.
    RayHit hit = t.raycast({10, 0, 1.5}, 0.0, 30.0);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 4.5, 0.01);
    // A ray aimed well past the pillar still reaches the max range.
    RayHit miss = t.raycast({10, 1.2, 1.5}, 0.0, 30.0);
    EXPECT_NEAR(miss.distance, 30.0, 0.01);
}

TEST(Obstacles, PillarNearerThanWallWins)
{
    TunnelWorld t;
    t.addObstacle({10.0, 0.8, 0.3});
    // Looking left from the center at x=10: pillar face at 0.5 m,
    // wall at 1.6 m.
    RayHit hit = t.raycast({10, 0, 1.5}, kPi / 2);
    ASSERT_TRUE(hit.hit);
    EXPECT_NEAR(hit.distance, 0.5, 0.01);
}

TEST(Obstacles, CollisionDetection)
{
    TunnelWorld t;
    t.addObstacle({20.0, 0.0, 0.5});
    EXPECT_TRUE(t.collides({20.5, 0.0, 1.5}, 0.25));  // overlapping
    EXPECT_FALSE(t.collides({21.5, 0.0, 1.5}, 0.25)); // clear
}

TEST(Obstacles, DepthSensorSeesPillar)
{
    TunnelWorld t;
    t.addObstacle({15.0, 0.0, 0.5});
    Drone d;
    d.setPose({10, 0, 1.5}, Quat{});
    DepthSensor ds(30.0, 0.0, Rng(71));
    EXPECT_NEAR(ds.sample(t, d), 4.5, 0.05);
}

TEST(Obstacles, CameraRendersPillar)
{
    // Center columns see the nearby pillar (bright, close); edge
    // columns see the distant corridor. The wall band from a close
    // hit is much taller, so center columns carry more wall shading.
    TunnelWorld clear_world;
    TunnelWorld blocked;
    blocked.addObstacle({12.0, 0.0, 0.5});
    Drone d;
    d.setPose({10, 0, 1.5}, Quat{});
    Camera cam_a(CameraConfig{}, Rng(73));
    Camera cam_b(CameraConfig{}, Rng(73));
    Image a = cam_a.render(clear_world, d);
    Image b = cam_b.render(blocked, d);
    int mid = a.width / 2;
    double diff = 0.0;
    for (int r = 0; r < a.height; ++r)
        diff += std::abs(a.at(r, mid) - b.at(r, mid));
    EXPECT_GT(diff, 1.0); // the pillar visibly changes the image
}

TEST(Obstacles, EnvSimResolvesPillarCollision)
{
    EnvConfig cfg;
    cfg.turbulenceForceStd = 0.0;
    cfg.obstacles.push_back({8.0, 0.0, 0.5});
    EnvSim sim(cfg);
    sim.stepFrames(3 * 60);
    sim.commandVelocity(3.0, 0.0, 0.0); // straight into the pillar
    sim.stepFrames(4 * 60);
    EXPECT_TRUE(sim.collisionInfo().hasCollided);
    // Resolution pushed the vehicle back outside the pillar.
    Vec3 p = sim.kinematics().position;
    double dx = p.x - 8.0, dy = p.y - 0.0;
    EXPECT_GE(std::sqrt(dx * dx + dy * dy), 0.5 + 0.25 - 0.02);
}

// ------------------------------------------ cross-world property sweep

/** Invariants every corridor world must satisfy. */
class WorldProperty : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorldProperty, GeometryInvariants)
{
    auto world = makeWorld(GetParam());
    EXPECT_GT(world->length(), 10.0);

    for (double x = 0.5; x < world->length(); x += 1.7) {
        // Positive width everywhere.
        EXPECT_GT(world->halfWidth(x), 0.5) << x;
        // Slope consistent with the centerline derivative.
        double h = 1e-4;
        double num =
            (world->centerY(x + h) - world->centerY(x - h)) / (2 * h);
        EXPECT_NEAR(world->centerSlope(x), num, 0.02) << x;
        // The centerline itself never collides.
        Vec3 center{x, world->centerY(x), 1.5};
        EXPECT_FALSE(world->collides(center, 0.25)) << x;
        // A point beyond the wall does.
        Vec3 outside{x, world->centerY(x) + world->halfWidth(x) + 0.3,
                     1.5};
        EXPECT_TRUE(world->collides(outside, 0.25)) << x;
        // Raycasts from the centerline hit the walls symmetrically
        // (within the tangent correction).
        double tangent = world->tangentAngle(x);
        RayHit left = world->raycast(center, tangent + kPi / 2);
        RayHit right = world->raycast(center, tangent - kPi / 2);
        ASSERT_TRUE(left.hit) << x;
        ASSERT_TRUE(right.hit) << x;
        EXPECT_NEAR(left.distance, right.distance,
                    0.35 * world->halfWidth(x)) << x;
    }
}

INSTANTIATE_TEST_SUITE_P(Worlds, WorldProperty,
                         ::testing::Values("tunnel", "s-shape",
                                           "zigzag"));

TEST(ZigzagWorld, AlternatesDirection)
{
    ZigzagWorld z;
    // First segment climbs, second descends.
    EXPECT_GT(z.centerSlope(7.0), 0.2);
    EXPECT_LT(z.centerSlope(22.0), -0.2);
    EXPECT_GT(z.centerSlope(37.0), 0.2);
    // Continuous at the corners (rounded).
    double before = z.centerSlope(14.9);
    double after = z.centerSlope(15.1);
    EXPECT_LT(std::abs(before - after), 0.1);
}
