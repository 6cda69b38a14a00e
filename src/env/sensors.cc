#include "sensors.hh"

#include <algorithm>
#include <cmath>

#include "util/serde.hh"

namespace rose::env {

Imu::Imu(const ImuConfig &cfg, Rng rng) : cfg_(cfg), rng_(rng)
{
    accelBias_ = Vec3{rng_.gaussian(0, cfg_.accelBiasStd),
                      rng_.gaussian(0, cfg_.accelBiasStd),
                      rng_.gaussian(0, cfg_.accelBiasStd)};
    gyroBias_ = Vec3{rng_.gaussian(0, cfg_.gyroBiasStd),
                     rng_.gaussian(0, cfg_.gyroBiasStd),
                     rng_.gaussian(0, cfg_.gyroBiasStd)};
}

ImuSample
Imu::sample(const SensorFrame &frame, double time_s)
{
    // Specific force: the accelerometer measures kinematic acceleration
    // minus gravity, expressed in the body frame.
    Vec3 f_world = frame.accelWorld + Vec3{0.0, 0.0, cfg_.gravity};
    Vec3 f_body = frame.attitude.rotateInverse(f_world);

    ImuSample s;
    s.accel = f_body + accelBias_ +
              Vec3{rng_.gaussian(0, cfg_.accelNoiseStd),
                   rng_.gaussian(0, cfg_.accelNoiseStd),
                   rng_.gaussian(0, cfg_.accelNoiseStd)};
    s.gyro = frame.bodyRates + gyroBias_ +
             Vec3{rng_.gaussian(0, cfg_.gyroNoiseStd),
                  rng_.gaussian(0, cfg_.gyroNoiseStd),
                  rng_.gaussian(0, cfg_.gyroNoiseStd)};
    s.timestamp = time_s;
    return s;
}

ImuSample
Imu::sample(const Drone &drone, double time_s)
{
    return sample(SensorFrame{drone.position(), drone.attitude(),
                              drone.bodyRates(), drone.lastAccel()},
                  time_s);
}

namespace {

/** Deterministic texture hash: smooth-ish brightness jitter keyed on the
 *  wall-hit position, standing in for Unreal's randomized textures. */
double
textureAt(double x, double z, int side)
{
    double u = x * 2.7 + z * 1.3 + side * 17.0;
    double v = std::sin(u) * 43758.5453;
    return v - std::floor(v); // [0,1)
}

} // namespace

Camera::Camera(const CameraConfig &cfg, Rng rng) : cfg_(cfg), rng_(rng)
{
}

void
Camera::ensureDirections(double focal)
{
    if (colAlpha_.size() == size_t(cfg_.width) && dirFocal_ == focal)
        return;
    colAlpha_.resize(size_t(cfg_.width));
    for (int c = 0; c < cfg_.width; ++c) {
        // Column azimuth: leftmost column looks left of the heading.
        double u = (cfg_.width / 2.0 - 0.5 - c);
        colAlpha_[size_t(c)] = std::atan2(u, focal);
    }
    dirFocal_ = focal;
}

Image
Camera::render(const World &world, const Vec3 &position,
               const Quat &attitude)
{
    Image img;
    renderInto(world, position, attitude, img);
    return img;
}

void
Camera::renderInto(const World &world, const Vec3 &position,
                   const Quat &attitude, Image &img)
{
    img.width = cfg_.width;
    img.height = cfg_.height;
    img.pixels.resize(size_t(cfg_.width) * cfg_.height);
    double yaw = attitude.yaw();
    double hfov = deg2rad(cfg_.horizontalFovDeg);
    // Pinhole focal length in pixels (same for both axes).
    double focal = (cfg_.width / 2.0) / std::tan(hfov / 2.0);
    ensureDirections(focal);
    double cam_z = position.z;
    double wall_h = world.wallHeight();
    const int H = cfg_.height;
    const double mid = H / 2.0 - 0.5;

    // The floor brightness at row r is column-independent: hoist the
    // divide chain out of the pixel loop into one per-frame table,
    // using the exact expression the per-pixel code evaluated.
    floorShade_.resize(size_t(H));
    for (int r = 0; r < H; ++r) {
        double floor_d =
            focal * cam_z / std::max(0.5, double(r) - mid);
        floorShade_[size_t(r)] = float(0.10 + 0.25 / (1.0 + 0.2 * floor_d));
    }
    // Horizon split of the open-corridor view: r < mid for integer r.
    const int horizon = std::clamp(int(std::ceil(mid)), 0, H);
    colShade_.resize(size_t(H));
    // The frame's pixel noise in one batch draw, in the column-major,
    // row-ascending order the per-pixel draws had: noise_[c * H + r].
    noise_.resize(size_t(cfg_.width) * size_t(H));
    rng_.gaussianFill(0.0, cfg_.noiseStd, noise_.data(), noise_.size());

    for (int c = 0; c < cfg_.width; ++c) {
        double az = yaw + colAlpha_[size_t(c)];
        RayHit hit = world.raycast(position, az);

        // Perpendicular distance for projection (avoids fisheye).
        double d = std::max(0.05, hit.distance * std::cos(az - yaw));

        // Rows of the wall's top and bottom edges.
        double top_row = mid - focal * (wall_h - cam_z) / d;
        double bot_row = mid + focal * cam_z / d;

        // The per-row branch ladder resolves to three contiguous bands
        // (sky / wall / floor): for integer r, r < top_row iff
        // r < ceil(top_row) and r > bot_row iff r >= floor(bot_row)+1.
        // The floor test is subordinate to the sky test, so the floor
        // band cannot start above the sky band's end.
        float *shade = colShade_.data();
        if (!hit.hit) {
            // Open end of the corridor: horizon split.
            for (int r = 0; r < horizon; ++r)
                shade[r] = 0.85f;
            for (int r = horizon; r < H; ++r)
                shade[r] = 0.15f;
        } else {
            // Clamp in double before the int conversion: row edges can
            // be far outside [0, H) for extreme poses.
            int sky_end =
                int(std::clamp(std::ceil(top_row), 0.0, double(H)));
            int floor_begin = std::max(
                sky_end,
                int(std::clamp(std::floor(bot_row) + 1.0, 0.0,
                               double(H))));

            double shade_base =
                0.25 + 0.6 / (1.0 + 0.12 * hit.distance);
            double span = std::max(1.0, bot_row - top_row);
            double tex_u = hit.point.x + hit.point.y;

            for (int r = 0; r < sky_end; ++r)
                shade[r] = 0.85f; // sky above the wall
            for (int r = sky_end; r < floor_begin; ++r) {
                // Wall: distance shading plus texture jitter keyed on
                // the hit position and row height.
                double frac = (bot_row - r) / span;
                double tex = textureAt(tex_u, frac * wall_h, hit.side);
                shade[r] = float(shade_base *
                                 (1.0 +
                                  cfg_.textureAmplitude * (tex - 0.5)));
            }
            for (int r = floor_begin; r < H; ++r)
                shade[r] = floorShade_[size_t(r)];
        }

        const double *noise = &noise_[size_t(c) * size_t(H)];
        for (int r = 0; r < H; ++r) {
            float v = shade[r] + float(noise[r]);
            img.at(r, c) = float(clampd(v, 0.0, 1.0));
        }
    }
}

Image
Camera::render(const World &world, const Drone &drone)
{
    return render(world, drone.position(), drone.attitude());
}

double
DepthSensor::sample(const World &world, const Vec3 &position,
                    double heading_rad)
{
    RayHit hit = world.raycast(position, heading_rad, maxRange_);
    double d = hit.hit ? hit.distance : maxRange_;
    d += rng_.gaussian(0.0, noiseStd_);
    return clampd(d, 0.0, maxRange_);
}

double
DepthSensor::sample(const World &world, const Drone &drone)
{
    return sample(world, drone.position(), drone.attitude().yaw());
}

void
Imu::saveState(StateWriter &w) const
{
    rng_.saveState(w);
    w.f64(accelBias_.x);
    w.f64(accelBias_.y);
    w.f64(accelBias_.z);
    w.f64(gyroBias_.x);
    w.f64(gyroBias_.y);
    w.f64(gyroBias_.z);
}

void
Imu::restoreState(StateReader &r)
{
    rng_.restoreState(r);
    accelBias_.x = r.f64();
    accelBias_.y = r.f64();
    accelBias_.z = r.f64();
    gyroBias_.x = r.f64();
    gyroBias_.y = r.f64();
    gyroBias_.z = r.f64();
}

} // namespace rose::env
