/**
 * @file
 * Sensor models: IMU (accelerometer + gyroscope with bias and noise),
 * forward-facing depth sensor, and a first-person-view camera that
 * renders synthetic luminance rasters of the corridor.
 *
 * These substitute for AirSim's inertial sensor models and Unreal's
 * camera rendering. The camera image is a real raster (ray-cast walls
 * with distance shading, per-wall texture jitter, floor and sky bands),
 * carrying exactly the pose-relative-to-corridor information the
 * TrailNet-style classifiers consume. Sensors sample from a
 * SensorFrame so any vehicle model (quadrotor, rover) can carry them;
 * Drone-based convenience overloads are kept for tests.
 */

#ifndef ROSE_ENV_SENSORS_HH
#define ROSE_ENV_SENSORS_HH

#include <cstdint>
#include <vector>

#include "env/drone.hh"
#include "env/vehicle.hh"
#include "env/world.hh"
#include "util/geometry.hh"
#include "util/rng.hh"

namespace rose::env {

/** One IMU reading in the body frame. */
struct ImuSample
{
    /** Specific force [m/s^2] (gravity-reactive, as a real IMU reads). */
    Vec3 accel;
    /** Angular rate [rad/s]. */
    Vec3 gyro;
    /** Environment time of sampling [s]. */
    double timestamp = 0.0;
};

/** Grayscale float image, row-major, values in [0, 1]. */
struct Image
{
    int width = 0;
    int height = 0;
    std::vector<float> pixels;

    Image() = default;
    Image(int w, int h) : width(w), height(h), pixels(size_t(w) * h, 0.f) {}

    float &at(int row, int col)
    { return pixels[size_t(row) * width + col]; }
    float at(int row, int col) const
    { return pixels[size_t(row) * width + col]; }

    /** Serialized byte size when quantized to 8 bits for transport. */
    size_t byteSize() const { return pixels.size(); }
};

/** Noise/bias configuration for the IMU model. */
struct ImuConfig
{
    double accelNoiseStd = 0.05;  // [m/s^2]
    double gyroNoiseStd = 0.005;  // [rad/s]
    double accelBiasStd = 0.02;   // per-run constant bias draw
    double gyroBiasStd = 0.002;
    double gravity = 9.81;
};

/** IMU model; biases are drawn once per construction from the RNG. */
class Imu
{
  public:
    Imu(const ImuConfig &cfg, Rng rng);

    /** Sample the IMU from a vehicle sensor frame. */
    ImuSample sample(const SensorFrame &frame, double time_s);

    /** Convenience overload for bare Drone tests. */
    ImuSample sample(const Drone &drone, double time_s);

    /** Serialize noise stream + per-run bias draws. */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    ImuConfig cfg_;
    Rng rng_;
    Vec3 accelBias_;
    Vec3 gyroBias_;
};

/** Camera intrinsics; the paper's FPV camera has a 90 degree FOV. */
struct CameraConfig
{
    int width = 64;
    int height = 48;
    double horizontalFovDeg = 90.0;
    /** Pixel noise standard deviation. */
    double noiseStd = 0.01;
    /** Amplitude of per-wall-position texture variation. */
    double textureAmplitude = 0.15;
};

/**
 * FPV camera. Renders the corridor by casting one ray per image column
 * (the walls are vertical, so a column shares one wall hit), then fills
 * each column with sky / wall / floor bands using a pinhole projection
 * of the wall's top and bottom edges.
 */
class Camera
{
  public:
    Camera(const CameraConfig &cfg, Rng rng);

    /** Render the view from a pose. */
    Image render(const World &world, const Vec3 &position,
                 const Quat &attitude);

    /**
     * Render into a caller-reused image buffer: resized to the camera
     * dimensions, every pixel overwritten, no steady-state allocation.
     * Bit-identical to render() (which wraps this).
     */
    void renderInto(const World &world, const Vec3 &position,
                    const Quat &attitude, Image &out);

    /** Convenience overload for bare Drone tests. */
    Image render(const World &world, const Drone &drone);

    const CameraConfig &config() const { return cfg_; }

    /** Serialize the pixel-noise stream. */
    void saveState(StateWriter &w) const { rng_.saveState(w); }
    void restoreState(StateReader &r) { rng_.restoreState(r); }

  private:
    /** Rebuild the per-column direction table when the key changes. */
    void ensureDirections(double focal);

    CameraConfig cfg_;
    Rng rng_;
    /**
     * Cached per-column azimuth offsets atan2(u, focal): pure camera
     * geometry, so they are hoisted out of the per-frame loop and
     * invalidated only when width/FOV change. Only the atan2 value is
     * cached — the render still forms az = yaw + alpha and cos(az -
     * yaw) exactly as before, because (yaw + alpha) - yaw != alpha in
     * floating point and bit-identical frames are the contract.
     */
    std::vector<double> colAlpha_;
    double dirFocal_ = 0.0; ///< focal the table was built for
    /**
     * Per-frame floor-shade table: the floor brightness at row r
     * depends only on (focal, cam_z, r), not on the column, so it is
     * computed once per frame with the exact per-pixel expression and
     * looked up per column. Rebuilt every renderInto call (one divide
     * per row instead of per floor pixel).
     */
    std::vector<float> floorShade_;
    /** Per-column shade staging buffer (noise applied in a second
     *  pass). */
    std::vector<float> colShade_;
    /** The frame's pixel noise, [col][row], drawn by one
     *  Rng::gaussianFill call per frame. Only float(noise) reaches a
     *  pixel, so the fill writes floats. */
    std::vector<float> noise_;
};

/**
 * Forward depth sensor used by the dynamic runtime (Section 5.3:
 * "we determine the deadline by measuring forward-facing depth-sensor
 * readings"). Returns the distance to the nearest obstacle in the
 * current heading.
 */
class DepthSensor
{
  public:
    DepthSensor(double max_range, double noise_std, Rng rng)
        : maxRange_(max_range), noiseStd_(noise_std), rng_(rng) {}

    double sample(const World &world, const Vec3 &position,
                  double heading_rad);

    /** Convenience overload for bare Drone tests. */
    double sample(const World &world, const Drone &drone);

    /** Serialize the range-noise stream. */
    void saveState(StateWriter &w) const { rng_.saveState(w); }
    void restoreState(StateReader &r) { rng_.restoreState(r); }

  private:
    double maxRange_;
    double noiseStd_;
    Rng rng_;
};

} // namespace rose::env

#endif // ROSE_ENV_SENSORS_HH
