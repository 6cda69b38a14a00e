/**
 * @file
 * Corridor world geometry for the UAV navigation task.
 *
 * The paper evaluates two Unreal Engine maps (Figure 9): "tunnel", a
 * straight 50 m path 3.2 m wide, and "s-shape", an S-shaped 80 m
 * trajectory with more lateral room. We model both as channel worlds: a
 * centerline y = f(x) with half-width w(x), walls at y = f(x) +- w(x),
 * floor at z = 0 and walls of finite height (used by the camera model).
 * The mission is completed upon reaching x = length() (as in Figure 11:
 * "the mission is completed upon reaching an x-coordinate of 80").
 */

#ifndef ROSE_ENV_WORLD_HH
#define ROSE_ENV_WORLD_HH

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/geometry.hh"

namespace rose::env {

/** Result of a horizontal-plane raycast against the corridor walls. */
struct RayHit
{
    /** Distance to the nearest wall along the ray [m]; range-clamped. */
    double distance = 0.0;
    /** True if the ray hit a wall within the max range. */
    bool hit = false;
    /** World position of the hit point (valid when hit). */
    Vec3 point;
    /** +1 if the left wall (y > center) was hit, -1 for the right wall. */
    int side = 0;
};

/** A cylindrical pillar obstacle standing on the corridor floor. */
struct Obstacle
{
    double x = 0.0;
    double y = 0.0;
    double radius = 0.4;
};

/**
 * Conservative derivative bounds of a world's wall geometry, holding for
 * centerY()/halfWidth() as computed, over all x. raycast() uses them to
 * skip wall tests whose outcome they prove; an unknown (infinite) bound
 * makes it test every point.
 */
struct WallBounds
{
    static constexpr double kUnknown =
        std::numeric_limits<double>::infinity();

    /** Lipschitz bound on |centerY'(x)| + |halfWidth'(x)|. */
    double slope = kUnknown;
    /**
     * Bound on |centerY''(x)| + |halfWidth''(x)|. A finite value also
     * promises halfWidth(x) > 0.1 * (1 + slope) everywhere, so no march
     * step that ends outside the corridor can contain the centerline,
     * where |y - centerY(x)| has its kink.
     */
    double curvature = kUnknown;
};

/**
 * Abstract corridor world. Coordinates: x is mission progress, y is
 * lateral, z is altitude. Worlds may additionally carry pillar
 * obstacles (full-height cylinders): they block rays (so the camera
 * renders them and the depth sensor sees them) and collide like walls.
 */
class World
{
  public:
    virtual ~World() = default;

    /** Human-readable map name ("tunnel", "s-shape"). */
    virtual std::string name() const = 0;

    /** Mission length along x [m]. */
    virtual double length() const = 0;

    /** Centerline lateral position at progress x. */
    virtual double centerY(double x) const = 0;

    /** Corridor half-width at progress x. */
    virtual double halfWidth(double x) const = 0;

    /** Wall height used by the camera model [m]. */
    virtual double wallHeight() const { return 4.0; }

    /** Derivative bounds of the walls (default: unknown). */
    virtual WallBounds wallBounds() const { return {}; }

    /** Slope dCenterY/dx, default via central difference. */
    virtual double centerSlope(double x) const;

    /** Heading of the corridor tangent at x [rad]. */
    double tangentAngle(double x) const;

    /** Signed lateral offset of a point from the centerline (+ = left). */
    double lateralOffset(const Vec3 &pos) const;

    /**
     * Check whether a sphere of the given radius at pos penetrates a
     * wall, the floor, or the entry plane.
     */
    bool collides(const Vec3 &pos, double radius) const;

    /** True once the mission end plane has been crossed. */
    bool missionComplete(const Vec3 &pos) const
    { return pos.x >= length(); }

    /**
     * March a ray from origin along the horizontal direction given by
     * azimuth (world yaw) until it exits the corridor through a wall
     * or strikes a pillar obstacle, whichever is closer. The march
     * steps 0.1 m and bisects the first outside step 20 times; wall
     * tests that wallBounds() decides are skipped without changing
     * the result. Stateless, so one world serves concurrent missions.
     *
     * @param origin ray start; only x/y are used for wall intersection.
     * @param azimuth world-frame heading of the ray [rad].
     * @param max_range give up after this distance [m].
     */
    RayHit raycast(const Vec3 &origin, double azimuth,
                   double max_range = 60.0) const;

    /** Add a pillar obstacle. */
    void addObstacle(const Obstacle &o) { obstacles_.push_back(o); }

    const std::vector<Obstacle> &obstacles() const
    { return obstacles_; }

  private:
    std::vector<Obstacle> obstacles_;
};

/** Straight 50 m corridor, 3.2 m wide (walls at y = +-1.6 m). */
class TunnelWorld : public World
{
  public:
    std::string name() const override { return "tunnel"; }
    double length() const override { return 50.0; }
    double centerY(double) const override { return 0.0; }
    double halfWidth(double) const override { return 1.6; }
    double centerSlope(double) const override { return 0.0; }
    WallBounds wallBounds() const override { return {0.0, 0.0}; }
};

/**
 * S-shaped 80 m corridor: centerline swings one full S (half sine
 * period each way), wider than the tunnel so there is room for error
 * but constant correction is required.
 */
class SShapeWorld : public World
{
  public:
    std::string name() const override { return "s-shape"; }
    double length() const override { return 80.0; }

    double
    centerY(double x) const override
    {
        return amplitude_ * std::sin(2.0 * kPi * x / length());
    }

    double halfWidth(double) const override { return 2.0; }

    double
    centerSlope(double x) const override
    {
        return amplitude_ * (2.0 * kPi / length()) *
               std::cos(2.0 * kPi * x / length());
    }

    /** |centerY'| <= A k = 0.628 and |centerY''| <= A k^2 = 0.049
     *  for k = 2 pi / length, each with 1e-3 of headroom (std::sin's
     *  rounding is far below raycast's 1e-9 m slack); halfWidth 2 >
     *  0.1 * (1 + 0.629). */
    WallBounds
    wallBounds() const override
    {
        const double k = 2.0 * kPi / length();
        return {amplitude_ * k + 1e-3, amplitude_ * k * k + 1e-3};
    }

  private:
    double amplitude_ = 8.0;
};

/**
 * Zigzag corridor: piecewise-linear centerline alternating heading by
 * +-zigzag angle every segment — sharper direction reversals than the
 * s-shape's smooth sine, stressing the controller's correction rate
 * (smoothed corners keep the slope continuous for the raycaster).
 */
class ZigzagWorld : public World
{
  public:
    std::string name() const override { return "zigzag"; }
    double length() const override { return 60.0; }
    double halfWidth(double) const override { return 2.2; }
    double centerY(double x) const override;
    double centerSlope(double x) const override;

    /**
     * centerY integrates the slope s with trapezoid steps of h = 0.25,
     * so inside a step its derivative is 0.5 * (s(t) + s(x)) +
     * 0.5 * s'(x) * (x - t): at most kSlope + 0.5 * max|s'| * h, where
     * max|s'| = 1.5 * 2 * kSlope / (2 * kRound) is the smoothstep
     * corner's peak rate: 0.383, declared with 1e-3 of headroom. The
     * derivative jumps at step boundaries, so the curvature stays
     * unknown.
     */
    WallBounds
    wallBounds() const override
    {
        constexpr double max_rate = 1.5 * kSlope / kRound;
        return {kSlope + 0.5 * max_rate * kStep + 1e-3,
                WallBounds::kUnknown};
    }

  private:
    static constexpr double kSegment = 15.0; ///< segment length [m]
    static constexpr double kSlope = 0.35;   ///< tan of zig angle
    static constexpr double kRound = 2.0;    ///< corner rounding [m]
    static constexpr double kStep = 0.25;    ///< centerY trapezoid step [m]
};

/** Construct a world by map name; fatal on unknown names. */
std::unique_ptr<World> makeWorld(const std::string &name);

/**
 * Process-wide shared immutable world geometry, built once per map name
 * and handed out read-only to every mission (thread-safe; used by
 * parallel mission batches). Missions that place obstacles get a
 * private mutable copy from makeWorld() instead.
 */
std::shared_ptr<const World> sharedWorld(const std::string &name);

} // namespace rose::env

#endif // ROSE_ENV_WORLD_HH
