#include "world.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/logging.hh"
#include "util/memo.hh"

namespace rose::env {

double
World::centerSlope(double x) const
{
    const double h = 1e-4;
    return (centerY(x + h) - centerY(x - h)) / (2.0 * h);
}

double
World::tangentAngle(double x) const
{
    return std::atan2(centerSlope(x), 1.0);
}

double
World::lateralOffset(const Vec3 &pos) const
{
    return pos.y - centerY(pos.x);
}

bool
World::collides(const Vec3 &pos, double radius) const
{
    if (pos.z < 0.0)
        return true; // below the floor
    if (pos.x < -2.0)
        return true; // flew backwards out of the start area
    for (const Obstacle &o : obstacles_) {
        double dx = pos.x - o.x, dy = pos.y - o.y;
        if (dx * dx + dy * dy <= (o.radius + radius) * (o.radius + radius))
            return true;
    }
    double off = lateralOffset(pos);
    return std::abs(off) + radius >= halfWidth(pos.x);
}

namespace {

/** Nearest ray-circle intersection distance, or a negative value. */
double
rayCircle(double ox, double oy, double dx, double dy,
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

} // namespace

RayHit
World::raycast(const Vec3 &origin, double azimuth, double max_range) const
{
    // Fixed-step march with a bisection refinement of the first step
    // that ends outside. The wall test is margin(t) <= 0, which is
    // exactly |y - centerY(x)| >= halfWidth(x); it is skipped wherever
    // wallBounds() proves its outcome, so the visited t values, every
    // test's outcome and the returned hit are those of testing all of
    // them (DESIGN.md section 5h).
    const double coarse = 0.10;
    // Slack for rounding in the computed geometry and chord [m].
    const double eps = 1e-9;
    double dx = std::cos(azimuth);
    double dy = std::sin(azimuth);

    // Nearest pillar strike bounds the wall search.
    double pillar_t = max_range + 1.0;
    for (const Obstacle &o : obstacles_) {
        double t = rayCircle(origin.x, origin.y, dx, dy, o);
        if (t >= 0.0 && t < pillar_t)
            pillar_t = t;
    }

    auto margin = [&](double t) {
        double x = origin.x + dx * t;
        double y = origin.y + dy * t;
        return halfWidth(x) - std::abs(y - centerY(x));
    };

    RayHit hit;
    double m_eval = margin(0.0);
    if (m_eval <= 0.0) {
        // Ray starts inside a wall; report an immediate hit.
        hit.hit = true;
        hit.distance = 0.0;
        hit.point = origin;
        hit.side = lateralOffset(origin) > 0.0 ? 1 : -1;
        return hit;
    }

    auto pillarHit = [&]() {
        RayHit h;
        h.hit = true;
        h.distance = pillar_t;
        h.point = Vec3{origin.x + dx * pillar_t,
                       origin.y + dy * pillar_t, origin.z};
        h.side = lateralOffset(h.point) > 0.0 ? 1 : -1;
        return h;
    };

    // Along this ray |d margin/dt| <= |dy| + slope * |dx| and
    // |d2 margin/dt2| <= curvature * dx^2 (away from the centerline).
    const WallBounds bounds = wallBounds();
    const double lip = std::isfinite(bounds.slope)
                           ? std::abs(dy) + bounds.slope * std::abs(dx)
                           : WallBounds::kUnknown;
    const double kappa = std::isfinite(bounds.curvature)
                             ? bounds.curvature * dx * dx
                             : WallBounds::kUnknown;

    double t_eval = 0.0; // last evaluated march point, margin m_eval
    double t_prev = 0.0;
    for (double t = coarse; t <= max_range; t += coarse) {
        if (t > pillar_t && pillar_t <= max_range)
            return pillarHit();
        // Provably inside: the margin cannot have reached zero since
        // the last evaluated point.
        if (m_eval - lip * (t - t_eval) > eps) {
            t_prev = t;
            continue;
        }
        double m = margin(t);
        if (m > 0.0) {
            t_eval = t_prev = t;
            m_eval = m;
            continue;
        }
        // Bisect [t_prev, t] to localize the crossing. [a, b] is the
        // tightest bracket with evaluated margins; the step holds no
        // centerline kink (WallBounds::curvature), so the margin stays
        // within 0.5 * kappa * (mid - a) * (b - mid) of their chord,
        // and a chord beyond that (plus eps) settles the midpoint.
        double a = t_prev, m_a = t_eval == t_prev ? m_eval : margin(a);
        double b = t, m_b = m;
        double lo = t_prev, hi = t;
        for (int i = 0; i < 20; ++i) {
            double mid = 0.5 * (lo + hi);
            double chord = m_a + (m_b - m_a) * ((mid - a) / (b - a));
            double slack = 0.5 * kappa * (mid - a) * (b - mid) + eps;
            bool outside;
            if (chord > slack) {
                outside = false;
            } else if (chord < -slack) {
                outside = true;
            } else {
                double m_mid = margin(mid);
                outside = m_mid <= 0.0;
                if (outside) {
                    b = mid;
                    m_b = m_mid;
                } else {
                    a = mid;
                    m_a = m_mid;
                }
            }
            if (outside)
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
            (hit.point.y - centerY(hit.point.x)) > 0.0 ? 1 : -1;
        return hit;
    }
    if (pillar_t <= max_range)
        return pillarHit();
    hit.hit = false;
    hit.distance = max_range;
    hit.point = Vec3{origin.x + dx * max_range, origin.y + dy * max_range,
                     origin.z};
    return hit;
}

namespace {

/** Smoothstep blend used to round zigzag corners. */
double
smoothstep(double e0, double e1, double x)
{
    double t = clampd((x - e0) / (e1 - e0), 0.0, 1.0);
    return t * t * (3.0 - 2.0 * t);
}

} // namespace

double
ZigzagWorld::centerSlope(double x) const
{
    // Segment k has slope +kSlope for even k, -kSlope for odd k.
    // Corners blend symmetrically over [corner - kRound,
    // corner + kRound]; at most one blend is active at a time since
    // kRound < kSegment / 2.
    int k = int(std::floor(x / kSegment));
    double sign = (k % 2 == 0) ? 1.0 : -1.0;
    double here = sign * kSlope;
    double prev = k == 0 ? 0.0 : -here;
    double next = -here;
    double corner_prev = double(k) * kSegment;
    double corner_next = double(k + 1) * kSegment;

    if (x < corner_prev + kRound) {
        return lerp(prev, here,
                    smoothstep(corner_prev - kRound,
                               corner_prev + kRound, x));
    }
    if (x > corner_next - kRound) {
        return lerp(here, next,
                    smoothstep(corner_next - kRound,
                               corner_next + kRound, x));
    }
    return here;
}

ZigzagWorld::ZigzagWorld()
{
    // The same steps, in the same order, as centerY's loop below.
    const double h = kStep;
    double y = 0.0;
    double t = 0.0;
    prefixY_.push_back(y);
    while (t + h <= kPrefixLength) {
        y += 0.5 * (centerSlope(t) + centerSlope(t + h)) * h;
        t += h;
        prefixY_.push_back(y);
    }
}

double
ZigzagWorld::centerY(double x) const
{
    // Integrate the slope with trapezoid steps from x = 0, resuming
    // from the last precomputed step at or before x. Every t is a
    // multiple of the power-of-two step h, so t = k * h exactly, t + h
    // is exact, and k = floor(x / h) is the number of whole steps the
    // loop from 0 would take.
    const double h = kStep;
    size_t k = 0;
    if (x >= h)
        k = size_t(std::min(std::floor(x / h),
                            double(prefixY_.size() - 1)));
    double y = prefixY_[k];
    double t = double(k) * h;
    while (t + h <= x) {
        y += 0.5 * (centerSlope(t) + centerSlope(t + h)) * h;
        t += h;
    }
    if (x > t)
        y += 0.5 * (centerSlope(t) + centerSlope(x)) * (x - t);
    return y;
}

std::unique_ptr<World>
makeWorld(const std::string &name)
{
    if (name == "tunnel")
        return std::make_unique<TunnelWorld>();
    if (name == "s-shape" || name == "sshape")
        return std::make_unique<SShapeWorld>();
    if (name == "zigzag")
        return std::make_unique<ZigzagWorld>();
    // Throw instead of aborting so one bad world name in a batch spec
    // fails its mission slot, not the whole process.
    throw std::invalid_argument("unknown world: " + name);
}

std::shared_ptr<const World>
sharedWorld(const std::string &name)
{
    static MemoCache<std::string, World> cache;
    return cache.getOrBuild(
        name, [&name]() -> std::shared_ptr<World> {
            return makeWorld(name);
        });
}

} // namespace rose::env
