/**
 * @file
 * Unit tests for src/util: geometry, RNG, CSV, decimal formatting,
 * statistics.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/csv.hh"
#include "util/decimal.hh"
#include "util/geometry.hh"
#include "util/rng.hh"
#include "util/serde.hh"
#include "util/stats.hh"
#include "util/units.hh"

using namespace rose;

// ----------------------------------------------------------------- Vec3

TEST(Vec3, Arithmetic)
{
    Vec3 a{1, 2, 3}, b{4, 5, 6};
    Vec3 s = a + b;
    EXPECT_DOUBLE_EQ(s.x, 5);
    EXPECT_DOUBLE_EQ(s.y, 7);
    EXPECT_DOUBLE_EQ(s.z, 9);
    Vec3 d = b - a;
    EXPECT_DOUBLE_EQ(d.x, 3);
    Vec3 m = a * 2.0;
    EXPECT_DOUBLE_EQ(m.z, 6);
    EXPECT_DOUBLE_EQ((2.0 * a).z, 6);
}

TEST(Vec3, DotCrossNorm)
{
    Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
    EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
    Vec3 c = x.cross(y);
    EXPECT_DOUBLE_EQ(c.x, z.x);
    EXPECT_DOUBLE_EQ(c.y, z.y);
    EXPECT_DOUBLE_EQ(c.z, z.z);
    EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
    Vec3 n = Vec3(10, 0, 0).normalized();
    EXPECT_DOUBLE_EQ(n.x, 1.0);
    // Zero vector normalizes to zero, not NaN.
    Vec3 zn = Vec3{}.normalized();
    EXPECT_DOUBLE_EQ(zn.norm(), 0.0);
}

// ----------------------------------------------------------------- Quat

TEST(Quat, IdentityRotation)
{
    Quat q;
    Vec3 v{1, 2, 3};
    Vec3 r = q.rotate(v);
    EXPECT_NEAR(r.x, v.x, 1e-12);
    EXPECT_NEAR(r.y, v.y, 1e-12);
    EXPECT_NEAR(r.z, v.z, 1e-12);
}

TEST(Quat, AxisAngle90AboutZ)
{
    Quat q = Quat::fromAxisAngle({0, 0, 1}, kPi / 2);
    Vec3 r = q.rotate({1, 0, 0});
    EXPECT_NEAR(r.x, 0.0, 1e-12);
    EXPECT_NEAR(r.y, 1.0, 1e-12);
    EXPECT_NEAR(r.z, 0.0, 1e-12);
}

TEST(Quat, RotateInverseRoundTrip)
{
    Quat q = Quat::fromEuler(0.3, -0.2, 1.1);
    Vec3 v{0.5, -1.5, 2.0};
    Vec3 rt = q.rotateInverse(q.rotate(v));
    EXPECT_NEAR(rt.x, v.x, 1e-12);
    EXPECT_NEAR(rt.y, v.y, 1e-12);
    EXPECT_NEAR(rt.z, v.z, 1e-12);
}

TEST(Quat, EulerRoundTrip)
{
    double roll = 0.2, pitch = -0.4, yaw = 2.2;
    Quat q = Quat::fromEuler(roll, pitch, yaw);
    EXPECT_NEAR(q.roll(), roll, 1e-10);
    EXPECT_NEAR(q.pitch(), pitch, 1e-10);
    EXPECT_NEAR(q.yaw(), yaw, 1e-10);
}

TEST(Quat, PitchTiltsThrustForward)
{
    // Positive pitch about +y must tilt body-z thrust toward +x; the
    // flight controller's sign conventions depend on this.
    Quat q = Quat::fromAxisAngle({0, 1, 0}, 0.2);
    Vec3 t = q.rotate({0, 0, 1});
    EXPECT_GT(t.x, 0.0);
    EXPECT_NEAR(t.y, 0.0, 1e-12);
}

TEST(Quat, RollTiltsThrustRight)
{
    // Positive roll about +x tilts thrust toward -y.
    Quat q = Quat::fromAxisAngle({1, 0, 0}, 0.2);
    Vec3 t = q.rotate({0, 0, 1});
    EXPECT_LT(t.y, 0.0);
}

TEST(Quat, NormalizeDegenerate)
{
    Quat q{0, 0, 0, 0};
    q.normalize();
    EXPECT_DOUBLE_EQ(q.w, 1.0);
}

TEST(Quat, ComposedRotationMatchesSequential)
{
    Quat a = Quat::fromAxisAngle({0, 0, 1}, 0.7);
    Quat b = Quat::fromAxisAngle({1, 0, 0}, -0.4);
    Vec3 v{1, 2, 3};
    Vec3 seq = a.rotate(b.rotate(v));
    Vec3 comp = (a * b).rotate(v);
    EXPECT_NEAR(seq.x, comp.x, 1e-12);
    EXPECT_NEAR(seq.y, comp.y, 1e-12);
    EXPECT_NEAR(seq.z, comp.z, 1e-12);
}

// ----------------------------------------------------------------- Mat3

TEST(Mat3, DiagonalApplyAndInverse)
{
    Mat3 m = Mat3::diagonal(2, 4, 8);
    Vec3 v = m * Vec3{1, 1, 1};
    EXPECT_DOUBLE_EQ(v.x, 2);
    EXPECT_DOUBLE_EQ(v.y, 4);
    EXPECT_DOUBLE_EQ(v.z, 8);
    Mat3 inv = m.diagonalInverse();
    Vec3 r = inv * v;
    EXPECT_DOUBLE_EQ(r.x, 1);
    EXPECT_DOUBLE_EQ(r.y, 1);
    EXPECT_DOUBLE_EQ(r.z, 1);
}

TEST(Mat3, MatrixProduct)
{
    Mat3 a = Mat3::diagonal(1, 2, 3);
    Mat3 b = Mat3::diagonal(4, 5, 6);
    Mat3 c = a * b;
    EXPECT_DOUBLE_EQ(c.m[0][0], 4);
    EXPECT_DOUBLE_EQ(c.m[1][1], 10);
    EXPECT_DOUBLE_EQ(c.m[2][2], 18);
}

// ---------------------------------------------------------------- angles

TEST(Angles, WrapAngle)
{
    EXPECT_NEAR(wrapAngle(3 * kPi), kPi, 1e-12);
    EXPECT_NEAR(wrapAngle(-3 * kPi), kPi, 1e-12);
    EXPECT_NEAR(wrapAngle(0.5), 0.5, 1e-12);
    EXPECT_NEAR(wrapAngle(kPi + 0.1), -kPi + 0.1, 1e-12);
}

TEST(Angles, DegRadRoundTrip)
{
    EXPECT_NEAR(rad2deg(deg2rad(123.0)), 123.0, 1e-12);
    EXPECT_NEAR(deg2rad(180.0), kPi, 1e-12);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    ScalarStat s;
    for (int i = 0; i < 100000; ++i)
        s.sample(r.gaussian(2.0, 3.0));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitIndependence)
{
    Rng parent(21);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (parent.next() == child.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntBounds)
{
    Rng r(23);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.uniformInt(5);
        EXPECT_LT(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

// ------------------------------------------------------------------- CSV

TEST(Csv, HeaderAndRows)
{
    std::ostringstream os;
    CsvWriter w(os, {"a", "b"});
    w.row(1, 2.5);
    w.row("x", "y");
    EXPECT_EQ(os.str(), "a,b\n1,2.5\nx,y\n");
    EXPECT_EQ(w.rowsWritten(), 2u);
    EXPECT_EQ(w.columns(), 2u);
}

TEST(Csv, QuotesSpecialCells)
{
    std::ostringstream os;
    CsvWriter w(os, {"a"});
    w.row("he,llo");
    EXPECT_EQ(os.str(), "a\n\"he,llo\"\n");
}

TEST(CsvDeathTest, WrongArity)
{
    std::ostringstream os;
    CsvWriter w(os, {"a", "b"});
    EXPECT_DEATH(w.row(1), "cells");
}

TEST(Csv, NumericCellsPrintAsOstream)
{
    // Arithmetic cells skip the stream but keep operator<<'s text.
    const double d = -0.000123456789;
    const float f = 3.25e-7f;
    const long long i = -9000000000000LL;
    const unsigned u = 42;
    std::ostringstream want;
    want << "a,b,c,d,e,f\n"
         << d << ',' << f << ',' << i << ',' << u << ',' << true << ','
         << 'x' << '\n';
    std::ostringstream os;
    CsvWriter w(os, {"a", "b", "c", "d", "e", "f"});
    w.row(d, f, i, u, true, 'x');
    EXPECT_EQ(os.str(), want.str());
}

// --------------------------------------------------------------- Decimal

TEST(Decimal, G6MatchesPrintfAndStrtod)
{
    // formatG6's text must be printf("%.6g")'s and its value strtod's
    // of that text, bit for bit: seeded values over 1e-30…1e30 plus
    // the cases the certified path must hand to libc or get right.
    size_t checked = 0, mismatches = 0;
    auto check = [&](double v) {
        char want[64];
        int n = std::snprintf(want, sizeof want, "%.6g", v);
        const double wantValue = std::strtod(want, nullptr);
        char got[kG6Bytes], textOnly[kG6Bytes];
        double gotValue = -1.0;
        size_t len = formatG6(v, got, &gotValue);
        size_t lenTextOnly = formatG6(v, textOnly);
        const std::string_view w(want, size_t(n));
        ++checked;
        if (std::string_view(got, len) != w ||
            std::string_view(textOnly, lenTextOnly) != w ||
            std::memcmp(&gotValue, &wantValue, sizeof(double)) != 0) {
            if (++mismatches <= 10)
                ADD_FAILURE()
                    << "v=" << std::hexfloat << v << " printf=" << w
                    << " formatG6=" << std::string_view(got, len)
                    << " strtod=" << wantValue << " value=" << gotValue;
        }
    };

    Rng rng(0x6a6a6a);
    for (int i = 0; i < 1000000; ++i) {
        double v = std::pow(10.0, rng.uniform(-30.0, 30.0));
        check(rng.uniform() < 0.5 ? -v : v);
    }
    // Trajectory-like values: centi-steps and near-ties at 1e-7.
    for (int i = 0; i < 20000; ++i) {
        check(i * 0.01);
        check(1.0 + (2 * i + 1) * 5e-7);
    }

    std::vector<double> edges{0.0,
                              -0.0,
                              std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::denorm_min(),
                              1e-310,
                              -2.5e-315,
                              DBL_MIN,
                              -DBL_MIN,
                              DBL_MAX,
                              -DBL_MAX,
                              HUGE_VAL,
                              -HUGE_VAL,
                              std::nan(""),
                              -std::nan(""),
                              1234565.0,
                              1234575.0,
                              123456.5,
                              123457.5,
                              0.5,
                              5.0,
                              999999.5,
                              9999995.0,
                              9999985.0,
                              1e6,
                              1e5,
                              1e-5,
                              1e-4,
                              1e-17,
                              1e22,
                              1e23};
    // Powers of ten ±4 ulps.
    for (int e = -30; e <= 30; ++e) {
        char text[16];
        std::snprintf(text, sizeof text, "1e%d", e);
        double p = std::strtod(text, nullptr);
        double lo = p, hi = p;
        edges.push_back(p);
        for (int u = 0; u < 4; ++u) {
            lo = std::nextafter(lo, 0.0);
            hi = std::nextafter(hi, HUGE_VAL);
            edges.push_back(lo);
            edges.push_back(hi);
        }
    }
    // Exact 7th-digit ties (n + ½)·10^k, exact for k ≤ 13, and their
    // inexact counterparts (n + ½)/10^k; 999999.5·10^k rounds up into
    // the next decade.
    for (int k = 0; k <= 13; ++k) {
        const double scale = std::pow(10.0, k);
        for (int i = 0; i < 200; ++i) {
            double n = 100000.0 + double(rng.uniformInt(900000));
            edges.push_back((n + 0.5) * scale);
            edges.push_back((n + 0.5) / scale);
        }
        for (double t : {999999.5 * scale, 999999.5 / scale}) {
            edges.push_back(t);
            edges.push_back(std::nextafter(t, 0.0));
            edges.push_back(std::nextafter(t, HUGE_VAL));
        }
    }
    for (double v : edges) {
        check(v);
        check(-v);
    }
    EXPECT_GT(checked, 1000000u);
    EXPECT_EQ(mismatches, 0u);
}

// ----------------------------------------------------------------- Stats

TEST(Stats, ScalarBasics)
{
    ScalarStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Stats, EmptyIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, Reset)
{
    ScalarStat s;
    s.sample(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, HistogramBinning)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(0.0);
    h.sample(5.5);
    h.sample(9.999);
    h.sample(10.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.binLow(5), 5.0);
}

// ----------------------------------------------------------------- Units

TEST(Units, ClockRatioDefaults)
{
    ClockRatio r;
    // 1 GHz / 60 Hz: ~16.7M cycles per frame (Figure 6's example).
    EXPECT_EQ(r.cyclesPerFrame(), 16'666'666ULL);
    EXPECT_NEAR(r.cyclesToSeconds(1'000'000'000ULL), 1.0, 1e-12);
    EXPECT_EQ(r.secondsToCycles(2.0), 2'000'000'000ULL);
    EXPECT_NEAR(r.frameSeconds(), 1.0 / 60.0, 1e-15);
}
