#include "classifier.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dnn/layers.hh"
#include "util/geometry.hh"
#include "util/logging.hh"

namespace rose::dnn {

int
HeadOutput::argmax() const
{
    return int(std::max_element(probs.begin(), probs.end()) -
               probs.begin());
}

namespace {

/** Sky shade of every template, as the renderer draws it. */
constexpr float kSkyShade = 0.85f;
/** Ground shade below the horizon of the open-corridor profile. */
constexpr float kOpenGroundShade = 0.15f;

/**
 * Expected column profile for a wall at perpendicular distance d_perp
 * seen through a column at camera-relative azimuth alpha, mirroring
 * the renderer's shading model (learned by the trained network).
 * Writes @p height values to @p out, taking floor rows from
 * @p floor_row, and returns the profile's band model. The per-row
 * ladder (r < top: sky, else r > bot: floor, else wall) resolves to
 * three contiguous bands: for integer r, r < top iff r < ceil(top)
 * and r > bot iff r >= floor(bot) + 1, and the floor test is
 * subordinate to the sky test.
 */
PoseScratch::Band
expectedColumn(double d_perp, double alpha, int height, double focal,
               const EstimatorConfig &cfg, const float *floor_row,
               float *out)
{
    double mid = height / 2.0 - 0.5;
    double d_shade = d_perp / std::max(0.2, std::cos(alpha));
    double top = mid - focal * (cfg.wallHeight - cfg.camAltitude) / d_perp;
    double bot = mid + focal * cfg.camAltitude / d_perp;
    float wall = float(0.25 + 0.6 / (1.0 + 0.12 * d_shade));

    // Edges clamped in double before the int conversion; a NaN edge
    // matches no row, as in the ladder.
    double sky_end = std::ceil(top);
    double floor_begin = bot < 0.0 ? 0.0 : std::floor(bot) + 1.0;
    PoseScratch::Band band;
    band.skyEnd = sky_end > 0.0 ? (sky_end < height ? int(sky_end) : height)
                                : 0;
    band.floorBegin =
        std::max(band.skyEnd,
                 floor_begin < height ? int(floor_begin) : height);
    band.wall = wall;
    for (int r = 0; r < band.skyEnd; ++r)
        out[size_t(r)] = kSkyShade;
    for (int r = band.skyEnd; r < band.floorBegin; ++r)
        out[size_t(r)] = wall;
    for (int r = band.floorBegin; r < height; ++r)
        out[size_t(r)] = floor_row[size_t(r)];
    return band;
}

/**
 * SSD against a pre-widened contiguous column (see PoseScratch::
 * colBuf; float->double conversion is exact), abandoned as soon as the
 * partial sum reaches @p bound. The terms are non-negative and IEEE
 * addition is monotone, so a partial sum >= bound means the full sum
 * is >= bound too: a caller that keeps only sums < bound makes exactly
 * the choices, ties included, that the full sums would give it.
 */
double
ssdBelow(const float *profile, int height, const double *col,
         double bound)
{
    double sum = 0.0;
    for (int r = 0; r < height; ++r) {
        double d = double(profile[size_t(r)]) - col[size_t(r)];
        sum += d * d;
        if (sum >= bound)
            break;
    }
    return sum;
}

/**
 * (Re)build the cached geometry in @p s for the given key: per-column
 * azimuths, candidate distances, the whole template bank and its band
 * models. The templates depend only on geometry, so fitting a frame
 * reduces to SSD sweeps over precomputed profiles.
 */
void
rebuildScratch(PoseScratch &s, int width, int height,
               const EstimatorConfig &cfg, double focal)
{
    s.width = width;
    s.height = height;
    s.cfg = cfg;

    s.alpha.resize(size_t(width));
    for (int c = 0; c < width; ++c) {
        double u = width / 2.0 - 0.5 - c;
        s.alpha[size_t(c)] = std::atan2(u, focal);
    }

    // Candidate perpendicular distances, log-spaced.
    s.candidates.clear();
    for (double d = 0.6; d < cfg.maxDepth; d *= 1.22)
        s.candidates.push_back(d);

    // The floor shade depends only on the row.
    double mid = height / 2.0 - 0.5;
    bool in_range = true;
    s.floorRow.resize(size_t(height));
    for (int r = 0; r < height; ++r) {
        double floor_d =
            focal * cfg.camAltitude / std::max(0.5, double(r) - mid);
        float f = float(0.10 + 0.25 / (1.0 + 0.2 * floor_d));
        s.floorRow[size_t(r)] = f;
        in_range = in_range && f >= 0.f && f <= 1.f;
    }

    const size_t ncand = s.candidates.size();
    s.profiles.resize(ncand * size_t(width) * height);
    s.bands.resize(size_t(width) * ncand);
    for (size_t ci = 0; ci < ncand; ++ci) {
        for (int c = 0; c < width; ++c) {
            float *dst = &s.profiles[(ci * size_t(width) + size_t(c)) *
                                     size_t(height)];
            PoseScratch::Band b =
                expectedColumn(s.candidates[ci], s.alpha[size_t(c)],
                               height, focal, cfg, s.floorRow.data(),
                               dst);
            in_range = in_range && b.wall >= 0.0 && b.wall <= 1.0;
            s.bands[size_t(c) * ncand + ci] = b;
        }
    }

    // Open-corridor profile (no wall within range): horizon split,
    // r < mid for integer r.
    s.openSkyEnd = std::clamp(int(std::ceil(mid)), 0, height);
    s.openProfile.resize(size_t(height));
    for (int r = 0; r < height; ++r)
        s.openProfile[size_t(r)] =
            r < s.openSkyEnd ? kSkyShade : kOpenGroundShade;
    s.bandsCertified = in_range;
}

/**
 * Band-sum estimate of sum over rows [a, b) of (v - x_r)^2 from the
 * column moments (cancellation-prone; bounded in DESIGN.md §5h).
 */
inline double
flatBandSsd(const PoseScratch::ColumnSums *cs, int a, int b, double v)
{
    return double(b - a) * v * v - 2.0 * v * (cs[b].x - cs[a].x) +
           (cs[b].x2 - cs[a].x2);
}

/**
 * Fit one column by row-ordered SSD over the candidates listed in
 * @p sweep (ascending; index ncand stands for the open profile).
 * Returns the first candidate with the least SSD below 1e30, or -1.
 */
int
sweepColumn(const PoseScratch &s, int c, const int *sweep, size_t n)
{
    const size_t ncand = s.candidates.size();
    double best = 1e30;
    int winner = -1;
    for (size_t i = 0; i < n; ++i) {
        size_t k = size_t(sweep[i]);
        const float *profile =
            k == ncand ? s.openProfile.data()
                       : &s.profiles[(k * size_t(s.width) + size_t(c)) *
                                     size_t(s.height)];
        double e = ssdBelow(profile, s.height, s.colBuf.data(), best);
        if (e < best) {
            best = e;
            winner = int(k);
        }
    }
    return winner;
}

/**
 * The certified band-sum fit of column @p c (pixels in s.colBuf, all
 * in [0, 1]): bound every candidate's SSD in O(1) from prefix sums,
 * then sweep only the candidates within 2E of the least bound. Picks
 * the same winner as sweeping every candidate (DESIGN.md §5h).
 */
int
fitColumn(PoseScratch &s, int c)
{
    const int H = s.height;
    const size_t ncand = s.candidates.size();
    const double sky = kSkyShade;
    const double *x = s.colBuf.data();
    PoseScratch::ColumnSums *cs = s.sums.data();

    cs[0] = {};
    for (int r = 0; r < H; ++r) {
        double d = sky - x[r];
        cs[r + 1].skySsd = cs[r].skySsd + d * d;
        cs[r + 1].x = cs[r].x + x[r];
        cs[r + 1].x2 = cs[r].x2 + x[r] * x[r];
    }
    cs[H].floorSsd = 0.0;
    for (int r = H - 1; r >= 0; --r) {
        double d = double(s.floorRow[size_t(r)]) - x[r];
        cs[r].floorSsd = cs[r + 1].floorSsd + d * d;
    }

    const PoseScratch::Band *bands = &s.bands[size_t(c) * ncand];
    double least = 1e300;
    for (size_t k = 0; k < ncand; ++k) {
        const PoseScratch::Band &b = bands[k];
        double t = cs[b.skyEnd].skySsd +
                   flatBandSsd(cs, b.skyEnd, b.floorBegin, b.wall) +
                   cs[b.floorBegin].floorSsd;
        s.bound[k] = t;
        least = std::min(least, t);
    }
    double t_open = cs[s.openSkyEnd].skySsd +
                    flatBandSsd(cs, s.openSkyEnd, H, kOpenGroundShade);
    s.bound[ncand] = t_open;
    least = std::min(least, t_open);

    // |bound - swept SSD| <= E for every candidate, so the swept
    // minimizers all lie within 2E of the least bound.
    const double h = H;
    const double err = 128.0 * (9.0 * h + 24.0) * h * 0x1p-53;
    size_t n = 0;
    for (size_t k = 0; k <= ncand; ++k)
        if (s.bound[k] <= least + 2.0 * err)
            s.sweep[n++] = int(k);
    if (n == 1)
        return s.sweep[0];
    return sweepColumn(s, c, s.sweep.data(), n);
}

} // namespace

PoseEstimate
estimatePose(const env::Image &img, const EstimatorConfig &cfg,
             PoseScratch &s)
{
    PoseEstimate est;
    if (img.width < 8 || img.height < 8)
        return est;

    double hfov = deg2rad(cfg.horizontalFovDeg);
    double focal = (img.width / 2.0) / std::tan(hfov / 2.0);

    if (s.width != img.width || s.height != img.height ||
        !(s.cfg == cfg)) {
        rebuildScratch(s, img.width, img.height, cfg, focal);
    }

    const size_t ncand = s.candidates.size();
    s.rayDist.resize(size_t(img.width));
    s.open.resize(size_t(img.width));
    s.colBuf.resize(size_t(img.height));
    s.sums.resize(size_t(img.height) + 1);
    s.bound.resize(ncand + 1);
    s.sweep.resize(ncand + 1);

    for (int c = 0; c < img.width; ++c) {
        double alpha = s.alpha[size_t(c)];

        // Gather the column once; every candidate sweep reads it
        // contiguously instead of striding through the image.
        bool in_range = true;
        for (int r = 0; r < img.height; ++r) {
            double x = double(img.at(r, c));
            s.colBuf[size_t(r)] = x;
            in_range = in_range && x >= 0.0 && x <= 1.0;
        }

        int winner;
        if (in_range && s.bandsCertified) {
            winner = fitColumn(s, c);
        } else {
            // Outside the bound's premises (NaN or out-of-range
            // pixels): sweep every candidate.
            for (size_t k = 0; k <= ncand; ++k)
                s.sweep[k] = int(k);
            winner = sweepColumn(s, c, s.sweep.data(), ncand + 1);
        }
        bool open = winner == int(ncand);
        double best_d = winner >= 0 && !open
                            ? s.candidates[size_t(winner)]
                            : cfg.maxDepth;
        s.open[size_t(c)] = open;
        // Convert the fitted perpendicular distance to ray distance.
        s.rayDist[size_t(c)] =
            open ? cfg.maxDepth
                 : best_d / std::max(0.2, std::cos(alpha));
    }

    // --- Heading: the deepest view direction points down the corridor.
    // Average the azimuths of the top-distance columns for subpixel
    // stability.
    double best_d = 0.0;
    for (int c = 0; c < img.width; ++c)
        best_d = std::max(best_d, s.rayDist[size_t(c)]);
    double az_sum = 0.0, az_w = 0.0;
    for (int c = 0; c < img.width; ++c) {
        if (s.rayDist[size_t(c)] >= 0.85 * best_d) {
            az_sum += s.alpha[size_t(c)];
            az_w += 1.0;
        }
    }
    if (az_w == 0.0)
        return est;
    double alpha_axis = az_sum / az_w;
    // Corridor axis is at world azimuth ~0, so heading = -alpha_axis.
    est.headingRad = -alpha_axis;

    // --- Offset: triangulate from wall hits on both sides of the
    // corridor axis. For a column at corridor-relative angle theta
    // hitting the left wall: offset = halfWidth - d*sin(theta); right
    // wall: offset = -halfWidth - d*sin(theta). Averaging both sides
    // cancels a wrong trained halfWidth on unfamiliar (wider) maps.
    double left_sum = 0.0, right_sum = 0.0;
    int left_n = 0, right_n = 0;
    for (int c = 0; c < img.width; ++c) {
        if (s.open[size_t(c)])
            continue;
        double theta =
            s.alpha[size_t(c)] - alpha_axis; // corridor-relative azimuth
        double a = std::abs(theta);
        if (a < deg2rad(18.0) || a > deg2rad(60.0))
            continue;
        double lateral = s.rayDist[size_t(c)] * std::sin(theta);
        if (theta > 0) {
            left_sum += cfg.trainedHalfWidth - lateral;
            ++left_n;
        } else {
            right_sum += -cfg.trainedHalfWidth - lateral;
            ++right_n;
        }
    }
    if (left_n > 0 && right_n > 0) {
        est.offsetM =
            0.5 * (left_sum / left_n + right_sum / right_n);
    } else if (left_n > 0) {
        est.offsetM = left_sum / left_n;
    } else if (right_n > 0) {
        est.offsetM = right_sum / right_n;
    } else {
        est.offsetM = 0.0;
    }
    est.valid = true;
    return est;
}

PoseEstimate
estimatePose(const env::Image &img, const EstimatorConfig &cfg)
{
    PoseScratch scratch;
    return estimatePose(img, cfg, scratch);
}

// ------------------------------------------------------------ Classifier

Classifier::Classifier(const Model &model, Rng rng,
                       const EstimatorConfig &cfg)
    : model_(model), rng_(rng), cfg_(cfg)
{
}

HeadOutput
Classifier::scoreHead(double value, double class_threshold,
                      double temperature)
{
    // Class prototypes at -2t, 0, +2t; logits fall off linearly with
    // distance, sharpened by the model's confidence temperature.
    float logits[3];
    const double centers[3] = {2.0 * class_threshold, 0.0,
                               -2.0 * class_threshold};
    for (int i = 0; i < 3; ++i) {
        logits[i] = float(-std::abs(value - centers[i]) /
                          (class_threshold * temperature));
    }
    // Inline softmax on the stack, the exact arithmetic of
    // dnn::softmax (float exp terms, double sum, float(v / sum)) so
    // outputs stay bit-identical to the allocating version.
    float mx = std::max(logits[0], std::max(logits[1], logits[2]));
    HeadOutput out;
    double sum = 0.0;
    for (int i = 0; i < 3; ++i) {
        out.probs[size_t(i)] = std::exp(logits[i] - mx);
        sum += out.probs[size_t(i)];
    }
    for (int i = 0; i < 3; ++i)
        out.probs[size_t(i)] = float(out.probs[size_t(i)] / sum);
    return out;
}

ClassifierOutput
Classifier::infer(const env::Image &img)
{
    ClassifierOutput out;
    PoseEstimate pose = estimatePose(img, cfg_, scratch_);
    if (!pose.valid) {
        // Degenerate view: maximum-entropy outputs.
        out.angular.probs = {1.f / 3, 1.f / 3, 1.f / 3};
        out.lateral.probs = {1.f / 3, 1.f / 3, 1.f / 3};
        return out;
    }
    out.rawHeadingRad = pose.headingRad;
    out.rawOffsetM = pose.offsetM;

    const ClassifierCalib &cal = model_.calib;
    double heading =
        pose.headingRad + rng_.gaussian(0.0, cal.sigmaHeading);
    double offset = pose.offsetM + rng_.gaussian(0.0, cal.sigmaOffset);

    out.angular =
        scoreHead(heading, cfg_.headingClassRad, cal.temperature);
    out.lateral = scoreHead(offset, cfg_.offsetClassM, cal.temperature);
    out.valid = true;
    return out;
}

} // namespace rose::dnn
