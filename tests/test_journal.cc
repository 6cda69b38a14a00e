/**
 * @file
 * Durability-edge tests for the write-ahead job journal
 * (serve/journal.hh) plus the shared backoff helper (util/backoff.hh).
 *
 * The journal's contract under fire is what crash recovery stands on:
 * a torn tail (crash mid-append) or a corrupt record must truncate
 * recovery at the last intact record — never abort — while a header
 * from a different format or config fingerprint must be refused
 * outright. These tests drive byte-level damage through replayBytes()
 * and full reopen cycles through JobJournal itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "serve/journal.hh"
#include "util/backoff.hh"
#include "util/hash.hh"
#include "util/rng.hh"

using namespace rose;
using namespace rose::serve;

namespace {

core::MissionSpec
testSpec(uint64_t seed)
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.socName = "A";
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = 20.0;
    spec.seed = seed;
    spec.maxSimSeconds = 1.5;
    return spec;
}

/** A terminal result carrying @p samples binary records. */
RetainedResult
testResult(size_t samples)
{
    RetainedResult r;
    r.result.completed = true;
    r.result.missionTime = 1.5;
    r.result.collisions = 2;
    r.result.trajectorySamples = uint32_t(samples);
    r.result.trajectoryHash = 0x5eed + samples;
    r.result.queueWaitMs = 3.5;
    r.result.serviceMs = 42.0;
    std::vector<core::TrajectorySample> t(samples);
    for (size_t i = 0; i < samples; ++i)
        t[i].time = 0.01 * double(i);
    r.records = encodeTrajectoryBinary(t);
    r.recordsHash = fnv1a(r.records.data(), r.records.size());
    return r;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<uint8_t> bytes;
    if (!f)
        return bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

/** Fresh scratch dir per test: wipe any leftover journal state. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = "journal_test_" + name;
    std::remove((dir + "/journal.wal").c_str());
    std::remove((dir + "/journal.wal.tmp").c_str());
    for (uint64_t id = 1; id <= 16; ++id)
        std::remove(
            (dir + "/job-" + std::to_string(id) + ".ckpt").c_str());
    return dir;
}

/** A journal with two submits, one Done terminal, one release. */
std::vector<uint8_t>
buildSampleJournal(const std::string &name, uint64_t fp,
                   std::string *wal_out = nullptr)
{
    std::string dir = scratchDir(name);
    JobJournal j(dir, fp);
    j.appendSubmit(1, "key-1", testSpec(1));
    j.appendSubmit(2, "key-2", testSpec(2));
    j.appendTerminal(1, JobState::Done,
                     testResult(2));
    j.appendSubmit(3, "", testSpec(3));
    j.appendReleased(3);
    if (wal_out)
        *wal_out = j.walPath();
    return readFile(j.walPath());
}

} // namespace

// ---------------------------------------------------------- Backoff

TEST(Backoff, GrowsGeometricallyUpToCap)
{
    // Zero jitter makes the schedule deterministic.
    Backoff b({50, 400, 2.0, 0.0});
    EXPECT_EQ(b.nextDelayMs(), 50);
    EXPECT_EQ(b.nextDelayMs(), 100);
    EXPECT_EQ(b.nextDelayMs(), 200);
    EXPECT_EQ(b.nextDelayMs(), 400);
    EXPECT_EQ(b.nextDelayMs(), 400); // capped
    EXPECT_EQ(b.attempts(), 5);
    b.reset();
    EXPECT_EQ(b.attempts(), 0);
    EXPECT_EQ(b.nextDelayMs(), 50);
}

TEST(Backoff, JitterStaysWithinEnvelopeAndVaries)
{
    Backoff b({100, 1000, 2.0, 0.5}, 1234);
    std::set<int> seen;
    int expected_full = 100;
    for (int i = 0; i < 6; ++i) {
        int d = b.nextDelayMs();
        EXPECT_GE(d, std::max(1, expected_full / 2));
        EXPECT_LE(d, expected_full);
        seen.insert(d);
        expected_full = std::min(1000, expected_full * 2);
    }
    // Jittered delays should not all collapse to one value.
    EXPECT_GT(seen.size(), 1u);
}

TEST(Backoff, ClampsDegenerateConfig)
{
    Backoff b({-5, -10, 0.5, 7.0});
    for (int i = 0; i < 4; ++i) {
        int d = b.nextDelayMs();
        EXPECT_GE(d, 1);
        EXPECT_LE(d, 1);
    }
}

// ---------------------------------------------------------- Journal

TEST(Journal, FreshDirectoryReplaysEmpty)
{
    std::string dir = scratchDir("fresh");
    JobJournal j(dir, journalFingerprint(true));
    JournalReplay rep = j.takeReplay();
    EXPECT_TRUE(rep.jobs.empty());
    EXPECT_EQ(rep.recordsReplayed, 0u);
    EXPECT_FALSE(rep.recoveredFromCorruption);
}

TEST(Journal, RoundTripAcrossReopen)
{
    uint64_t fp = journalFingerprint(true);
    std::string dir = scratchDir("roundtrip");
    {
        JobJournal j(dir, fp);
        j.appendSubmit(1, "key-1", testSpec(1));
        j.appendSubmit(2, "key-2", testSpec(2));
        j.appendTerminal(1, JobState::Done,
                         testResult(7));
        j.appendSubmit(3, "", testSpec(3));
        j.appendReleased(3);
    }
    JobJournal j2(dir, fp);
    JournalReplay rep = j2.takeReplay();
    ASSERT_EQ(rep.jobs.size(), 2u);
    EXPECT_EQ(rep.maxJobId, 3u);

    const RecoveredJob &done = rep.jobs[0];
    EXPECT_EQ(done.jobId, 1u);
    EXPECT_EQ(done.idempotencyKey, "key-1");
    EXPECT_TRUE(done.terminal);
    EXPECT_EQ(done.state, JobState::Done);
    const RetainedResult want = testResult(7);
    EXPECT_EQ(done.result.records, want.records);
    EXPECT_EQ(done.result.recordsHash, want.recordsHash);
    EXPECT_EQ(done.result.result.trajectoryHash, want.result.trajectoryHash);
    EXPECT_EQ(done.result.result.trajectorySamples, 7u);
    EXPECT_DOUBLE_EQ(done.result.result.serviceMs, 42.0);

    const RecoveredJob &queued = rep.jobs[1];
    EXPECT_EQ(queued.jobId, 2u);
    EXPECT_FALSE(queued.terminal);
    EXPECT_EQ(queued.spec.seed, 2u);
    EXPECT_EQ(queued.spec.world, "tunnel");
}

TEST(Journal, CompactionDropsReleasedJobs)
{
    uint64_t fp = journalFingerprint(true);
    std::string dir = scratchDir("compact");
    uint64_t before;
    {
        JobJournal j(dir, fp);
        j.appendSubmit(1, "k", testSpec(1));
        j.appendTerminal(1, JobState::Done, testResult(1));
        j.appendReleased(1);
        before = j.bytesOnDisk();
    }
    // Reopen compacts: the released job's records disappear.
    JobJournal j2(dir, fp);
    EXPECT_TRUE(j2.takeReplay().jobs.empty());
    EXPECT_LT(j2.bytesOnDisk(), before);
}

TEST(Journal, TruncatedTailRecoversPrefix)
{
    uint64_t fp = journalFingerprint(true);
    std::vector<uint8_t> bytes = buildSampleJournal("torntail", fp);
    // Tear the last record: drop the trailing 5 bytes (inside the
    // record hash), exactly what a crash mid-append leaves.
    std::vector<uint8_t> torn(bytes.begin(), bytes.end() - 5);
    size_t keep = 0;
    JournalReplay rep = JobJournal::replayBytes(torn, fp, keep);
    EXPECT_TRUE(rep.recoveredFromCorruption);
    EXPECT_LT(keep, torn.size());
    // Everything before the torn Released record survived: job 1
    // terminal, job 2 queued, job 3 still present (its release was
    // the torn record).
    ASSERT_EQ(rep.jobs.size(), 3u);
    EXPECT_TRUE(rep.jobs[0].terminal);
    EXPECT_FALSE(rep.jobs[1].terminal);
    EXPECT_EQ(rep.jobs[2].jobId, 3u);
}

TEST(Journal, TruncatedTailReopensCleanly)
{
    uint64_t fp = journalFingerprint(true);
    std::string wal;
    std::vector<uint8_t> bytes =
        buildSampleJournal("tornreopen", fp, &wal);
    bytes.resize(bytes.size() - 3);
    writeFile(wal, bytes);
    // The constructor must recover (truncate + compact), not abort.
    std::string dir = wal.substr(0, wal.rfind('/'));
    JobJournal j(dir, fp);
    JournalReplay rep = j.takeReplay();
    EXPECT_TRUE(rep.recoveredFromCorruption);
    EXPECT_EQ(rep.jobs.size(), 3u);
    // And the compacted journal replays identically next time.
    JobJournal j2(dir, fp);
    JournalReplay rep2 = j2.takeReplay();
    EXPECT_FALSE(rep2.recoveredFromCorruption);
    EXPECT_EQ(rep2.jobs.size(), 3u);
}

TEST(Journal, CorruptMidJournalRecordTruncatesFromThere)
{
    uint64_t fp = journalFingerprint(true);
    std::vector<uint8_t> bytes = buildSampleJournal("midflip", fp);

    // Flip one byte inside the second record's payload. The header
    // is 20 bytes; the first record starts right after it. Walk the
    // record framing to find the second record's payload start.
    size_t off = 20;
    auto recLen = [&](size_t at) {
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + at + 1, 4);
        return size_t(1 + 4 + len + 8);
    };
    size_t second = off + recLen(off);
    ASSERT_LT(second + 6, bytes.size());
    bytes[second + 6] ^= 0xff;

    size_t keep = 0;
    JournalReplay rep = JobJournal::replayBytes(bytes, fp, keep);
    EXPECT_TRUE(rep.recoveredFromCorruption);
    EXPECT_EQ(keep, second);
    // Only the first record (submit of job 1) survives; everything
    // after the damaged record is gone — never wrong, never fatal.
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_EQ(rep.jobs[0].jobId, 1u);
    EXPECT_FALSE(rep.jobs[0].terminal);
}

TEST(Journal, FingerprintMismatchIsRejected)
{
    uint64_t fp = journalFingerprint(true);
    std::string wal;
    buildSampleJournal("fpmismatch", fp, &wal);
    std::string dir = wal.substr(0, wal.rfind('/'));
    // A daemon running a different execution mode must refuse to
    // reinterpret this journal (supervise flips the fingerprint).
    EXPECT_THROW(JobJournal(dir, journalFingerprint(false)),
                 JournalError);
    // The right fingerprint still opens it (job 3 was released, so
    // two jobs survive).
    JobJournal ok(dir, fp);
    EXPECT_EQ(ok.takeReplay().jobs.size(), 2u);
}

TEST(Journal, GarbageFileIsRejected)
{
    std::string dir = scratchDir("garbage");
    ::mkdir(dir.c_str(), 0755);
    std::vector<uint8_t> junk(64, 0x5a);
    writeFile(dir + "/journal.wal", junk);
    EXPECT_THROW(JobJournal(dir, journalFingerprint(true)),
                 JournalError);
}

TEST(Journal, TornHeaderRecoversAsEmpty)
{
    uint64_t fp = journalFingerprint(true);
    std::string wal;
    buildSampleJournal("tornheader", fp, &wal);
    std::string dir = wal.substr(0, wal.rfind('/'));
    // Keep only the first 6 bytes of the magic: a crash during the
    // very first header write. Recoverable (nothing was journaled
    // yet), not a format mismatch.
    std::vector<uint8_t> bytes = readFile(wal);
    bytes.resize(6);
    writeFile(wal, bytes);
    JobJournal j(dir, fp);
    JournalReplay rep = j.takeReplay();
    EXPECT_TRUE(rep.jobs.empty());
    EXPECT_TRUE(rep.recoveredFromCorruption);
}

TEST(Journal, CancelledTerminalReplaysAsTombstone)
{
    uint64_t fp = journalFingerprint(true);
    std::string dir = scratchDir("cancelled");
    {
        JobJournal j(dir, fp);
        j.appendSubmit(1, "k", testSpec(1));
        j.appendTerminal(1, JobState::Cancelled, RetainedResult{});
    }
    JobJournal j2(dir, fp);
    JournalReplay rep = j2.takeReplay();
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_TRUE(rep.jobs[0].terminal);
    EXPECT_EQ(rep.jobs[0].state, JobState::Cancelled);
}

TEST(Journal, CheckpointPathsLiveInTheJournalDir)
{
    std::string dir = scratchDir("ckptpath");
    JobJournal j(dir, journalFingerprint(true));
    EXPECT_EQ(j.checkpointPathFor(7), dir + "/job-7.ckpt");
    // removeCheckpoint of a nonexistent file is a harmless no-op.
    j.removeCheckpoint(7);
}

// ------------------------------------------------------------- fuzz

namespace {

constexpr size_t kHeaderBytes = 20;

/** Offsets of each record of a well-formed journal image. */
std::vector<size_t>
recordOffsets(const std::vector<uint8_t> &bytes)
{
    std::vector<size_t> at;
    for (size_t pos = kHeaderBytes; pos < bytes.size();) {
        at.push_back(pos);
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + pos + 1, 4);
        pos += 1 + 4 + len + 8;
    }
    return at;
}

/** Append a framed record whose hash matches its payload. */
void
appendRecord(std::vector<uint8_t> &out, uint8_t type,
             const std::vector<uint8_t> &payload)
{
    out.push_back(type);
    for (int i = 0; i < 4; ++i)
        out.push_back(uint8_t(payload.size() >> (8 * i)));
    out.insert(out.end(), payload.begin(), payload.end());
    uint64_t h = fnv1a(payload.data(), payload.size());
    for (int i = 0; i < 8; ++i)
        out.push_back(uint8_t(h >> (8 * i)));
}

/**
 * Replay damaged journal bytes. Only a damaged header may throw (a
 * JournalError); anything else recovers a prefix, and that prefix
 * replays again as a clean journal with the same records.
 */
void
expectCleanReplay(const std::vector<uint8_t> &bytes,
                  const std::vector<uint8_t> &valid, uint64_t fp)
{
    bool header_intact = std::equal(
        bytes.begin(),
        bytes.begin() + std::min(bytes.size(), kHeaderBytes),
        valid.begin());
    size_t keep = 0;
    JournalReplay rep;
    try {
        rep = JobJournal::replayBytes(bytes, fp, keep);
    } catch (const JournalError &) {
        EXPECT_FALSE(header_intact) << "intact header was rejected";
        return;
    }
    EXPECT_TRUE(header_intact) << "damaged header was accepted";
    ASSERT_LE(keep, bytes.size());
    EXPECT_EQ(rep.recoveredFromCorruption, keep < bytes.size());
    EXPECT_EQ(rep.truncatedBytes, bytes.size() - keep);

    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + keep);
    size_t keep2 = 0;
    JournalReplay again = JobJournal::replayBytes(prefix, fp, keep2);
    EXPECT_EQ(keep2, keep);
    EXPECT_FALSE(again.recoveredFromCorruption);
    EXPECT_EQ(again.recordsReplayed, rep.recordsReplayed);
    EXPECT_EQ(again.jobs.size(), rep.jobs.size());
}

} // namespace

TEST(Journal, ReplayFuzzEndsCleanly)
{
    // Seeded random bytes, truncations and bit flips of a valid
    // journal, plus hash-valid records with random or bit-flipped
    // payloads (those reach the record decoders behind the hash
    // check). Every input must end in a JournalError (damaged header)
    // or a torn-tail truncation, and reopening the journal file must
    // leave a clean, stable journal behind.
    uint64_t fp = journalFingerprint(true);
    const std::vector<uint8_t> valid = buildSampleJournal("fuzzsrc", fp);
    const std::vector<size_t> records = recordOffsets(valid);
    ASSERT_EQ(records.size(), 5u);
    const std::vector<uint8_t> header(valid.begin(),
                                      valid.begin() + kHeaderBytes);

    for (uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x2545f4914f6cdd1dULL);
        auto randomBytes = [&rng](size_t n) {
            std::vector<uint8_t> v(n);
            for (uint8_t &b : v)
                b = uint8_t(rng.uniformInt(256));
            return v;
        };

        // Random bytes, with or without a valid header, followed by
        // hash-valid records of random type and payload.
        std::vector<uint8_t> noise =
            seed % 2 ? header : std::vector<uint8_t>{};
        std::vector<uint8_t> junk = randomBytes(rng.uniformInt(64));
        noise.insert(noise.end(), junk.begin(), junk.end());
        expectCleanReplay(noise, valid, fp);
        std::vector<uint8_t> framed = header;
        for (uint64_t r = rng.uniformInt(4); r > 0; --r)
            appendRecord(framed, uint8_t(1 + rng.uniformInt(3)),
                         randomBytes(rng.uniformInt(200)));
        expectCleanReplay(framed, valid, fp);

        // Truncation anywhere, header included.
        std::vector<uint8_t> cut(
            valid.begin(),
            valid.begin() + rng.uniformInt(valid.size() + 1));
        expectCleanReplay(cut, valid, fp);

        // Raw bit flips: the record hash catches payload damage.
        std::vector<uint8_t> flipped = valid;
        for (uint64_t f = 1 + rng.uniformInt(4); f > 0; --f)
            flipped[rng.uniformInt(flipped.size())] ^=
                uint8_t(1u << rng.uniformInt(8));
        expectCleanReplay(flipped, valid, fp);

        // Bit flips inside one record's payload, hash recomputed.
        size_t ri = rng.uniformInt(records.size());
        size_t at = records[ri];
        uint32_t len = 0;
        std::memcpy(&len, valid.data() + at + 1, 4);
        std::vector<uint8_t> payload(valid.begin() + at + 5,
                                     valid.begin() + at + 5 + len);
        for (uint64_t f = 1 + rng.uniformInt(4); f > 0; --f)
            payload[rng.uniformInt(payload.size())] ^=
                uint8_t(1u << rng.uniformInt(8));
        std::vector<uint8_t> rehashed(valid.begin(), valid.begin() + at);
        appendRecord(rehashed, valid[at], payload);
        rehashed.insert(rehashed.end(), valid.begin() + at + 5 + len + 8,
                        valid.end());
        expectCleanReplay(rehashed, valid, fp);

        // Reopen through the file: compaction rewrites whatever was
        // recovered, and the result replays clean and unchanged.
        std::string dir = scratchDir("fuzzreopen");
        ::mkdir(dir.c_str(), 0755);
        const std::vector<uint8_t> &img = seed % 2 ? rehashed : framed;
        writeFile(dir + "/journal.wal", img);
        size_t jobs = 0;
        {
            JobJournal j(dir, fp);
            jobs = j.takeReplay().jobs.size();
        }
        JobJournal j2(dir, fp);
        JournalReplay rep2 = j2.takeReplay();
        EXPECT_FALSE(rep2.recoveredFromCorruption);
        EXPECT_EQ(rep2.jobs.size(), jobs);
    }
}
