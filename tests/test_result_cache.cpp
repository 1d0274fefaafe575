#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "serve/protocol.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

/// The content-addressed result cache's three contracts, tested directly:
///
/// * determinism — a hit returns the exact bytes a cold compute produced,
///   from either tier, for any worker count;
/// * sensitivity — the 128-bit key covers every input: changing any field
///   of a request, the platform spec, or the suite yields a distinct key;
/// * robustness — a missing, truncated, corrupted, version-skewed,
///   wrongly-typed, or permission-denied record NEVER changes results or
///   crashes; it degrades to recompute and is counted by reason.
///
/// Payloads are bytes (the cache holds rendered serve/advise payloads); the
/// generic tests store the raw bytes of a double array, NULs and all.
namespace opm {
namespace {

namespace fs = std::filesystem;
namespace protocol = serve::protocol;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    dir_ = fs::temp_directory_path() /
           ("opm-result-cache-test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    core::configure_result_cache(
        {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
    core::reset_result_cache_stats();
    core::set_sweep_workers(0);
  }

  void TearDown() override {
    core::set_sweep_workers(saved_workers_);
    core::configure_result_cache(saved_config_);
    fs::remove_all(dir_);
  }

  static util::Digest128 key_of(std::uint64_t n) {
    util::Hasher128 h;
    h.add(std::string_view("test.key"));
    h.add(n);
    return h.digest();
  }

  fs::path record_path(const util::Digest128& key) const {
    return dir_ / (key.hex() + ".opmrec");
  }

  /// Overwrites one byte of a record in place.
  static void clobber(const fs::path& path, std::streamoff offset, unsigned char value) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekp(offset);
    f.put(static_cast<char>(value));
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
  fs::path dir_;
};

/// The raw bytes of n doubles (scale * 1..n).
std::string payload(std::size_t n, double scale) {
  std::string bytes(n * sizeof(double), '\0');
  for (std::size_t i = 0; i < n; ++i) {
    const double v = scale * static_cast<double>(i + 1);
    std::memcpy(bytes.data() + i * sizeof(double), &v, sizeof(double));
  }
  return bytes;
}

protocol::Request parse_ok(const std::string& line) {
  protocol::Request req;
  protocol::Error err;
  EXPECT_TRUE(protocol::parse_request(line, &req, &err)) << err.message;
  return req;
}

// ---------------------------------------------------------------- roundtrip --

TEST_F(ResultCacheTest, RoundTripServesExactBytesFromBothTiers) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(1);
  const auto value = payload(300, 0.25);
  EXPECT_TRUE(cache.store(key, value));
  EXPECT_EQ(core::result_cache_stats().bytes_stored, 300 * sizeof(double));

  const auto mem = cache.find(key);
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(*mem, value);
  EXPECT_EQ(core::result_cache_stats().memory_hits, 1u);

  cache.clear_memory();
  const auto disk = cache.find(key);
  ASSERT_TRUE(disk.has_value());
  EXPECT_EQ(*disk, value);  // bit-identical after the disk round trip
  EXPECT_EQ(core::result_cache_stats().disk_hits, 1u);
  EXPECT_EQ(core::result_cache_stats().bytes_loaded, 2 * 300 * sizeof(double));

  // The disk hit promoted the record back into memory.
  EXPECT_TRUE(cache.find(key).has_value());

  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.memory_hits, 2u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST_F(ResultCacheTest, DisabledCacheNoOps) {
  core::configure_result_cache({.enabled = false});
  auto& cache = core::ResultCache::instance();
  EXPECT_FALSE(cache.store(key_of(2), payload(8, 1.0)));
  EXPECT_FALSE(cache.find(key_of(2)).has_value());
  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.misses, 0u);  // disabled ≠ miss
  EXPECT_EQ(stats.hits(), 0u);
  EXPECT_EQ(stats.stores, 0u);
}

TEST_F(ResultCacheTest, LruEvictionBoundsTheMemoryTier) {
  // 16 shards x cap 1: at most 16 resident entries. Disk off so evicted
  // entries are really gone.
  core::configure_result_cache(
      {.enabled = true, .disk = false, .dir = dir_.string(), .max_entries = 16});
  auto& cache = core::ResultCache::instance();
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t i = 0; i < kKeys; ++i) cache.store(key_of(i), payload(4, double(i)));
  std::size_t resident = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    if (cache.find(key_of(i))) ++resident;
  EXPECT_LE(resident, 16u);
  EXPECT_GT(resident, 0u);
}

// ------------------------------------------------------------ disk pruning --

TEST_F(ResultCacheTest, DiskBudgetEvictsOldestRecordsFirst) {
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
  auto& cache = core::ResultCache::instance();
  for (std::uint64_t i = 1; i <= 3; ++i)
    ASSERT_TRUE(cache.store(key_of(i), payload(16, double(i))));
  const std::uintmax_t record_bytes = fs::file_size(record_path(key_of(1)));

  // Pin an unambiguous age order: key 1 oldest, key 3 newest.
  const auto now = fs::file_time_type::clock::now();
  for (std::uint64_t i = 1; i <= 3; ++i)
    fs::last_write_time(record_path(key_of(i)), now - std::chrono::hours(4 - i));

  // Budget for three records; the fourth store must evict exactly the
  // oldest (pruning runs inside store once max_disk_bytes > 0).
  core::configure_result_cache({.enabled = true,
                                .disk = true,
                                .dir = dir_.string(),
                                .max_entries = 4096,
                                .max_disk_bytes = 3 * record_bytes + record_bytes / 2});
  core::reset_result_cache_stats();
  ASSERT_TRUE(cache.store(key_of(4), payload(16, 4.0)));

  EXPECT_FALSE(fs::exists(record_path(key_of(1))));  // oldest went first
  EXPECT_TRUE(fs::exists(record_path(key_of(2))));
  EXPECT_TRUE(fs::exists(record_path(key_of(3))));
  EXPECT_TRUE(fs::exists(record_path(key_of(4))));
  const auto stats = core::result_cache_stats();
  EXPECT_EQ(stats.evicted_budget, 1u);
  EXPECT_GE(stats.evicted_bytes, record_bytes);
}

TEST_F(ResultCacheTest, DiskHitTouchesMtimeSoHotRecordsSurvivePruning) {
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
  auto& cache = core::ResultCache::instance();
  ASSERT_TRUE(cache.store(key_of(1), payload(16, 1.0)));
  ASSERT_TRUE(cache.store(key_of(2), payload(16, 2.0)));
  const std::uintmax_t record_bytes = fs::file_size(record_path(key_of(1)));

  // Make key 1 the older record, then hit it from disk: the hit must
  // refresh its mtime, leaving key 2 as the eviction candidate.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(record_path(key_of(1)), now - std::chrono::hours(3));
  fs::last_write_time(record_path(key_of(2)), now - std::chrono::hours(2));
  cache.clear_memory();
  const std::size_t disk_hits = core::result_cache_stats().disk_hits;
  ASSERT_TRUE(cache.find(key_of(1)).has_value());
  EXPECT_EQ(core::result_cache_stats().disk_hits, disk_hits + 1);

  core::configure_result_cache({.enabled = true,
                                .disk = true,
                                .dir = dir_.string(),
                                .max_entries = 4096,
                                .max_disk_bytes = 2 * record_bytes + record_bytes / 2});
  ASSERT_TRUE(cache.store(key_of(3), payload(16, 3.0)));

  EXPECT_TRUE(fs::exists(record_path(key_of(1))));   // hot: mtime was touched
  EXPECT_FALSE(fs::exists(record_path(key_of(2))));  // cold: evicted
  EXPECT_TRUE(fs::exists(record_path(key_of(3))));
}

TEST_F(ResultCacheTest, PruningReapsStaleTmpFilesButSparesFreshOnes) {
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = dir_.string(), .max_entries = 4096});
  auto& cache = core::ResultCache::instance();
  ASSERT_TRUE(cache.store(key_of(1), payload(16, 1.0)));

  // A crashed writer's scratch file (old) and an in-flight one (fresh).
  const fs::path stale = dir_ / ".tmp-deadbeef-0";
  const fs::path fresh = dir_ / ".tmp-cafef00d-1";
  std::ofstream(stale) << "partial";
  std::ofstream(fresh) << "partial";
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() - std::chrono::minutes(30));

  core::configure_result_cache({.enabled = true,
                                .disk = true,
                                .dir = dir_.string(),
                                .max_entries = 4096,
                                .max_disk_bytes = 1 << 20});
  core::reset_result_cache_stats();
  ASSERT_TRUE(cache.store(key_of(2), payload(16, 2.0)));

  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_EQ(core::result_cache_stats().evicted_orphan, 1u);
}

// -------------------------------------------------------------- sensitivity --

TEST_F(ResultCacheTest, DenseKeyIsSensitiveToEveryField) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const core::DenseSweepRequest base{};
  std::vector<core::DenseSweepRequest> variants = {base};
  {
    auto v = base; v.kernel = core::KernelId::kCholesky; variants.push_back(v);
  }
  { auto v = base; v.n_lo = 257.0; variants.push_back(v); }
  { auto v = base; v.n_hi = 16129.0; variants.push_back(v); }
  { auto v = base; v.n_step = 513.0; variants.push_back(v); }
  { auto v = base; v.nb_lo = 129.0; variants.push_back(v); }
  { auto v = base; v.nb_hi = 4097.0; variants.push_back(v); }
  { auto v = base; v.nb_step = 129.0; variants.push_back(v); }

  std::vector<util::Digest128> keys;
  for (const auto& v : variants) keys.push_back(core::sweep_cache_key(p, v));
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_FALSE(keys[i] == keys[j]) << "variants " << i << " and " << j;

  // Same request, different platform spec: distinct key.
  const auto off_key = core::sweep_cache_key(sim::broadwell(sim::EdramMode::kOff), base);
  EXPECT_FALSE(off_key == keys[0]);
  // Identical request built twice: identical key (the cache contract).
  EXPECT_TRUE(core::sweep_cache_key(p, core::DenseSweepRequest{}) == keys[0]);
}

TEST_F(ResultCacheTest, SparseAndFootprintKeysAreSensitive) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  const auto suite_a = sparse::SyntheticCollection::test_suite(16, 50000);
  const auto suite_b = sparse::SyntheticCollection::test_suite(17, 50000);

  const core::SparseSweepRequest sp{.kernel = core::KernelId::kSpmv};
  const auto k_base = core::sweep_cache_key(p, sp, suite_a);
  EXPECT_FALSE(core::sweep_cache_key(
                   p, {.kernel = core::KernelId::kSptrans}, suite_a) == k_base);
  EXPECT_FALSE(core::sweep_cache_key(
                   p, {.kernel = core::KernelId::kSpmv, .merge_based = true}, suite_a) ==
               k_base);
  EXPECT_FALSE(core::sweep_cache_key(p, sp, suite_b) == k_base);  // suite matters
  EXPECT_TRUE(core::sweep_cache_key(p, sp, suite_a) == k_base);

  const core::FootprintSweepRequest fp{};
  const auto f_base = core::sweep_cache_key(p, fp);
  { auto v = fp; v.kernel = core::KernelId::kFft; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  { auto v = fp; v.fp_lo = 32.0 * 1024.0; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  { auto v = fp; v.fp_hi = 1e9; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  { auto v = fp; v.points = 65; EXPECT_FALSE(core::sweep_cache_key(p, v) == f_base); }
  // Dense and footprint keys live in distinct domains even if fields align.
  EXPECT_FALSE(core::sweep_cache_key(p, core::DenseSweepRequest{}) == f_base);
}

TEST_F(ResultCacheTest, SerializationIsStableAndCanonical) {
  const core::DenseSweepRequest a{}, b{};
  EXPECT_EQ(core::serialize(a), core::serialize(b));
  auto c = a;
  c.n_step = a.n_step + 1e-9;  // sub-print-precision in %g, exact in %a
  EXPECT_NE(core::serialize(a), core::serialize(c));
  // Hex-float rendering pins exact bit patterns, not rounded decimals.
  EXPECT_NE(core::serialize(a).find("0x"), std::string::npos);
  EXPECT_EQ(core::serialize(core::SparseSweepRequest{}),
            core::serialize(core::SparseSweepRequest{}));
  EXPECT_EQ(core::serialize(core::FootprintSweepRequest{}),
            core::serialize(core::FootprintSweepRequest{}));
}

// ----------------------------------------------------------- fault injection --

TEST_F(ResultCacheTest, TruncatedRecordFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(10);
  cache.store(key, payload(64, 2.0));
  cache.clear_memory();
  fs::resize_file(record_path(key), 48 + 13);  // payload cut short

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 1u);
  EXPECT_EQ(core::result_cache_stats().misses, 1u);
}

TEST_F(ResultCacheTest, ShorterThanHeaderFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(11);
  cache.store(key, payload(8, 3.0));
  cache.clear_memory();
  fs::resize_file(record_path(key), 10);  // not even a full header

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 1u);
}

TEST_F(ResultCacheTest, GarbagePayloadBytesFailChecksum) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(12);
  cache.store(key, payload(32, 4.0));
  cache.clear_memory();
  clobber(record_path(key), 48 + 17, 0xA5);  // flip one payload byte

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 1u);
}

TEST_F(ResultCacheTest, BadMagicFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(13);
  cache.store(key, payload(8, 5.0));
  cache.clear_memory();
  clobber(record_path(key), 0, 'X');

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 1u);
}

TEST_F(ResultCacheTest, WrongVersionHeaderFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(14);
  cache.store(key, payload(8, 6.0));
  cache.clear_memory();
  // The version field is the u32 at offset 4; kResultCacheVersion < 255.
  clobber(record_path(key), 4, 0xFF);

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(core::result_cache_stats().version_skew, 1u);
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 0u);
}

TEST_F(ResultCacheTest, ElementSizeMismatchFallsBackToMiss) {
  auto& cache = core::ResultCache::instance();
  const auto key = key_of(15);
  cache.store(key, payload(8, 7.0));
  cache.clear_memory();
  // The element-size field is the u64 at offset 24, always 1 for byte
  // payloads; a record claiming 8-byte elements is not one of ours.
  clobber(record_path(key), 24, 8);

  EXPECT_FALSE(cache.find(key).has_value());
  EXPECT_EQ(core::result_cache_stats().type_mismatch, 1u);
  EXPECT_EQ(core::result_cache_stats().corrupt_records, 0u);
}

TEST_F(ResultCacheTest, UnwritableCacheDirDegradesToMemoryOnly) {
  // Point the disk tier at a path occupied by a regular file: directory
  // creation fails no matter the privilege level (chmod tricks don't bind
  // under root, which CI containers run as).
  fs::create_directories(dir_);
  const fs::path blocker = dir_ / "blocker";
  std::ofstream(blocker).put('x');
  core::configure_result_cache(
      {.enabled = true, .disk = true, .dir = blocker.string(), .max_entries = 64});
  core::reset_result_cache_stats();

  auto& cache = core::ResultCache::instance();
  const auto key = key_of(16);
  const auto value = payload(16, 8.0);
  EXPECT_TRUE(cache.store(key, value));  // absorbed: memory still lands
  EXPECT_EQ(core::result_cache_stats().io_errors, 1u);

  const auto mem = cache.find(key);
  ASSERT_TRUE(mem.has_value());
  EXPECT_EQ(*mem, value);

  cache.clear_memory();
  EXPECT_FALSE(cache.find(key).has_value());  // no disk record exists
}

TEST_F(ResultCacheTest, CorruptedSweepRecordNeverChangesSweepResults) {
  const protocol::Request req = parse_ok(
      R"({"type":"dense","platform":"broadwell-edram-on","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":2304,"n_step":1024,"nb_lo":128,"nb_hi":512,"nb_step":128})");
  bool hit = true;
  const std::string cold = protocol::escaped_sweep_payload(req, &hit);
  EXPECT_FALSE(hit);

  auto& cache = core::ResultCache::instance();
  cache.clear_memory();
  clobber(record_path(protocol::payload_cache_key(req)), 48 + 3, 0x5A);
  const std::string after_fault = protocol::escaped_sweep_payload(req, &hit);
  EXPECT_FALSE(hit);  // recompute, no crash
  EXPECT_EQ(cold, after_fault);
  EXPECT_GE(core::result_cache_stats().corrupt_records, 1u);

  // The recompute re-published a healthy record; the next cold process
  // (simulated by clearing memory) hits disk again.
  cache.clear_memory();
  const std::size_t disk_hits = core::result_cache_stats().disk_hits;
  const auto healed = cache.find(protocol::payload_cache_key(req));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(core::result_cache_stats().disk_hits, disk_hits + 1);
  EXPECT_EQ(cold, *healed);
}

// ------------------------------------------------------- sweep integration --

TEST_F(ResultCacheTest, ColdAndWarmSweepsBitIdenticalAcrossWorkerCounts) {
  const protocol::Request req =
      parse_ok(R"({"type":"sparse","platform":"knl-cache","kernel":"sptrsv"})");

  core::set_sweep_workers(0);
  bool hit = true;
  const std::string cold = protocol::escaped_sweep_payload(req, &hit);
  ASSERT_FALSE(hit);

  auto& cache = core::ResultCache::instance();
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    core::set_sweep_workers(workers);
    EXPECT_EQ(cold, protocol::escaped_sweep_payload(req, &hit))
        << "memory tier, workers " << workers;
    EXPECT_TRUE(hit);
    cache.clear_memory();
    EXPECT_EQ(cold, protocol::escaped_sweep_payload(req, &hit))
        << "disk tier, workers " << workers;
    EXPECT_TRUE(hit);
    // And a recompute under this worker count renders the same bytes.
    EXPECT_EQ(cold, util::json_escape(protocol::execute(req))) << "workers " << workers;
  }
}

// ------------------------------------------------------------------ hashing --

TEST(Fingerprint, HexRendersThirtyTwoLowercaseDigits) {
  util::Hasher128 h;
  h.add(std::string_view("abc"));
  const std::string hex = h.digest().hex();
  EXPECT_EQ(hex.size(), 32u);
  for (char c : hex) EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

TEST(Fingerprint, LengthFramingSeparatesConcatenations) {
  // ("ab","c") and ("a","bc") concatenate identically; the length prefix
  // must keep their digests apart.
  util::Hasher128 h1, h2;
  h1.add(std::string_view("ab"));
  h1.add(std::string_view("c"));
  h2.add(std::string_view("a"));
  h2.add(std::string_view("bc"));
  EXPECT_FALSE(h1.digest() == h2.digest());
}

TEST(Fingerprint, DoublesHashByBitPattern) {
  util::Hasher128 pos, neg;
  pos.add(0.0);
  neg.add(-0.0);
  EXPECT_FALSE(pos.digest() == neg.digest());  // 0.0 == -0.0 but distinct bits
}

TEST(Fingerprint, DigestIsIdempotentAndStreamsAreOrderSensitive) {
  util::Hasher128 h;
  h.add(std::uint64_t{1});
  h.add(std::uint64_t{2});
  const auto d1 = h.digest();
  const auto d2 = h.digest();  // digest() must not mutate the hasher
  EXPECT_TRUE(d1 == d2);

  util::Hasher128 swapped;
  swapped.add(std::uint64_t{2});
  swapped.add(std::uint64_t{1});
  EXPECT_FALSE(swapped.digest() == d1);
}

}  // namespace
}  // namespace opm
