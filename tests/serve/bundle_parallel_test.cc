// Parallel-export determinism: the serialized bundle image must be
// byte-identical for every export thread count (sorts, postings,
// section copies, CRCs), and the chunked CRC combine must reproduce the
// one-pass CRC exactly — the contract that lets the pipelined ingest
// service parallelize the publish path without perturbing published
// bytes. The CRC kernel is pinned against the CRC-32 definition itself,
// and the radix serving order against std::sort under the (score desc,
// row asc) comparator.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/bundle_format.h"
#include "serve/score_bundle.h"

namespace qrank {
namespace {

ScoreBundleSource SyntheticSource(NodeId num_pages, SiteId num_sites,
                                  uint64_t seed) {
  Rng rng(seed);
  ScoreBundleSource source;
  source.quality.resize(num_pages);
  source.pagerank.resize(num_pages);
  source.site_ids.resize(num_pages);
  for (NodeId p = 0; p < num_pages; ++p) {
    // Coarse buckets produce heavy score ties — the case where only the
    // row-id tie-break keeps the order (and hence the bytes) unique.
    source.quality[p] = static_cast<double>(rng.NextUint64() % 97) / 97.0;
    source.pagerank[p] = static_cast<double>(rng.NextUint64() % 31) / 31.0;
    source.site_ids[p] = static_cast<SiteId>(rng.NextUint64() % num_sites);
  }
  source.num_sites = num_sites;
  return source;
}

// CRC-32 straight from its definition: reflected polynomial 0xEDB88320,
// one bit at a time, initial value and final XOR 0xFFFFFFFF.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len, uint32_t crc = 0) {
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(len);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextUint64());
  return data;
}

TEST(BundleCrc32Test, StandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(BundleCrc32(reinterpret_cast<const uint8_t*>(check.data()),
                        check.size()),
            0xCBF43926u);
}

TEST(BundleCrc32Test, MatchesBitwiseDefinitionAtEveryLengthAndOffset) {
  // Every length through eight whole 8-byte steps plus every tail, at
  // every alignment of the start pointer.
  const std::vector<uint8_t> data = RandomBytes(64 + 8, 3);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = data.data() + offset;
      ASSERT_EQ(BundleCrc32(p, len), BitwiseCrc32(p, len))
          << "offset " << offset << " length " << len;
      // A running CRC continues exactly like the definition's.
      ASSERT_EQ(BundleCrc32(p, len, 0x12345678u),
                BitwiseCrc32(p, len, 0x12345678u))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(BundleCrc32Test, MatchesBitwiseDefinitionOnAnImageSizedBuffer) {
  // The size of a 131k-page bundle image, odd so the tail runs too.
  const std::vector<uint8_t> data = RandomBytes(4'700'003, 5);
  EXPECT_EQ(BundleCrc32(data.data(), data.size()),
            BitwiseCrc32(data.data(), data.size()));
}

TEST(BundleCrc32CombineTest, MatchesOnePassCrcAtEverySplit) {
  Rng rng(7);
  std::vector<uint8_t> data(4096 + 37);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextUint64());
  const uint32_t whole = BundleCrc32(data.data(), data.size());
  for (const size_t split : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                             size_t{1000}, data.size() - 1, data.size()}) {
    const uint32_t a = BundleCrc32(data.data(), split);
    const uint32_t b = BundleCrc32(data.data() + split, data.size() - split);
    EXPECT_EQ(BundleCrc32Combine(a, b, data.size() - split), whole)
        << "split at " << split;
  }
}

TEST(BundleCrc32CombineTest, FoldsManyChunks) {
  Rng rng(11);
  std::vector<uint8_t> data(10000);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextUint64());
  const uint32_t whole = BundleCrc32(data.data(), data.size());
  const size_t chunk = 333;
  uint32_t crc = 0;
  bool first = true;
  for (size_t lo = 0; lo < data.size(); lo += chunk) {
    const size_t hi = std::min(lo + chunk, data.size());
    const uint32_t part = BundleCrc32(data.data() + lo, hi - lo);
    crc = first ? part : BundleCrc32Combine(crc, part, hi - lo);
    first = false;
  }
  EXPECT_EQ(crc, whole);
}

TEST(BundleParallelTest, SerializedImageByteIdenticalAcrossThreadCounts) {
  const ScoreBundleSource source = SyntheticSource(30000, 37, 0xb0b);
  std::vector<uint8_t> serial_image;
  {
    ParallelOptions opts;
    opts.num_threads = 1;
    Result<ScoreBundleWriter> writer =
        ScoreBundleWriter::Create(source, opts);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    serial_image = writer.value().Serialize();
  }
  for (const int threads : {2, 4, 8}) {
    ParallelOptions opts;
    opts.num_threads = threads;
    Result<ScoreBundleWriter> writer =
        ScoreBundleWriter::Create(source, opts);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    const std::vector<uint8_t> image = writer.value().Serialize();
    ASSERT_EQ(image, serial_image) << "threads=" << threads;
  }
}

TEST(BundleParallelTest, SingleSiteAndTinyBundlesStayIdentical) {
  // Degenerate shapes: one site (postings = quality order), and a
  // bundle smaller than one sort block (serial fallback paths).
  for (const NodeId pages : {NodeId{1}, NodeId{5}, NodeId{100}}) {
    ScoreBundleSource source = SyntheticSource(pages, 1, pages);
    ParallelOptions serial;
    serial.num_threads = 1;
    ParallelOptions wide;
    wide.num_threads = 8;
    Result<ScoreBundleWriter> a = ScoreBundleWriter::Create(source, serial);
    Result<ScoreBundleWriter> b = ScoreBundleWriter::Create(source, wide);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().Serialize(), b.value().Serialize())
        << "pages=" << pages;
  }
}

TEST(BundleParallelTest, ParallelValidationAcceptsAndRejectsLikeSerial) {
  const ScoreBundleSource source = SyntheticSource(30000, 37, 0xcafe);
  ParallelOptions wide;
  wide.num_threads = 4;
  Result<ScoreBundleWriter> writer = ScoreBundleWriter::Create(source, wide);
  ASSERT_TRUE(writer.ok());
  std::vector<uint8_t> image = writer.value().Serialize();

  // Clean image loads under parallel validation.
  Result<LoadedBundle> ok = LoadedBundle::FromBuffer(image, wide);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().num_pages(), 30000u);

  // Flip one payload byte: the parallel CRC must reject exactly like
  // the serial one.
  std::vector<uint8_t> corrupt = image;
  corrupt[corrupt.size() / 2] ^= 0x01;
  Result<LoadedBundle> bad = LoadedBundle::FromBuffer(std::move(corrupt), wide);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

// Every header field and every section span of two bundles, element
// for element.
void ExpectSameBundle(const LoadedBundle& a, const LoadedBundle& b) {
  EXPECT_EQ(a.num_pages(), b.num_pages());
  EXPECT_EQ(a.num_sites(), b.num_sites());
  EXPECT_EQ(a.expected_mass(), b.expected_mass());
  EXPECT_EQ(a.creator_tag(), b.creator_tag());
  EXPECT_EQ(a.image_size(), b.image_size());
  const auto same = [](auto x, auto y, const char* name) {
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end())) << name;
  };
  same(a.quality(), b.quality(), "quality");
  same(a.pagerank(), b.pagerank(), "pagerank");
  same(a.page_ids(), b.page_ids(), "page_ids");
  same(a.site_ids(), b.site_ids(), "site_ids");
  same(a.order_by_quality(), b.order_by_quality(), "order_by_quality");
  same(a.order_by_pagerank(), b.order_by_pagerank(), "order_by_pagerank");
  same(a.site_offsets(), b.site_offsets(), "site_offsets");
  same(a.site_pages(), b.site_pages(), "site_pages");
}

// The in-process publish (no copy, no CRC, no re-validation) serves the
// same bundle as the file/wire path, and Serialize() beside it — the
// kept-image path of the ingest loop — stays byte-identical at every
// thread count.
TEST(BundleParallelTest, PublishServesWhatFromBufferLoads) {
  struct Shape {
    NodeId pages;
    SiteId sites;
  };
  for (const Shape shape : {Shape{30000, 37}, Shape{100, 1}, Shape{1, 1},
                            Shape{1, 4}}) {
    const ScoreBundleSource source =
        SyntheticSource(shape.pages, shape.sites, shape.pages + shape.sites);
    std::vector<uint8_t> serial_image;
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("pages " + std::to_string(shape.pages) + " sites " +
                   std::to_string(shape.sites) + " threads " +
                   std::to_string(threads));
      ParallelOptions opts;
      opts.num_threads = threads;
      Result<ScoreBundleWriter> writer =
          ScoreBundleWriter::Create(source, opts);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      std::vector<uint8_t> image = writer.value().Serialize();
      if (threads == 1) serial_image = image;
      ASSERT_EQ(image, serial_image);
      Result<LoadedBundle> published = std::move(writer).value().Publish();
      ASSERT_TRUE(published.ok()) << published.status().ToString();
      EXPECT_EQ(published.value().backing(), LoadedBundle::Backing::kHeap);
      Result<LoadedBundle> loaded =
          LoadedBundle::FromBuffer(std::move(image), opts);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ExpectSameBundle(published.value(), loaded.value());
    }
  }
}

// Score columns for the serving-order tests. Every shape is finite and
// non-negative (what ScoreBundleWriter accepts) but stresses the radix
// key: ties, -0.0 beside +0.0, the smallest subnormal, huge values, and
// one repeated value (every radix pass skipped).
enum class ColumnShape { kTies, kSignedZeros, kExtremes, kAllEqual, kSpread };

std::vector<double> ShapedColumn(ColumnShape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> column(n);
  for (double& v : column) {
    const uint64_t r = rng.NextUint64();
    switch (shape) {
      case ColumnShape::kTies:
        v = static_cast<double>(r % 5) / 7.0;
        break;
      case ColumnShape::kSignedZeros: {
        const double values[] = {0.0, -0.0, 1.0, 4.9e-324, -0.0};
        v = values[r % 5];
        break;
      }
      case ColumnShape::kExtremes: {
        const double values[] = {4.9e-324, 1e300, 0.0,    -0.0,
                                 2.2250738585072014e-308, 1.0, 1e-300};
        v = (r & 1) ? values[(r >> 1) % 7] : rng.UniformDouble(0.0, 3.0);
        break;
      }
      case ColumnShape::kAllEqual:
        v = 0.25;
        break;
      case ColumnShape::kSpread:
        v = rng.UniformDouble(0.0, 3.0) * (r % 3 == 0 ? 1e-6 : 1.0);
        break;
    }
  }
  return column;
}

std::vector<NodeId> ComparatorOrder(const std::vector<double>& score) {
  std::vector<NodeId> rows(score.size());
  std::iota(rows.begin(), rows.end(), NodeId{0});
  std::sort(rows.begin(), rows.end(), [&score](NodeId a, NodeId b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  });
  return rows;
}

TEST(BundleParallelTest, RadixOrderMatchesComparatorSortOnEdgeScores) {
  const ColumnShape shapes[] = {ColumnShape::kTies, ColumnShape::kSignedZeros,
                                ColumnShape::kExtremes, ColumnShape::kAllEqual,
                                ColumnShape::kSpread};
  constexpr size_t kShapes = sizeof(shapes) / sizeof(shapes[0]);
  for (const NodeId pages :
       {NodeId{1}, NodeId{(1u << 14) - 1}, NodeId{1u << 14},
        NodeId{(1u << 14) + 1}}) {
    for (size_t s = 0; s < kShapes; ++s) {
      SCOPED_TRACE("pages " + std::to_string(pages) + " shape " +
                   std::to_string(s));
      // Each shape appears once as the quality column and once as the
      // pagerank column.
      ScoreBundleSource source = SyntheticSource(pages, 13, pages + s);
      source.quality = ShapedColumn(shapes[s], pages, 2 * s + 1);
      source.pagerank =
          ShapedColumn(shapes[(s + 1) % kShapes], pages, 2 * s + 2);
      source.expected_mass = 1.0;  // the 1e300 sums overflow otherwise

      std::vector<uint8_t> serial_image;
      for (const int threads : {1, 2, 4, 8}) {
        ParallelOptions opts;
        opts.num_threads = threads;
        Result<ScoreBundleWriter> writer =
            ScoreBundleWriter::Create(source, opts);
        ASSERT_TRUE(writer.ok()) << writer.status().ToString();
        std::vector<uint8_t> image = writer.value().Serialize();
        if (threads == 1) {
          serial_image = image;
        } else {
          ASSERT_EQ(image, serial_image) << "threads=" << threads;
          continue;
        }
        Result<LoadedBundle> bundle = LoadedBundle::FromBuffer(std::move(image));
        ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
        const std::span<const NodeId> by_quality =
            bundle.value().order_by_quality();
        const std::span<const NodeId> by_pagerank =
            bundle.value().order_by_pagerank();
        EXPECT_EQ(std::vector<NodeId>(by_quality.begin(), by_quality.end()),
                  ComparatorOrder(source.quality));
        EXPECT_EQ(std::vector<NodeId>(by_pagerank.begin(), by_pagerank.end()),
                  ComparatorOrder(source.pagerank));
      }
    }
  }
}

// Golden images: the size and full-image CRC-32 of Serialize() for
// fixed sources, pinned from the writer that still copied finished
// sections into a zero-filled image. Any drift in the layout, the
// padding, an index section or a stamped CRC changes them.
struct GoldenImage {
  const char* name;
  ScoreBundleSource source;
  size_t size;
  uint32_t crc;
};

std::vector<GoldenImage> GoldenImages() {
  std::vector<GoldenImage> golden;
  // 16 pages over 2 sites: page ids and the mass derived.
  golden.push_back({"tiny", SyntheticSource(16, 2, 16), 896, 0x0f41f826u});
  // 3 pages, every default derived: identity ids, one site 0.
  ScoreBundleSource defaults;
  defaults.quality = {3.0, 1.0, 2.0};
  defaults.pagerank = {1.0, 1.5, 0.5};
  golden.push_back({"defaults", defaults, 716, 0x093be6b4u});
  // 655 sites x 200 pages (the e2e shape): coarse quality ties, and a
  // pagerank column of ties, -0.0 beside +0.0 and a subnormal.
  constexpr SiteId kSites = 655;
  constexpr NodeId kPagesPerSite = 200;
  constexpr NodeId kPages = kSites * kPagesPerSite;
  ScoreBundleSource site = SyntheticSource(kPages, kSites, 0x901d);
  site.pagerank = ShapedColumn(ColumnShape::kSignedZeros, kPages, 19);
  site.page_ids.resize(kPages);
  for (NodeId p = 0; p < kPages; ++p) {
    site.page_ids[p] = 3 * p + 1;
    site.site_ids[p] = p / kPagesPerSite;
  }
  site.creator_tag = 27;
  golden.push_back({"sites_131k", std::move(site), 4'719'008, 0x395d4d8au});
  return golden;
}

TEST(BundleGoldenTest, SerializedImagesMatchPinnedCrc) {
  for (const GoldenImage& g : GoldenImages()) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(g.name) + " threads=" +
                   std::to_string(threads));
      ParallelOptions opts;
      opts.num_threads = threads;
      Result<ScoreBundleWriter> writer =
          ScoreBundleWriter::Create(g.source, opts);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      const std::vector<uint8_t> image = writer.value().Serialize();
      EXPECT_EQ(image.size(), g.size);
      EXPECT_EQ(BundleCrc32(image.data(), image.size()), g.crc);
    }
  }
}

TEST(BundleGoldenTest, WriteFileBytesEqualSerialize) {
  const std::string path = ::testing::TempDir() + "/golden_write.qrkb";
  for (const GoldenImage& g : GoldenImages()) {
    SCOPED_TRACE(g.name);
    Result<ScoreBundleWriter> writer = ScoreBundleWriter::Create(g.source);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().WriteFile(path).ok());
    std::ifstream in(path, std::ios::binary);
    const std::vector<uint8_t> written((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
    EXPECT_EQ(written, writer.value().Serialize());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qrank
