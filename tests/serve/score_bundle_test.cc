// Score-bundle artifact tests: writer validation, serialize/load
// roundtrips over both backings, the precomputed serving index, and the
// hardening contract — truncated or bit-flipped images must fail with
// Corruption before the loader allocates for or dereferences the
// payload (the graph_io binary-reader contract, PR 3).

#include "serve/score_bundle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/bundle_format.h"

namespace qrank {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class ScoreBundleTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Track(const std::string& p) {
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

// n pages over `sites` round-robin sites, distinct deterministic scores.
ScoreBundleSource MakeSource(NodeId n, SiteId sites) {
  ScoreBundleSource src;
  Rng rng(2024);
  src.quality.resize(n);
  src.pagerank.resize(n);
  src.page_ids.resize(n);
  src.site_ids.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    src.quality[i] = rng.UniformDouble(0.0, 100.0);
    src.pagerank[i] = rng.UniformDouble(0.0, 100.0);
    src.page_ids[i] = 1000 + i;
    src.site_ids[i] = i % sites;
  }
  src.num_sites = sites;
  src.creator_tag = 77;
  return src;
}

std::vector<uint8_t> MakeImage(NodeId n, SiteId sites) {
  Result<ScoreBundleWriter> writer = ScoreBundleWriter::Create(
      MakeSource(n, sites));
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  return writer.value().Serialize();
}

void ExpectDescendingOrder(std::span<const NodeId> order,
                           std::span<const double> score) {
  for (size_t i = 1; i < order.size(); ++i) {
    const bool ok = score[order[i - 1]] > score[order[i]] ||
                    (score[order[i - 1]] == score[order[i]] &&
                     order[i - 1] < order[i]);
    ASSERT_TRUE(ok) << "order position " << i;
  }
}

void ExpectValidBundle(const LoadedBundle& b, NodeId n, SiteId sites) {
  ASSERT_EQ(b.num_pages(), n);
  ASSERT_EQ(b.num_sites(), sites);
  EXPECT_EQ(b.creator_tag(), 77u);
  const ScoreBundleSource src = MakeSource(n, sites);
  for (NodeId i = 0; i < n; ++i) {
    ASSERT_EQ(b.quality()[i], src.quality[i]);
    ASSERT_EQ(b.pagerank()[i], src.pagerank[i]);
    ASSERT_EQ(b.page_ids()[i], src.page_ids[i]);
    ASSERT_EQ(b.site_ids()[i], src.site_ids[i]);
  }
  ExpectDescendingOrder(b.order_by_quality(), b.quality());
  ExpectDescendingOrder(b.order_by_pagerank(), b.pagerank());
  // Postings partition the rows by site, quality-descending per group.
  ASSERT_EQ(b.site_offsets().size(), size_t{sites} + 1);
  ASSERT_EQ(b.site_offsets()[0], 0u);
  ASSERT_EQ(b.site_offsets()[sites], n);
  std::vector<bool> seen(n, false);
  for (SiteId s = 0; s < sites; ++s) {
    for (uint32_t i = b.site_offsets()[s]; i < b.site_offsets()[s + 1];
         ++i) {
      const NodeId row = b.site_pages()[i];
      ASSERT_FALSE(seen[row]);
      seen[row] = true;
      ASSERT_EQ(b.site_ids()[row], s);
      if (i > b.site_offsets()[s]) {
        const NodeId prev = b.site_pages()[i - 1];
        ASSERT_TRUE(b.quality()[prev] > b.quality()[row] ||
                    (b.quality()[prev] == b.quality()[row] && prev < row));
      }
    }
  }
}

TEST_F(ScoreBundleTest, FromBufferRoundTrip) {
  Result<LoadedBundle> b = LoadedBundle::FromBuffer(MakeImage(257, 5));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->backing(), LoadedBundle::Backing::kHeap);
  ExpectValidBundle(b.value(), 257, 5);
}

TEST_F(ScoreBundleTest, FileRoundTripMmapAndHeap) {
  const std::string path = Track(TempPath("bundle.qrkb"));
  Result<ScoreBundleWriter> writer =
      ScoreBundleWriter::Create(MakeSource(64, 3));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().WriteFile(path).ok());

  Result<LoadedBundle> mapped = LoadedBundle::Load(path, true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->backing(), LoadedBundle::Backing::kMmap);
  ExpectValidBundle(mapped.value(), 64, 3);

  Result<LoadedBundle> heap = LoadedBundle::Load(path, false);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_EQ(heap->backing(), LoadedBundle::Backing::kHeap);
  ExpectValidBundle(heap.value(), 64, 3);
}

TEST_F(ScoreBundleTest, MoveTransfersMapping) {
  const std::string path = Track(TempPath("bundle_move.qrkb"));
  ASSERT_TRUE(ScoreBundleWriter::Create(MakeSource(16, 2))
                  .value()
                  .WriteFile(path)
                  .ok());
  // A moved-from bundle keeps no view into the storage it gave away: it
  // reports 0 pages and empty spans, for mapped, read-in and published
  // bundles alike, by move construction and by move assignment.
  const auto expect_empty = [](const LoadedBundle& b) {
    EXPECT_EQ(b.num_pages(), 0u);
    EXPECT_EQ(b.num_sites(), 0u);
    EXPECT_EQ(b.image_size(), 0u);
    EXPECT_TRUE(b.quality().empty());
    EXPECT_TRUE(b.pagerank().empty());
    EXPECT_TRUE(b.page_ids().empty());
    EXPECT_TRUE(b.site_ids().empty());
    EXPECT_TRUE(b.order_by_quality().empty());
    EXPECT_TRUE(b.order_by_pagerank().empty());
    EXPECT_TRUE(b.site_offsets().empty());
    EXPECT_TRUE(b.site_pages().empty());
  };
  std::vector<Result<LoadedBundle>> bundles;
  bundles.push_back(LoadedBundle::Load(path, true));
  bundles.push_back(LoadedBundle::Load(path, false));
  bundles.push_back(ScoreBundleWriter::Create(MakeSource(16, 2))
                        .value()
                        .Publish());
  ASSERT_EQ(bundles[0]->backing(), LoadedBundle::Backing::kMmap);
  for (Result<LoadedBundle>& loaded : bundles) {
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    LoadedBundle moved = std::move(loaded).value();
    {
      LoadedBundle moved_again = std::move(moved);
      expect_empty(moved);
      ExpectValidBundle(moved_again, 16, 2);
      moved = std::move(moved_again);
      expect_empty(moved_again);
    }
    ExpectValidBundle(moved, 16, 2);
  }
}

TEST_F(ScoreBundleTest, WriterDerivesDefaults) {
  ScoreBundleSource src;
  src.quality = {3.0, 1.0, 2.0};
  src.pagerank = {1.0, 1.5, 0.5};
  // page_ids/site_ids/num_sites/expected_mass all derived.
  Result<ScoreBundleWriter> writer = ScoreBundleWriter::Create(src);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  Result<LoadedBundle> b =
      LoadedBundle::FromBuffer(writer.value().Serialize());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->num_sites(), 1u);
  EXPECT_DOUBLE_EQ(b->expected_mass(), 3.0);
  EXPECT_EQ(b->page_ids()[2], 2u);
  EXPECT_EQ(b->site_ids()[2], 0u);
  EXPECT_EQ(b->order_by_quality()[0], 0u);
  EXPECT_EQ(b->order_by_pagerank()[0], 1u);
}

TEST_F(ScoreBundleTest, WriterRejectsBadSources) {
  const auto create = [](ScoreBundleSource src) {
    return ScoreBundleWriter::Create(std::move(src)).status().code();
  };
  ScoreBundleSource empty;
  EXPECT_EQ(create(empty), StatusCode::kInvalidArgument);

  ScoreBundleSource mismatched;
  mismatched.quality = {1.0, 2.0};
  mismatched.pagerank = {1.0};
  EXPECT_EQ(create(mismatched), StatusCode::kInvalidArgument);

  ScoreBundleSource negative = MakeSource(4, 2);
  negative.quality[1] = -0.5;
  EXPECT_EQ(create(negative), StatusCode::kInvalidArgument);

  ScoreBundleSource nan = MakeSource(4, 2);
  nan.pagerank[3] = std::nan("");
  EXPECT_EQ(create(nan), StatusCode::kInvalidArgument);

  ScoreBundleSource bad_site = MakeSource(4, 2);
  bad_site.site_ids[0] = 2;  // == num_sites
  EXPECT_EQ(create(bad_site), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Hardening: every truncation and every header bit flip must yield
// Corruption (never a crash, OOM, or silent success).
// ---------------------------------------------------------------------------

Status LoadImageViaFile(const std::vector<uint8_t>& image,
                        const std::string& path, bool prefer_mmap) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  out.close();
  return LoadedBundle::Load(path, prefer_mmap).status();
}

TEST_F(ScoreBundleTest, TruncationSweepFailsCleanly) {
  const std::vector<uint8_t> image = MakeImage(33, 4);
  const std::string path = Track(TempPath("trunc.qrkb"));
  // Every prefix below the header, around the table, and a payload
  // sample; full-size minus one exercises the last-byte case.
  std::vector<size_t> cuts = {0,  1,  4,   63,  64,  65,
                              96, 255, 256, 300, image.size() - 1};
  for (size_t cut : cuts) {
    ASSERT_LT(cut, image.size());
    const std::vector<uint8_t> prefix(image.begin(),
                                      image.begin() + static_cast<long>(cut));
    for (bool prefer_mmap : {true, false}) {
      const Status st = LoadImageViaFile(prefix, path, prefer_mmap);
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << "cut " << cut << " mmap " << prefer_mmap << ": "
          << st.ToString();
    }
    const Status direct = LoadedBundle::FromBuffer(prefix).status();
    EXPECT_EQ(direct.code(), StatusCode::kCorruption) << "cut " << cut;
  }
}

TEST_F(ScoreBundleTest, HeaderBitFlipSweepFailsCleanly) {
  const std::vector<uint8_t> image = MakeImage(17, 3);
  // Any single bit flip in the 64 header bytes is caught: the CRC
  // guards [0, 60), and a flip inside the stored CRC mismatches it.
  for (size_t byte = 0; byte < sizeof(BundleHeader); ++byte) {
    std::vector<uint8_t> mutant = image;
    mutant[byte] ^= 1u << (byte % 8);
    const Status st = LoadedBundle::FromBuffer(std::move(mutant)).status();
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "byte " << byte;
  }
}

TEST_F(ScoreBundleTest, PayloadBitFlipFailsCrc) {
  const std::vector<uint8_t> image = MakeImage(17, 3);
  BundleHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<uint8_t> mutant = image;
  mutant[BundleTableEnd(header) + 5] ^= 0x10;
  const Status st = LoadedBundle::FromBuffer(std::move(mutant)).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST_F(ScoreBundleTest, HugePageCountTinyFileRejectedBeforeAllocation) {
  // A 200-byte file whose (CRC-consistent) header promises a billion
  // pages: the size cross-check must reject it from the header alone.
  std::vector<uint8_t> image = MakeImage(4, 1);
  BundleHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  header.num_pages = 1u << 30;
  header.header_crc32 = BundleCrc32(
      reinterpret_cast<const uint8_t*>(&header),
      offsetof(BundleHeader, header_crc32));
  std::memcpy(image.data(), &header, sizeof(header));
  image.resize(200);

  const std::string path = Track(TempPath("huge.qrkb"));
  for (bool prefer_mmap : {true, false}) {
    const Status st = LoadImageViaFile(image, path, prefer_mmap);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("promises"), std::string::npos)
        << st.ToString();
  }
}

TEST_F(ScoreBundleTest, MissingFileIsIOError) {
  const Status st =
      LoadedBundle::Load(TempPath("does_not_exist.qrkb")).status();
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace qrank
