// Score bundles: the versioned binary artifact that carries one
// snapshot's quality estimates from the compute pipeline to the serving
// layer (see bundle_format.h for the byte layout).
//
// Write side: ScoreBundleWriter takes the per-page vectors a finished
// SnapshotSeries + QualityEstimator run produces — Q̂(p), PR(p),
// external page ids, site ids — validates them, precomputes the serving
// index (global quality/pagerank orders and per-site postings sorted by
// quality), and serializes everything into one image.
//
// Read side: LoadedBundle maps a bundle zero-copy via mmap (falling
// back to a plain read() when mapping is unavailable) and exposes each
// section as a typed span. Loading validates the header and section
// table against the real file size BEFORE anything is allocated or
// mapped, verifies the payload CRC, and range-checks every index
// section so QueryEngine can serve from the spans without per-query
// bounds checks.

#ifndef QRANK_SERVE_SCORE_BUNDLE_H_
#define QRANK_SERVE_SCORE_BUNDLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/status.h"
#include "graph/edge_list.h"
#include "graph/site_graph.h"
#include "serve/bundle_format.h"

namespace qrank {

/// Per-page inputs to a bundle. `quality` and `pagerank` are required
/// and equal-length; `page_ids` defaults to the identity (row i is page
/// i) and `site_ids` to a single site 0 when empty.
struct ScoreBundleSource {
  std::vector<double> quality;
  std::vector<double> pagerank;
  std::vector<NodeId> page_ids;
  std::vector<SiteId> site_ids;
  /// Number of sites; 0 means "derive": max(site_ids) + 1, or 1 when
  /// site_ids is empty.
  SiteId num_sites = 0;
  /// Declared L1 mass of `pagerank` (stored in the header for the
  /// serve.bundle.scores audit); <= 0 means "derive": the actual sum.
  double expected_mass = 0.0;
  /// Free-form writer tag stored in the header (not validated).
  uint32_t creator_tag = 0;
};

/// Builds and serializes score bundles.
class ScoreBundleWriter {
 public:
  /// Validates `source` (equal sizes, >= 1 page, finite non-negative
  /// scores, site ids < num_sites) and precomputes the index sections.
  /// `parallel` sets the executor width for the index build (score-order
  /// sorts, per-site postings) and for Serialize(); the output image is
  /// byte-identical for every num_threads value — each score order is
  /// one serial radix sort (ties broken by ascending row id), the
  /// postings counting-sort scatters into thread-independent windows,
  /// and chunked CRCs are folded with BundleCrc32Combine.
  static Result<ScoreBundleWriter> Create(ScoreBundleSource source,
                                          ParallelOptions parallel = {});

  /// The complete bundle image (header + table + sections).
  std::vector<uint8_t> Serialize() const;

  /// Serialize() to a file.
  Status WriteFile(const std::string& path) const;

  NodeId num_pages() const {
    return static_cast<NodeId>(source_.quality.size());
  }
  SiteId num_sites() const { return source_.num_sites; }

 private:
  ScoreBundleWriter() = default;

  ScoreBundleSource source_;
  ParallelOptions parallel_;
  std::vector<NodeId> order_by_quality_;
  std::vector<NodeId> order_by_pagerank_;
  std::vector<uint32_t> site_offsets_;
  std::vector<NodeId> site_pages_;
};

/// An immutable, validated, queryable bundle image. Movable, not
/// copyable; destruction unmaps / frees the backing storage.
class LoadedBundle {
 public:
  enum class Backing {
    kMmap,  // zero-copy file mapping
    kHeap,  // read() fallback or FromBuffer
  };

  /// Loads and validates a bundle file. With `prefer_mmap` the image is
  /// mapped read-only (zero-copy); on mmap failure — or with
  /// prefer_mmap = false — the file is read into memory instead.
  static Result<LoadedBundle> Load(const std::string& path,
                                   bool prefer_mmap = true);

  /// Adopts and validates an in-memory image (tests, benches, and the
  /// publish path of an in-process pipeline). `parallel` sets the
  /// executor width of the validation passes (payload CRC, index range
  /// checks) — it never changes the accept/reject outcome.
  static Result<LoadedBundle> FromBuffer(std::vector<uint8_t> image,
                                         ParallelOptions parallel = {});

  LoadedBundle(LoadedBundle&& other) noexcept;
  LoadedBundle& operator=(LoadedBundle&& other) noexcept;
  LoadedBundle(const LoadedBundle&) = delete;
  LoadedBundle& operator=(const LoadedBundle&) = delete;
  ~LoadedBundle();

  NodeId num_pages() const { return header_.num_pages; }
  SiteId num_sites() const { return header_.num_sites; }
  double expected_mass() const { return header_.expected_mass; }
  uint32_t creator_tag() const { return header_.creator_tag; }
  Backing backing() const { return backing_; }
  size_t image_size() const { return size_; }

  std::span<const double> quality() const {
    return Typed<double>(kBundleQuality, header_.num_pages);
  }
  std::span<const double> pagerank() const {
    return Typed<double>(kBundlePageRank, header_.num_pages);
  }
  std::span<const NodeId> page_ids() const {
    return Typed<NodeId>(kBundlePageIds, header_.num_pages);
  }
  std::span<const SiteId> site_ids() const {
    return Typed<SiteId>(kBundleSiteIds, header_.num_pages);
  }
  /// Rows sorted by (quality desc, row asc).
  std::span<const NodeId> order_by_quality() const {
    return Typed<NodeId>(kBundleOrderByQuality, header_.num_pages);
  }
  /// Rows sorted by (pagerank desc, row asc).
  std::span<const NodeId> order_by_pagerank() const {
    return Typed<NodeId>(kBundleOrderByPageRank, header_.num_pages);
  }
  /// Posting-list row starts per site: site s owns
  /// site_pages()[site_offsets()[s] .. site_offsets()[s+1]).
  std::span<const uint32_t> site_offsets() const {
    return Typed<uint32_t>(kBundleSiteOffsets,
                           uint64_t{header_.num_sites} + 1);
  }
  /// Rows grouped by site, each group sorted by (quality desc, row asc).
  std::span<const NodeId> site_pages() const {
    return Typed<NodeId>(kBundleSitePages, header_.num_pages);
  }

 private:
  LoadedBundle() = default;

  /// Validates an image already resident at data_/size_ and resolves
  /// section pointers. Runs payload CRC + index range checks, chunked
  /// across `parallel` executors.
  Status ValidateAndIndex(const ParallelOptions& parallel);

  template <typename T>
  std::span<const T> Typed(uint32_t id, uint64_t count) const {
    return {reinterpret_cast<const T*>(sections_[id]),
            static_cast<size_t>(count)};
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  Backing backing_ = Backing::kHeap;
  std::vector<uint8_t> heap_;   // kHeap backing
  void* map_base_ = nullptr;    // kMmap backing (munmap target)
  size_t map_length_ = 0;
  BundleHeader header_ = {};
  const uint8_t* sections_[kBundleSitePages + 1] = {};
};

}  // namespace qrank

#endif  // QRANK_SERVE_SCORE_BUNDLE_H_
