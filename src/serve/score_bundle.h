// Score bundles: the versioned binary artifact that carries one
// snapshot's quality estimates from the compute pipeline to the serving
// layer (see bundle_format.h for the byte layout).
//
// Write side: ScoreBundleWriter takes the per-page vectors a finished
// SnapshotSeries + QualityEstimator run produces — Q̂(p), PR(p),
// external page ids, site ids — validates them, and writes them with
// the serving index (global quality/pagerank orders and per-site
// postings sorted by quality) straight into one image.
//
// Read side: LoadedBundle exposes each section of an image as a typed
// span. The CRCs and the full validation guard bytes that cross the
// process edge: Load maps a file zero-copy via mmap (falling back to a
// plain read() when mapping is unavailable) and FromBuffer adopts bytes
// from a file or the wire; both validate the header and section table
// against the real size BEFORE anything is allocated or mapped, verify
// the payload CRC, and range-check every index section so QueryEngine
// can serve from the spans without per-query bounds checks. An
// in-process publish (ScoreBundleWriter::Publish) adopts the writer's
// own image, which it built and checked itself, without either pass.

#ifndef QRANK_SERVE_SCORE_BUNDLE_H_
#define QRANK_SERVE_SCORE_BUNDLE_H_

#include <cstdint>
#include <memory>
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

class LoadedBundle;

/// Builds score bundles. Create lays out the header and section table
/// first, then writes every section straight into one image; the CRC
/// fields stay zero until bytes leave the process (Serialize,
/// WriteFile).
class ScoreBundleWriter {
 public:
  /// Validates `source` (equal sizes, >= 1 page, finite non-negative
  /// scores, site ids < num_sites) and builds the image: the columns are
  /// copied once, the two score orders radix-sort into their own
  /// sections (site_pages is the quality sort's scratch), and the site
  /// postings fill theirs; only the alignment padding is zeroed.
  /// `parallel` sets the executor width for the build and for the CRC
  /// passes of Serialize()/WriteFile(); the image is byte-identical for
  /// every num_threads value — each score order is one serial radix sort
  /// (ties broken by ascending row id), the postings counting-sort
  /// scatters into thread-independent windows, and chunked CRCs are
  /// folded with BundleCrc32Combine.
  static Result<ScoreBundleWriter> Create(ScoreBundleSource source,
                                          ParallelOptions parallel = {});

  /// A copy of the complete image (header + table + sections) with both
  /// CRCs stamped: the bytes for a file, the wire or a kept image.
  std::vector<uint8_t> Serialize() const;

  /// Writes the Serialize() bytes to a file, without the copy.
  Status WriteFile(const std::string& path) const;

  /// Hands the image to a LoadedBundle with no copy, no CRC pass and no
  /// re-validation: the writer built every section and checked every
  /// input itself. At QRANK_AUDIT_LEVEL >= 1 the CRCs are stamped and
  /// the full FromBuffer validation runs. Consumes the writer.
  Result<LoadedBundle> Publish() &&;

  NodeId num_pages() const { return header_.num_pages; }
  SiteId num_sites() const { return header_.num_sites; }

 private:
  ScoreBundleWriter() = default;

  /// header_ with its payload and header CRCs filled in.
  BundleHeader StampedHeader() const;

  BundleHeader header_ = {};  // as in the image: both CRCs zero
  ParallelOptions parallel_;
  std::unique_ptr<uint8_t[]> image_;
  size_t image_size_ = 0;
};

/// An immutable, validated, queryable bundle image. Movable, not
/// copyable; destruction unmaps / frees the backing storage.
class LoadedBundle {
 public:
  enum class Backing {
    kMmap,  // zero-copy file mapping
    kHeap,  // read() fallback, FromBuffer or ScoreBundleWriter::Publish
  };

  /// Loads and validates a bundle file. With `prefer_mmap` the image is
  /// mapped read-only (zero-copy); on mmap failure — or with
  /// prefer_mmap = false — the file is read into memory instead.
  static Result<LoadedBundle> Load(const std::string& path,
                                   bool prefer_mmap = true);

  /// Adopts and fully validates an image that came from a file or the
  /// wire (an in-process writer publishes through
  /// ScoreBundleWriter::Publish instead). `parallel` sets the executor
  /// width of the validation passes (payload CRC, index range checks) —
  /// it never changes the accept/reject outcome.
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
  /// site_pages()[site_offsets()[s] .. site_offsets()[s+1]). Empty in a
  /// moved-from bundle.
  std::span<const uint32_t> site_offsets() const {
    if (sections_[kBundleSiteOffsets] == nullptr) return {};
    return Typed<uint32_t>(kBundleSiteOffsets,
                           uint64_t{header_.num_sites} + 1);
  }
  /// Rows grouped by site, each group sorted by (quality desc, row asc).
  std::span<const NodeId> site_pages() const {
    return Typed<NodeId>(kBundleSitePages, header_.num_pages);
  }

 private:
  friend class ScoreBundleWriter;

  LoadedBundle() = default;

  /// Validates an image already resident at data_/size_ and resolves
  /// section pointers. Runs payload CRC + index range checks, chunked
  /// across `parallel` executors.
  Status ValidateAndIndex(const ParallelOptions& parallel);

  /// Resolves section pointers from the table of a valid image.
  void IndexSections();

  template <typename T>
  std::span<const T> Typed(uint32_t id, uint64_t count) const {
    return {reinterpret_cast<const T*>(sections_[id]),
            static_cast<size_t>(count)};
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  Backing backing_ = Backing::kHeap;
  std::vector<uint8_t> heap_;   // kHeap backing: read() or FromBuffer
  std::unique_ptr<uint8_t[]> published_;  // kHeap backing: Publish
  void* map_base_ = nullptr;    // kMmap backing (munmap target)
  size_t map_length_ = 0;
  BundleHeader header_ = {};
  const uint8_t* sections_[kBundleSitePages + 1] = {};
};

}  // namespace qrank

#endif  // QRANK_SERVE_SCORE_BUNDLE_H_
