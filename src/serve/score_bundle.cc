#include "serve/score_bundle.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

namespace qrank {

namespace {

// Fixed chunking for the export-side parallel passes. Like every grain
// in the parallel substrate, these shape the block boundaries and hence
// the partial results — but the combined output (postings layout, CRC
// value) is identical to the serial computation for every thread count.
constexpr size_t kRowGrain = size_t{1} << 14;   // rows per scan block
constexpr size_t kCrcChunk = size_t{1} << 20;   // bytes per CRC chunk

// Radix key of a score: finite non-negative doubles order like their
// IEEE-754 bit patterns read as unsigned integers once -0.0 is folded
// into +0.0, so ~bits sorts ascending into score descending.
inline uint64_t DescendingKey(double score) {
  return ~(score == 0.0 ? uint64_t{0} : std::bit_cast<uint64_t>(score));
}

// Rows by (score desc, row asc): the deterministic serving order, as a
// serial indirect LSD radix sort over DescendingKey(score[row]). Each
// pass is a stable counting scatter of row ids and the rows start
// ascending, so ties keep ascending row ids: the order std::sort gives
// under the (score desc, row asc) comparator, at any thread count. A
// pass whose digit is the same for every row would move nothing and is
// skipped. `rows` and `row_scratch` hold score.size() entries and are
// allocated by the caller; on return `rows` holds the order (the two
// may have been swapped).
void SortRowsByScoreDescending(const std::vector<double>& score,
                               std::vector<NodeId>* rows,
                               std::vector<NodeId>* row_scratch) {
  constexpr int kDigitBits = 11;
  constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  const size_t n = score.size();
  uint32_t counts[kDigits][kBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = DescendingKey(score[i]);
    (*rows)[i] = static_cast<NodeId>(i);
    for (int d = 0; d < kDigits; ++d) {
      ++counts[d][(key >> (d * kDigitBits)) & (kBuckets - 1)];
    }
  }
  const uint64_t first_key = DescendingKey(score[0]);
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    uint32_t* next = counts[d];
    if (next[(first_key >> shift) & (kBuckets - 1)] == n) continue;
    uint32_t start = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t count = next[b];
      next[b] = start;
      start += count;
    }
    const NodeId* in = rows->data();
    NodeId* out = row_scratch->data();
    for (size_t i = 0; i < n; ++i) {
      const NodeId row = in[i];
      out[next[(DescendingKey(score[row]) >> shift) & (kBuckets - 1)]++] = row;
    }
    rows->swap(*row_scratch);
  }
}

// CRC-32 of [data, data + len), split into fixed kCrcChunk chunks
// computed in parallel and folded left-to-right with BundleCrc32Combine
// — exactly the serial BundleCrc32 value.
uint32_t ParallelBundleCrc32(const uint8_t* data, size_t len,
                             ParallelOptions parallel) {
  const size_t chunks = NumBlocks(len, kCrcChunk);
  if (ResolveThreads(parallel.num_threads) <= 1 || chunks <= 1) {
    return BundleCrc32(data, len);
  }
  parallel.grain = kCrcChunk;
  std::vector<uint32_t> crcs(chunks, 0);
  ParallelForBlocks(
      len,
      [&](size_t lo, size_t hi) {
        crcs[lo / kCrcChunk] = BundleCrc32(data + lo, hi - lo);
      },
      parallel);
  uint32_t crc = crcs[0];
  for (size_t c = 1; c < chunks; ++c) {
    const size_t lo = c * kCrcChunk;
    const size_t hi = lo + kCrcChunk < len ? lo + kCrcChunk : len;
    crc = BundleCrc32Combine(crc, crcs[c], hi - lo);
  }
  return crc;
}

// Per-site postings: a blocked two-pass counting sort over the global
// quality order. Pass 1 histograms sites per fixed row block; a serial
// exclusive scan then assigns each (block, site) pair its disjoint
// write window inside the site's posting range; pass 2 scatters rows
// into those windows. Concatenating the blocks in order reproduces the
// global quality order within each site — byte-identical to the serial
// single-cursor walk.
void BuildSitePostings(const std::vector<SiteId>& site_ids, SiteId num_sites,
                       const std::vector<NodeId>& order_by_quality,
                       std::vector<uint32_t>* site_offsets,
                       std::vector<NodeId>* site_pages,
                       ParallelOptions parallel) {
  const size_t n = order_by_quality.size();
  site_offsets->assign(static_cast<size_t>(num_sites) + 1, 0);
  for (SiteId s : site_ids) ++(*site_offsets)[s + 1];
  for (size_t s = 1; s < site_offsets->size(); ++s) {
    (*site_offsets)[s] += (*site_offsets)[s - 1];
  }
  site_pages->resize(n);

  const size_t blocks = NumBlocks(n, kRowGrain);
  // The scan is O(blocks * num_sites); fall back to the serial walk
  // when the histogram would dwarf the rows themselves. The decision
  // depends only on (n, num_sites), never on the thread count.
  if (ResolveThreads(parallel.num_threads) <= 1 || blocks <= 1 ||
      blocks * static_cast<size_t>(num_sites) > n) {
    std::vector<uint32_t> cursor(site_offsets->begin(),
                                 site_offsets->end() - 1);
    for (NodeId row : order_by_quality) {
      (*site_pages)[cursor[site_ids[row]]++] = row;
    }
    return;
  }
  parallel.grain = kRowGrain;
  std::vector<uint32_t> cursors(blocks * num_sites, 0);
  ParallelForBlocks(
      n,
      [&](size_t lo, size_t hi) {
        uint32_t* mine = cursors.data() + (lo / kRowGrain) * num_sites;
        for (size_t i = lo; i < hi; ++i) ++mine[site_ids[order_by_quality[i]]];
      },
      parallel);
  for (SiteId s = 0; s < num_sites; ++s) {
    uint32_t acc = (*site_offsets)[s];
    for (size_t b = 0; b < blocks; ++b) {
      uint32_t& slot = cursors[b * num_sites + s];
      const uint32_t count = slot;
      slot = acc;
      acc += count;
    }
  }
  ParallelForBlocks(
      n,
      [&](size_t lo, size_t hi) {
        uint32_t* mine = cursors.data() + (lo / kRowGrain) * num_sites;
        for (size_t i = lo; i < hi; ++i) {
          const NodeId row = order_by_quality[i];
          (*site_pages)[mine[site_ids[row]]++] = row;
        }
      },
      parallel);
}

}  // namespace

// ---------------------------------------------------------------------------
// ScoreBundleWriter
// ---------------------------------------------------------------------------

Result<ScoreBundleWriter> ScoreBundleWriter::Create(ScoreBundleSource source,
                                                    ParallelOptions parallel) {
  const size_t n = source.quality.size();
  if (n == 0) {
    return Status::InvalidArgument("score bundle needs at least one page");
  }
  if (n > static_cast<size_t>(kInvalidNode)) {
    return Status::InvalidArgument("too many pages for 32-bit rows");
  }
  if (source.pagerank.size() != n) {
    return Status::InvalidArgument(
        "quality and pagerank sizes disagree: " + std::to_string(n) + " vs " +
        std::to_string(source.pagerank.size()));
  }
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(source.quality[i]) || source.quality[i] < 0.0) {
      return Status::InvalidArgument("quality[" + std::to_string(i) +
                                     "] is not finite and non-negative");
    }
    if (!std::isfinite(source.pagerank[i]) || source.pagerank[i] < 0.0) {
      return Status::InvalidArgument("pagerank[" + std::to_string(i) +
                                     "] is not finite and non-negative");
    }
  }
  if (source.page_ids.empty()) {
    source.page_ids.resize(n);
    std::iota(source.page_ids.begin(), source.page_ids.end(), NodeId{0});
  } else if (source.page_ids.size() != n) {
    return Status::InvalidArgument("page_ids size disagrees with pages");
  }
  if (source.site_ids.empty()) {
    source.site_ids.assign(n, SiteId{0});
    if (source.num_sites == 0) source.num_sites = 1;
  } else if (source.site_ids.size() != n) {
    return Status::InvalidArgument("site_ids size disagrees with pages");
  }
  if (source.num_sites == 0) {
    source.num_sites =
        *std::max_element(source.site_ids.begin(), source.site_ids.end()) + 1;
  }
  for (size_t i = 0; i < n; ++i) {
    if (source.site_ids[i] >= source.num_sites) {
      return Status::InvalidArgument(
          "site_ids[" + std::to_string(i) + "] = " +
          std::to_string(source.site_ids[i]) + " >= num_sites " +
          std::to_string(source.num_sites));
    }
  }
  if (source.expected_mass <= 0.0) {
    source.expected_mass = std::accumulate(source.pagerank.begin(),
                                           source.pagerank.end(), 0.0);
  }
  if (!std::isfinite(source.expected_mass)) {
    return Status::InvalidArgument("expected_mass is not finite");
  }

  ScoreBundleWriter w;
  w.source_ = std::move(source);
  w.parallel_ = parallel;
  // The two score columns sort side by side, one serial radix sort per
  // block. Every buffer is sized here, on the calling thread, so no
  // pool thread allocates; site_pages_ is the quality column's row
  // scratch until BuildSitePostings overwrites it.
  w.order_by_quality_.resize(n);
  w.order_by_pagerank_.resize(n);
  w.site_pages_.resize(n);
  std::vector<NodeId> pagerank_scratch(n);
  ParallelOptions columns = parallel;
  columns.grain = 1;
  ParallelForBlocks(
      2,
      [&](size_t lo, size_t hi) {
        for (size_t column = lo; column < hi; ++column) {
          if (column == 0) {
            SortRowsByScoreDescending(w.source_.quality, &w.order_by_quality_,
                                      &w.site_pages_);
          } else {
            SortRowsByScoreDescending(w.source_.pagerank,
                                      &w.order_by_pagerank_,
                                      &pagerank_scratch);
          }
        }
      },
      columns);
  BuildSitePostings(w.source_.site_ids, w.source_.num_sites,
                    w.order_by_quality_, &w.site_offsets_, &w.site_pages_,
                    parallel);
  return w;
}

std::vector<uint8_t> ScoreBundleWriter::Serialize() const {
  struct Section {
    uint32_t id;
    const void* data;
    uint64_t size;
  };
  const uint64_t n = num_pages();
  const Section sections[] = {
      {kBundleQuality, source_.quality.data(), n * 8},
      {kBundlePageRank, source_.pagerank.data(), n * 8},
      {kBundlePageIds, source_.page_ids.data(), n * 4},
      {kBundleSiteIds, source_.site_ids.data(), n * 4},
      {kBundleOrderByQuality, order_by_quality_.data(), n * 4},
      {kBundleOrderByPageRank, order_by_pagerank_.data(), n * 4},
      {kBundleSiteOffsets, site_offsets_.data(),
       (uint64_t{num_sites()} + 1) * 4},
      {kBundleSitePages, site_pages_.data(), n * 4},
  };

  BundleHeader header = {};
  std::memcpy(header.magic, kBundleMagic, sizeof(kBundleMagic));
  header.version = kBundleVersion;
  header.header_bytes = sizeof(BundleHeader);
  header.section_count = kBundleSectionCount;
  header.num_pages = num_pages();
  header.num_sites = num_sites();
  header.expected_mass = source_.expected_mass;
  header.creator_tag = source_.creator_tag;

  // Lay out the section table, then 64-aligned payloads.
  BundleSectionEntry table[kBundleSectionCount] = {};
  uint64_t cursor = BundleTableEnd(header);
  for (size_t i = 0; i < kBundleSectionCount; ++i) {
    cursor = (cursor + kBundleSectionAlign - 1) / kBundleSectionAlign *
             kBundleSectionAlign;
    table[i].id = sections[i].id;
    table[i].offset = cursor;
    table[i].size = sections[i].size;
    cursor += sections[i].size;
  }

  // Zero-initializing the full image up front keeps the alignment
  // padding zeroed (as the incremental append did) and lets the
  // section payloads land via disjoint parallel memcpys.
  std::vector<uint8_t> image(cursor, 0);
  std::memcpy(image.data() + sizeof(BundleHeader), table, sizeof(table));
  ParallelOptions section_opts = parallel_;
  section_opts.grain = 1;  // one section per block
  ParallelForBlocks(
      kBundleSectionCount,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          std::memcpy(image.data() + table[i].offset, sections[i].data,
                      static_cast<size_t>(sections[i].size));
        }
      },
      section_opts);

  header.payload_crc32 =
      ParallelBundleCrc32(image.data() + BundleTableEnd(header),
                          image.size() - BundleTableEnd(header), parallel_);
  header.header_crc32 =
      BundleCrc32(reinterpret_cast<const uint8_t*>(&header),
                  offsetof(BundleHeader, header_crc32));
  std::memcpy(image.data(), &header, sizeof(header));
  return image;
}

Status ScoreBundleWriter::WriteFile(const std::string& path) const {
  const std::vector<uint8_t> image = Serialize();
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open for write: " + path);
  f.write(reinterpret_cast<const char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  f.flush();
  if (!f) return Status::IOError("write failed: " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// LoadedBundle
// ---------------------------------------------------------------------------

LoadedBundle::LoadedBundle(LoadedBundle&& other) noexcept {
  *this = std::move(other);
}

LoadedBundle& LoadedBundle::operator=(LoadedBundle&& other) noexcept {
  if (this == &other) return *this;
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
  data_ = other.data_;
  size_ = other.size_;
  backing_ = other.backing_;
  heap_ = std::move(other.heap_);
  map_base_ = other.map_base_;
  map_length_ = other.map_length_;
  header_ = other.header_;
  std::memcpy(sections_, other.sections_, sizeof(sections_));
  other.map_base_ = nullptr;
  other.map_length_ = 0;
  other.data_ = nullptr;
  other.size_ = 0;
  // The moved-from heap_ is already empty; data_ (if it pointed into
  // heap_) moved with the vector's storage, so the spans stay valid.
  return *this;
}

LoadedBundle::~LoadedBundle() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
}

Status LoadedBundle::ValidateAndIndex(const ParallelOptions& parallel) {
  QRANK_RETURN_NOT_OK(ValidateBundleHeader(header_, size_));
  // The table is bounds-safe to read now: ValidateBundleHeader proved
  // table_end (plus the minimal payload) fits in size_.
  const BundleSectionEntry* table =
      reinterpret_cast<const BundleSectionEntry*>(data_ +
                                                  sizeof(BundleHeader));
  QRANK_RETURN_NOT_OK(ValidateBundleSections(header_, table, size_));
  const uint64_t table_end = BundleTableEnd(header_);
  const uint32_t crc =
      ParallelBundleCrc32(data_ + table_end, size_ - table_end, parallel);
  if (crc != header_.payload_crc32) {
    return Status::Corruption("bundle payload CRC mismatch");
  }
  for (uint32_t i = 0; i < header_.section_count; ++i) {
    sections_[table[i].id] = data_ + table[i].offset;
  }

  // Range-check the index sections once, so the query hot path can
  // index quality()/pagerank()/site groups without per-access bounds
  // checks even on an adversarially crafted (but CRC-fixed) image.
  // The scans run as parallel violation counts (a pure reduction, so
  // the accept/reject outcome is thread-count independent); the serial
  // rescan naming the first bad entry only runs on corrupt images.
  ParallelOptions check = parallel;
  check.grain = kRowGrain;
  const NodeId n = header_.num_pages;
  for (const auto& [name, order] :
       {std::pair<const char*, std::span<const NodeId>>{"order_by_quality",
                                                        order_by_quality()},
        {"order_by_pagerank", order_by_pagerank()},
        {"site_pages", site_pages()}}) {
    const double bad = ParallelReduce(
        order.size(),
        [&order, n](size_t lo, size_t hi) {
          size_t count = 0;
          for (size_t i = lo; i < hi; ++i) count += order[i] >= n;
          return static_cast<double>(count);
        },
        check);
    if (bad != 0.0) {
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] >= n) {
          return Status::Corruption(std::string(name) + "[" +
                                    std::to_string(i) + "] = " +
                                    std::to_string(order[i]) +
                                    " out of row range");
        }
      }
    }
  }
  const std::span<const uint32_t> offsets = site_offsets();
  if (offsets.front() != 0 || offsets.back() != n) {
    return Status::Corruption("site_offsets do not span [0, num_pages]");
  }
  for (size_t s = 1; s < offsets.size(); ++s) {
    if (offsets[s] < offsets[s - 1]) {
      return Status::Corruption("site_offsets not monotone at site " +
                                std::to_string(s - 1));
    }
  }
  ParallelOptions site_check = parallel;
  site_check.grain = 64;  // sites per block
  const double bad_postings = ParallelReduce(
      header_.num_sites,
      [&](size_t lo, size_t hi) {
        size_t count = 0;
        for (size_t s = lo; s < hi; ++s) {
          for (uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
            count += site_ids()[site_pages()[i]] != s;
          }
        }
        return static_cast<double>(count);
      },
      site_check);
  if (bad_postings != 0.0) {
    for (SiteId s = 0; s < header_.num_sites; ++s) {
      for (uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
        if (site_ids()[site_pages()[i]] != s) {
          return Status::Corruption("site_pages row " + std::to_string(i) +
                                    " not in site " + std::to_string(s));
        }
      }
    }
  }
  return Status::OK();
}

Result<LoadedBundle> LoadedBundle::FromBuffer(std::vector<uint8_t> image,
                                              ParallelOptions parallel) {
  LoadedBundle b;
  b.heap_ = std::move(image);
  b.data_ = b.heap_.data();
  b.size_ = b.heap_.size();
  b.backing_ = Backing::kHeap;
  if (b.size_ < sizeof(BundleHeader)) {
    return Status::Corruption("bundle image smaller than its header");
  }
  std::memcpy(&b.header_, b.data_, sizeof(BundleHeader));
  QRANK_RETURN_NOT_OK(b.ValidateAndIndex(parallel));
  return b;
}

Result<LoadedBundle> LoadedBundle::Load(const std::string& path,
                                        bool prefer_mmap) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    return Status::IOError("cannot stat " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  // Read JUST the fixed header into the stack and validate it against
  // the true file size before allocating or mapping anything: a header
  // promising 2^31 pages in a 1 KB file must die here, not in mmap or
  // operator new (mirrors graph_io's binary-reader hardening).
  BundleHeader header = {};
  if (file_size < sizeof(header)) {
    return Status::Corruption(path + ": smaller than a bundle header");
  }
  ssize_t got = ::pread(fd, &header, sizeof(header), 0);
  if (got != static_cast<ssize_t>(sizeof(header))) {
    return Status::IOError("cannot read header of " + path);
  }
  {
    Status st_header = ValidateBundleHeader(header, file_size);
    if (!st_header.ok()) {
      return Status(st_header.code(), path + ": " + st_header.message());
    }
  }

  LoadedBundle b;
  if (prefer_mmap) {
    void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      b.map_base_ = base;
      b.map_length_ = file_size;
      b.data_ = static_cast<const uint8_t*>(base);
      b.size_ = file_size;
      b.backing_ = Backing::kMmap;
    }
  }
  if (b.data_ == nullptr) {
    // read() fallback (or prefer_mmap = false). The allocation is safe:
    // the validated header proved file_size is the real on-disk size.
    b.heap_.resize(file_size);
    size_t off = 0;
    while (off < file_size) {
      got = ::pread(fd, b.heap_.data() + off, file_size - off, off);
      if (got <= 0) return Status::IOError("short read of " + path);
      off += static_cast<size_t>(got);
    }
    b.data_ = b.heap_.data();
    b.size_ = file_size;
    b.backing_ = Backing::kHeap;
  }
  b.header_ = header;
  Status st_all = b.ValidateAndIndex(ParallelOptions{});
  if (!st_all.ok()) {
    return Status(st_all.code(), path + ": " + st_all.message());
  }
  return b;
}

}  // namespace qrank
