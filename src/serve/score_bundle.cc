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
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace qrank {

namespace {

constexpr int kAuditLevel = QRANK_AUDIT_LEVEL;

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
// skipped. The passes that run are known once the digits are counted,
// so the first scatters straight from the ascending rows and the
// buffers ping-pong such that the last lands in `rows`. `rows` and
// `row_scratch` each hold score.size() entries.
void SortRowsByScoreDescending(std::span<const double> score, NodeId* rows,
                               NodeId* row_scratch) {
  constexpr int kDigitBits = 11;
  constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  const size_t n = score.size();
  uint32_t counts[kDigits][kBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = DescendingKey(score[i]);
    for (int d = 0; d < kDigits; ++d) {
      ++counts[d][(key >> (d * kDigitBits)) & (kBuckets - 1)];
    }
  }
  const uint64_t first_key = DescendingKey(score[0]);
  int digits[kDigits];
  int passes = 0;
  for (int d = 0; d < kDigits; ++d) {
    const size_t first = (first_key >> (d * kDigitBits)) & (kBuckets - 1);
    if (counts[d][first] != n) digits[passes++] = d;
  }
  if (passes == 0) {
    std::iota(rows, rows + n, NodeId{0});
    return;
  }
  NodeId* out = passes % 2 == 1 ? rows : row_scratch;
  NodeId* in = out == rows ? row_scratch : rows;
  for (int p = 0; p < passes; ++p) {
    const int shift = digits[p] * kDigitBits;
    uint32_t* next = counts[digits[p]];
    uint32_t start = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t count = next[b];
      next[b] = start;
      start += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const NodeId row = p == 0 ? static_cast<NodeId>(i) : in[i];
      out[next[(DescendingKey(score[row]) >> shift) & (kBuckets - 1)]++] = row;
    }
    std::swap(in, out);
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
void BuildSitePostings(std::span<const SiteId> site_ids,
                       std::span<const NodeId> order_by_quality,
                       std::span<uint32_t> site_offsets,
                       std::span<NodeId> site_pages,
                       ParallelOptions parallel) {
  const size_t n = order_by_quality.size();
  const size_t num_sites = site_offsets.size() - 1;
  std::fill(site_offsets.begin(), site_offsets.end(), 0);
  for (SiteId s : site_ids) ++site_offsets[s + 1];
  for (size_t s = 1; s < site_offsets.size(); ++s) {
    site_offsets[s] += site_offsets[s - 1];
  }

  const size_t blocks = NumBlocks(n, kRowGrain);
  // The scan is O(blocks * num_sites); fall back to the serial walk
  // when the histogram would dwarf the rows themselves. The decision
  // depends only on (n, num_sites), never on the thread count.
  if (ResolveThreads(parallel.num_threads) <= 1 || blocks <= 1 ||
      blocks * num_sites > n) {
    std::vector<uint32_t> cursor(site_offsets.begin(), site_offsets.end() - 1);
    for (NodeId row : order_by_quality) {
      site_pages[cursor[site_ids[row]]++] = row;
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
  for (size_t s = 0; s < num_sites; ++s) {
    uint32_t acc = site_offsets[s];
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
          site_pages[mine[site_ids[row]]++] = row;
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
  // Empty page_ids / site_ids default to the identity and to site 0;
  // both are written straight into their sections below.
  if (!source.page_ids.empty() && source.page_ids.size() != n) {
    return Status::InvalidArgument("page_ids size disagrees with pages");
  }
  if (source.site_ids.empty()) {
    if (source.num_sites == 0) source.num_sites = 1;
  } else if (source.site_ids.size() != n) {
    return Status::InvalidArgument("site_ids size disagrees with pages");
  }
  if (source.num_sites == 0) {
    source.num_sites =
        *std::max_element(source.site_ids.begin(), source.site_ids.end()) + 1;
  }
  for (size_t i = 0; i < source.site_ids.size(); ++i) {
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
  w.parallel_ = parallel;
  BundleHeader& header = w.header_;
  std::memcpy(header.magic, kBundleMagic, sizeof(kBundleMagic));
  header.version = kBundleVersion;
  header.header_bytes = sizeof(BundleHeader);
  header.section_count = kBundleSectionCount;
  header.num_pages = static_cast<NodeId>(n);
  header.num_sites = source.num_sites;
  header.expected_mass = source.expected_mass;
  header.creator_tag = source.creator_tag;

  // Lay out the section table (sections in id order), then 64-aligned
  // payloads.
  BundleSectionEntry table[kBundleSectionCount] = {};
  uint64_t cursor = BundleTableEnd(header);
  for (uint32_t i = 0; i < kBundleSectionCount; ++i) {
    const uint32_t id = kBundleQuality + i;
    cursor = (cursor + kBundleSectionAlign - 1) / kBundleSectionAlign *
             kBundleSectionAlign;
    table[i].id = id;
    table[i].offset = cursor;
    table[i].size = BundleExpectedSectionSize(id, n, header.num_sites);
    cursor += table[i].size;
  }
  w.image_size_ = static_cast<size_t>(cursor);
  w.image_ = std::make_unique_for_overwrite<uint8_t[]>(w.image_size_);
  uint8_t* const image = w.image_.get();
  std::memcpy(image, &header, sizeof(header));
  std::memcpy(image + sizeof(header), table, sizeof(table));
  uint64_t padding = BundleTableEnd(header);
  for (const BundleSectionEntry& e : table) {
    std::memset(image + padding, 0, static_cast<size_t>(e.offset - padding));
    padding = e.offset + e.size;
  }
  const auto section = [&](uint32_t id) {
    return image + table[id - kBundleQuality].offset;
  };
  NodeId* const order_by_quality =
      reinterpret_cast<NodeId*>(section(kBundleOrderByQuality));
  NodeId* const order_by_pagerank =
      reinterpret_cast<NodeId*>(section(kBundleOrderByPageRank));
  NodeId* const site_pages =
      reinterpret_cast<NodeId*>(section(kBundleSitePages));
  SiteId* const site_ids = reinterpret_cast<SiteId*>(section(kBundleSiteIds));

  // Six tasks, one block each: the two score-order sorts (claimed
  // first, the longest) beside the four column writes. Every buffer is
  // sized here, on the calling thread, so no pool thread allocates;
  // site_pages is the quality sort's scratch until BuildSitePostings
  // overwrites it.
  const auto pagerank_scratch = std::make_unique_for_overwrite<NodeId[]>(n);
  ParallelOptions tasks = parallel;
  tasks.grain = 1;
  ParallelForBlocks(
      6,
      [&](size_t lo, size_t hi) {
        for (size_t task = lo; task < hi; ++task) {
          switch (task) {
            case 0:
              SortRowsByScoreDescending(source.quality, order_by_quality,
                                        site_pages);
              break;
            case 1:
              SortRowsByScoreDescending(source.pagerank, order_by_pagerank,
                                        pagerank_scratch.get());
              break;
            case 2:
              std::memcpy(section(kBundleQuality), source.quality.data(),
                          n * sizeof(double));
              break;
            case 3:
              std::memcpy(section(kBundlePageRank), source.pagerank.data(),
                          n * sizeof(double));
              break;
            case 4: {
              NodeId* const page_ids =
                  reinterpret_cast<NodeId*>(section(kBundlePageIds));
              if (source.page_ids.empty()) {
                std::iota(page_ids, page_ids + n, NodeId{0});
              } else {
                std::memcpy(page_ids, source.page_ids.data(),
                            n * sizeof(NodeId));
              }
              break;
            }
            default:  // task 5
              if (source.site_ids.empty()) {
                std::fill(site_ids, site_ids + n, SiteId{0});
              } else {
                std::memcpy(site_ids, source.site_ids.data(),
                            n * sizeof(SiteId));
              }
              break;
          }
        }
      },
      tasks);
  BuildSitePostings(
      {site_ids, n}, {order_by_quality, n},
      {reinterpret_cast<uint32_t*>(section(kBundleSiteOffsets)),
       size_t{header.num_sites} + 1},
      {site_pages, n}, parallel);
  return w;
}

BundleHeader ScoreBundleWriter::StampedHeader() const {
  BundleHeader header = header_;
  const uint64_t table_end = BundleTableEnd(header);
  header.payload_crc32 = ParallelBundleCrc32(
      image_.get() + table_end, image_size_ - table_end, parallel_);
  header.header_crc32 =
      BundleCrc32(reinterpret_cast<const uint8_t*>(&header),
                  offsetof(BundleHeader, header_crc32));
  return header;
}

std::vector<uint8_t> ScoreBundleWriter::Serialize() const {
  std::vector<uint8_t> image(image_.get(), image_.get() + image_size_);
  const BundleHeader header = StampedHeader();
  std::memcpy(image.data(), &header, sizeof(header));
  return image;
}

Status ScoreBundleWriter::WriteFile(const std::string& path) const {
  const BundleHeader header = StampedHeader();
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open for write: " + path);
  f.write(reinterpret_cast<const char*>(&header), sizeof(header));
  f.write(reinterpret_cast<const char*>(image_.get() + sizeof(header)),
          static_cast<std::streamsize>(image_size_ - sizeof(header)));
  f.flush();
  if (!f) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<LoadedBundle> ScoreBundleWriter::Publish() && {
  LoadedBundle b;
  b.header_ = kAuditLevel >= 1 ? StampedHeader() : header_;
  b.published_ = std::move(image_);
  b.data_ = b.published_.get();
  b.size_ = image_size_;
  b.backing_ = LoadedBundle::Backing::kHeap;
  if constexpr (kAuditLevel >= 1) {
    std::memcpy(b.published_.get(), &b.header_, sizeof(BundleHeader));
    QRANK_RETURN_NOT_OK(b.ValidateAndIndex(parallel_));
  } else {
    b.IndexSections();
  }
  return b;
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
  published_ = std::move(other.published_);
  map_base_ = other.map_base_;
  map_length_ = other.map_length_;
  header_ = other.header_;
  std::memcpy(sections_, other.sections_, sizeof(sections_));
  // data_ (if it pointed into heap_ or published_) moved with that
  // storage, so this bundle's spans stay valid. The source keeps no
  // view into it: it reports 0 pages and empty spans.
  other.map_base_ = nullptr;
  other.map_length_ = 0;
  other.data_ = nullptr;
  other.size_ = 0;
  other.header_ = {};
  std::fill(std::begin(other.sections_), std::end(other.sections_), nullptr);
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
  IndexSections();

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

void LoadedBundle::IndexSections() {
  const BundleSectionEntry* table =
      reinterpret_cast<const BundleSectionEntry*>(data_ +
                                                  sizeof(BundleHeader));
  for (uint32_t i = 0; i < header_.section_count; ++i) {
    sections_[table[i].id] = data_ + table[i].offset;
  }
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
