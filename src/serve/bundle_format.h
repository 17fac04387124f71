// On-disk layout of the score bundle ("QRKB"), shared between the
// serving library (src/serve/score_bundle.*) and the audit subsystem
// (src/audit/ registers serve.bundle.* validators over raw bundle
// images). Header-only and dependency-free beyond common/status.h, so
// the audit library can validate bundles without linking qrank_serve.
//
// A score bundle is the read side of the pipeline: one finished
// snapshot's quality estimates Q̂(p) and PageRank PR(p), plus the
// precomputed serving index (global score orders and per-site postings)
// that lets QueryEngine answer top-k queries without scanning pages.
// All integers and doubles are little-endian; the file is designed to
// be mmap'ed and consumed zero-copy.
//
//   offset   size                 field
//   0        64                   BundleHeader (fixed, CRC-guarded)
//   64       24 * section_count   section table (SectionEntry each)
//   ...      --                   zero padding to 64-byte alignment
//   s_0      --                   section payloads, each 64-aligned
//
// BundleHeader (all fields little-endian):
//   0   magic[4]        "QRKB"
//   4   version         u32, currently 1
//   8   header_bytes    u32, sizeof(BundleHeader) == 64
//   12  section_count   u32, in [1, kBundleMaxSections]
//   16  num_pages       u32
//   20  num_sites       u32
//   24  expected_mass   f64   declared L1 mass of the pagerank section
//   32  payload_crc32   u32   CRC-32 over [64 + 24*section_count, EOF)
//   36  reserved[20]          zero
//   56  creator_tag     u32   free-form writer tag (not validated)
//   60  header_crc32    u32   CRC-32 over bytes [0, 60)
//
// Validation order matters for safety: ValidateBundleHeader needs only
// the first 64 bytes and the total file size, and every quantity a
// loader might allocate or dereference (section table length, section
// offsets/sizes) is bounds-checked against the real file size *before*
// any allocation or mmap dereference — a corrupt header must fail with
// Corruption, never OOM or fault (same contract as graph_io's binary
// reader).

#ifndef QRANK_SERVE_BUNDLE_FORMAT_H_
#define QRANK_SERVE_BUNDLE_FORMAT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace qrank {

static_assert(std::endian::native == std::endian::little,
              "score bundles are little-endian; big-endian hosts would "
              "need byte-swapping load paths");

inline constexpr char kBundleMagic[4] = {'Q', 'R', 'K', 'B'};
inline constexpr uint32_t kBundleVersion = 1;
inline constexpr uint32_t kBundleMaxSections = 16;
inline constexpr uint32_t kBundleSectionAlign = 64;

/// Section ids of format version 1. All eight are required, each
/// exactly once; ids above kBundleSitePages are reserved for future
/// versions and rejected by v1 validation.
enum BundleSectionId : uint32_t {
  kBundleQuality = 1,          // f64[num_pages]  Q̂(p) per row
  kBundlePageRank = 2,         // f64[num_pages]  PR(p) per row
  kBundlePageIds = 3,          // u32[num_pages]  external page id per row
  kBundleSiteIds = 4,          // u32[num_pages]  site id per row
  kBundleOrderByQuality = 5,   // u32[num_pages]  rows, quality descending
  kBundleOrderByPageRank = 6,  // u32[num_pages]  rows, pagerank descending
  kBundleSiteOffsets = 7,      // u32[num_sites+1] postings row starts
  kBundleSitePages = 8,        // u32[num_pages]  rows grouped by site,
                               //                 quality descending
};

inline constexpr uint32_t kBundleSectionCount = 8;

struct BundleHeader {
  char magic[4];
  uint32_t version;
  uint32_t header_bytes;
  uint32_t section_count;
  uint32_t num_pages;
  uint32_t num_sites;
  double expected_mass;
  uint32_t payload_crc32;
  uint8_t reserved[20];
  uint32_t creator_tag;
  uint32_t header_crc32;
};
static_assert(sizeof(BundleHeader) == 64, "fixed 64-byte bundle header");

struct BundleSectionEntry {
  uint32_t id;
  uint32_t reserved;  // zero in v1
  uint64_t offset;    // from file start; kBundleSectionAlign-aligned
  uint64_t size;      // exact payload bytes (no trailing padding)
};
static_assert(sizeof(BundleSectionEntry) == 24, "24-byte section entry");

namespace crc_internal {

/// Slicing-by-8 tables of the reflected CRC-32 polynomial 0xEDB88320:
/// t[0] is the classic byte-at-a-time table, and t[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight table lookups fold eight
/// input bytes at once (Intel's "slicing-by-8", Kounavis & Berry 2005).
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables = {};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// GF(2) 32x32 matrix-vector product (each matrix row is a uint32_t
/// bitmask; multiplication is AND, addition is XOR).
inline uint32_t Gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1u) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

inline void Gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = Gf2MatrixTimes(mat, mat[n]);
}

}  // namespace crc_internal

/// Reflected CRC-32 (polynomial 0xEDB88320), the PKZIP/PNG variant.
/// `crc` continues a previous call: BundleCrc32(b, nb, BundleCrc32(a,
/// na)) is the CRC of a||b. Folds eight bytes per step.
inline uint32_t BundleCrc32(const uint8_t* data, size_t len,
                            uint32_t crc = 0) {
  // The 8-byte load below puts data[0] in the low byte of `word`.
  static_assert(std::endian::native == std::endian::little,
                "slicing-by-8 reads its input as little-endian words");
  const auto& t = crc_internal::kCrc32Tables.t;
  crc = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
          t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
          t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
          t[1][(word >> 48) & 0xFFu] ^ t[0][word >> 56];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

/// CRC of the concatenation A||B from crc(A), crc(B) and len(B): the
/// zlib crc32_combine construction — advance crc(A) through len(B)
/// zero bytes by GF(2) matrix exponentiation of the shift operator,
/// then XOR crc(B). Lets the writer checksum fixed chunks in parallel
/// and fold them left-to-right into the exact serial BundleCrc32 value
/// (bundles stay byte-identical regardless of export thread count).
inline uint32_t BundleCrc32Combine(uint32_t crc1, uint32_t crc2,
                                   uint64_t len2) {
  if (len2 == 0) return crc1;  // empty B: crc(A||B) == crc(A)
  uint32_t even[32];  // operator for 2^(2k+1) zero bytes as loop runs
  uint32_t odd[32];
  // Operator for one zero BIT: the reflected polynomial in row 0,
  // then a one-bit shift.
  odd[0] = 0xEDB88320u;
  uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  crc_internal::Gf2MatrixSquare(even, odd);  // 2 zero bits
  crc_internal::Gf2MatrixSquare(odd, even);  // 4 zero bits
  // Walk len2's bits; each squaring doubles the zero-byte count.
  do {
    crc_internal::Gf2MatrixSquare(even, odd);
    if (len2 & 1u) crc1 = crc_internal::Gf2MatrixTimes(even, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
    crc_internal::Gf2MatrixSquare(odd, even);
    if (len2 & 1u) crc1 = crc_internal::Gf2MatrixTimes(odd, crc1);
    len2 >>= 1;
  } while (len2 != 0);
  return crc1 ^ crc2;
}

/// Byte count a v1 section with `id` must carry for the header's counts.
/// Returns 0 for unknown ids.
inline uint64_t BundleExpectedSectionSize(uint32_t id, uint64_t num_pages,
                                          uint64_t num_sites) {
  switch (id) {
    case kBundleQuality:
    case kBundlePageRank:
      return num_pages * 8;
    case kBundlePageIds:
    case kBundleSiteIds:
    case kBundleOrderByQuality:
    case kBundleOrderByPageRank:
    case kBundleSitePages:
      return num_pages * 4;
    case kBundleSiteOffsets:
      return (num_sites + 1) * 4;
    default:
      return 0;
  }
}

/// First byte past the section table (sections may start at the next
/// kBundleSectionAlign boundary at or after this).
inline uint64_t BundleTableEnd(const BundleHeader& header) {
  return sizeof(BundleHeader) +
         uint64_t{header.section_count} * sizeof(BundleSectionEntry);
}

/// Validates the fixed header against the real file size: magic,
/// version, declared header size, header CRC, section-table bounds and
/// a minimal-payload lower bound derived from the declared page/site
/// counts. Needs only the 64 header bytes — safe to run before any
/// allocation or mapping.
inline Status ValidateBundleHeader(const BundleHeader& header,
                                   uint64_t file_size) {
  if (file_size < sizeof(BundleHeader)) {
    return Status::Corruption("bundle smaller than its fixed header (" +
                              std::to_string(file_size) + " bytes)");
  }
  if (std::memcmp(header.magic, kBundleMagic, sizeof(kBundleMagic)) != 0) {
    return Status::Corruption("bad bundle magic");
  }
  if (header.version != kBundleVersion) {
    return Status::Corruption("unsupported bundle version " +
                              std::to_string(header.version));
  }
  if (header.header_bytes != sizeof(BundleHeader)) {
    return Status::Corruption("declared header size " +
                              std::to_string(header.header_bytes) +
                              " != " + std::to_string(sizeof(BundleHeader)));
  }
  const uint32_t crc = BundleCrc32(reinterpret_cast<const uint8_t*>(&header),
                                   offsetof(BundleHeader, header_crc32));
  if (crc != header.header_crc32) {
    return Status::Corruption("bundle header CRC mismatch");
  }
  if (header.section_count < 1 ||
      header.section_count > kBundleMaxSections) {
    return Status::Corruption("section count " +
                              std::to_string(header.section_count) +
                              " outside [1, " +
                              std::to_string(kBundleMaxSections) + "]");
  }
  // The header-declared page/site counts bound the payload from below;
  // rejecting here (before the table or any section is touched) is what
  // keeps a corrupt-but-CRC-fixed count from driving an allocation.
  uint64_t need = BundleTableEnd(header);
  for (const uint32_t id :
       {kBundleQuality, kBundlePageRank, kBundlePageIds, kBundleSiteIds,
        kBundleOrderByQuality, kBundleOrderByPageRank, kBundleSiteOffsets,
        kBundleSitePages}) {
    need += BundleExpectedSectionSize(id, header.num_pages, header.num_sites);
  }
  if (need > file_size) {
    return Status::Corruption(
        "header promises " + std::to_string(need) + "+ bytes (" +
        std::to_string(header.num_pages) + " pages, " +
        std::to_string(header.num_sites) + " sites) but the bundle holds " +
        std::to_string(file_size));
  }
  return Status::OK();
}

/// Validates the section table (entries[header.section_count]) against
/// the header and the real file size: v1's eight sections present
/// exactly once, aligned, in bounds, exactly the expected size, zero
/// reserved fields, and pairwise non-overlapping. Requires
/// ValidateBundleHeader to have passed.
inline Status ValidateBundleSections(const BundleHeader& header,
                                     const BundleSectionEntry* entries,
                                     uint64_t file_size) {
  const uint64_t table_end = BundleTableEnd(header);
  uint32_t seen_mask = 0;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const BundleSectionEntry& e = entries[i];
    const std::string tag = "section[" + std::to_string(i) + "] (id " +
                            std::to_string(e.id) + ")";
    if (e.id < kBundleQuality || e.id > kBundleSitePages) {
      return Status::Corruption(tag + ": unknown v1 section id");
    }
    if (e.reserved != 0) {
      return Status::Corruption(tag + ": nonzero reserved field");
    }
    const uint32_t bit = 1u << e.id;
    if (seen_mask & bit) {
      return Status::Corruption(tag + ": duplicate section");
    }
    seen_mask |= bit;
    if (e.offset % kBundleSectionAlign != 0) {
      return Status::Corruption(tag + ": offset " + std::to_string(e.offset) +
                                " not " +
                                std::to_string(kBundleSectionAlign) +
                                "-aligned");
    }
    if (e.offset < table_end || e.offset > file_size ||
        e.size > file_size - e.offset) {
      return Status::Corruption(tag + ": extent [" + std::to_string(e.offset) +
                                ", +" + std::to_string(e.size) +
                                ") outside the file");
    }
    const uint64_t expect =
        BundleExpectedSectionSize(e.id, header.num_pages, header.num_sites);
    if (e.size != expect) {
      return Status::Corruption(tag + ": size " + std::to_string(e.size) +
                                ", expected " + std::to_string(expect));
    }
    for (uint32_t j = 0; j < i; ++j) {
      const BundleSectionEntry& o = entries[j];
      if (e.offset < o.offset + o.size && o.offset < e.offset + e.size &&
          e.size != 0 && o.size != 0) {
        return Status::Corruption(tag + ": overlaps section[" +
                                  std::to_string(j) + "]");
      }
    }
  }
  for (const uint32_t id :
       {kBundleQuality, kBundlePageRank, kBundlePageIds, kBundleSiteIds,
        kBundleOrderByQuality, kBundleOrderByPageRank, kBundleSiteOffsets,
        kBundleSitePages}) {
    if (!(seen_mask & (1u << id))) {
      return Status::Corruption("required section id " + std::to_string(id) +
                                " missing");
    }
  }
  return Status::OK();
}

}  // namespace qrank

#endif  // QRANK_SERVE_BUNDLE_FORMAT_H_
