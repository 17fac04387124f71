// A fresh directory for one test process's shard files, removed with
// its contents on destruction. ctest runs every discovered test as its
// own process, in parallel under -j, so a fixed path would let one
// process rewrite shard files that another has mmapped (SIGBUS).

#ifndef QRANK_TESTS_DIST_SHARD_DIR_H_
#define QRANK_TESTS_DIST_SHARD_DIR_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "common/logging.h"

namespace qrank {

class ShardDir {
 public:
  explicit ShardDir(const std::string& prefix)
      : path_(::testing::TempDir() + "/" + prefix + "_XXXXXX") {
    QRANK_CHECK(::mkdtemp(path_.data()) != nullptr)
        << "mkdtemp failed for " << path_;
  }
  ~ShardDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ShardDir(const ShardDir&) = delete;
  ShardDir& operator=(const ShardDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace qrank

#endif  // QRANK_TESTS_DIST_SHARD_DIR_H_
