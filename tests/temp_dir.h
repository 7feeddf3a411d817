/**
 * @file
 * ScopedTempDir: a per-test unique directory (mkdtemp), removed with
 * the files handed out inside it.  testing::TempDir() alone is shared
 * by every process of a parallel ctest run, where each test is its own
 * process, so fixed file names under it collide.  Shared by the stream
 * and trace tests (tests/stream_test.cc, tests/trace_test.cc,
 * tests/trace_replay_diff_test.cc).
 */
#ifndef SPUR_TESTS_TEMP_DIR_H_
#define SPUR_TESTS_TEMP_DIR_H_

#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

namespace spur {

class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        std::string templ = testing::TempDir();
        if (templ.empty() || templ.back() != '/') {
            templ += '/';
        }
        templ += "spur_test_XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        const char* made = mkdtemp(buf.data());
        EXPECT_NE(made, nullptr) << templ;
        dir_ = (made != nullptr) ? made : testing::TempDir();
    }

    ~ScopedTempDir()
    {
        for (const std::string& path : files_) {
            std::remove(path.c_str());
        }
        rmdir(dir_.c_str());
    }

    ScopedTempDir(const ScopedTempDir&) = delete;
    ScopedTempDir& operator=(const ScopedTempDir&) = delete;

    /** A path inside the directory, removed with it. */
    std::string Path(const std::string& name)
    {
        files_.push_back(dir_ + "/" + name);
        return files_.back();
    }

  private:
    std::string dir_;
    std::vector<std::string> files_;
};

}  // namespace spur

#endif  // SPUR_TESTS_TEMP_DIR_H_
