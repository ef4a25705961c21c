/**
 * @file
 * Helpers shared by several test binaries: a self-removing temp
 * directory and a panic-message expectation.
 */

#ifndef RRM_TESTS_TEST_SUPPORT_HH
#define RRM_TESTS_TEST_SUPPORT_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <unistd.h>

#include "common/logging.hh"

namespace rrm::test
{

/**
 * A fresh, empty directory under the system temp dir, named after
 * `name` and the process id. It is removed with everything in it when
 * the object goes out of scope, so test runs leave nothing behind.
 */
class ScopedTempDir : public std::filesystem::path
{
  public:
    explicit ScopedTempDir(const std::string &name)
        : path(std::filesystem::temp_directory_path() /
               ("rrm_test_" + std::to_string(::getpid()) + "_" + name))
    {
        std::filesystem::remove_all(*this);
        std::filesystem::create_directories(*this);
    }

    ~ScopedTempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(*this, ignored);
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;
};

/** Run `op`; expect a PanicError whose message contains `what`. */
template <typename Op>
void
expectPanicMentioning(Op &&op, const std::string &what)
{
    try {
        op();
        ADD_FAILURE() << "no panic; expected '" << what << "'";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

} // namespace rrm::test

#endif // RRM_TESTS_TEST_SUPPORT_HH
