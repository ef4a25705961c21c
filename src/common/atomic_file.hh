/**
 * @file
 * Crash-safe file publication: write to a temporary sibling, then
 * rename into place.
 *
 * Every report/record writer in the repo (run records, bench JSON,
 * sample CSV, JSONL traces, Perfetto, telemetry, checkpoints) goes through
 * AtomicFile so a run killed mid-write never leaves a truncated
 * artifact behind under the final name: POSIX rename(2) within one
 * directory is atomic, so readers observe either the old file, no
 * file, or the complete new file. An AtomicFile that is destroyed
 * without commit() removes its temporary and leaves the target
 * untouched.
 */

#ifndef RRM_COMMON_ATOMIC_FILE_HH
#define RRM_COMMON_ATOMIC_FILE_HH

#include <fstream>
#include <string>

namespace rrm
{

/**
 * RAII writer targeting `path` through a `<path>.tmp.<pid>` sibling.
 *
 * Usage:
 *     AtomicFile file(path);
 *     file.stream() << ...;   // or hand the stream to a writer
 *     file.commit();          // flush + rename; fatal() on failure
 *
 * fatal() if the temporary cannot be opened (bad directory,
 * permissions), matching the historical open-failure behaviour of the
 * direct-ofstream writers it replaces. A SIGKILL between open and
 * commit leaves only the temporary behind; stale `*.tmp.*` files are
 * harmless and never read back.
 */
class AtomicFile
{
  public:
    /** Open the temporary; `binary` selects std::ios::binary. */
    explicit AtomicFile(const std::string &path, bool binary = false);

    /** Removes the temporary if commit() was never reached. */
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** The stream to write; valid until commit(). */
    std::ostream &stream() { return out_; }

    /** Target path this file will publish to. */
    const std::string &path() const { return path_; }

    /**
     * Flush, close, and rename the temporary over the target.
     * fatal() if the stream errored or the rename fails.
     */
    void commit();

  private:
    std::string path_;
    std::string tmpPath_;
    std::ofstream out_;
    bool committed_ = false;
};

} // namespace rrm

#endif // RRM_COMMON_ATOMIC_FILE_HH
