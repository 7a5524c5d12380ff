/**
 * @file
 * Durable atomic file publication.
 *
 * The result cache and the sweep journal both need "either the old
 * bytes or the new bytes, never a mix, even across power loss". The
 * classic tmp+rename gives atomicity against concurrent readers and
 * kills, but *not* against power loss: without an fsync of the file the
 * rename can land while the data blocks are still dirty, and without an
 * fsync of the directory the rename itself can be lost. atomicWriteFile
 * does all three steps (write+fsync tmp, rename, fsync directory), so a
 * machine that loses power right after it returns still has the entry.
 */
#ifndef EVRSIM_COMMON_ATOMIC_FILE_HPP
#define EVRSIM_COMMON_ATOMIC_FILE_HPP

#include <cstddef>
#include <string>

#include "common/status.hpp"

namespace evrsim {

/**
 * write(2) until @p size bytes are on their way, retrying on EINTR.
 * False (errno set) on the first other error.
 */
bool writeAll(int fd, const char *data, std::size_t size);

/**
 * Atomically and durably replace @p path with @p contents.
 *
 * Writes to `<path>.tmp.<pid>`, fsyncs the file, renames it over
 * @p path, then fsyncs the containing directory. On any failure the
 * temporary file is removed and the previous @p path (if any) is left
 * untouched; the error is Unavailable naming the failing step.
 */
Status atomicWriteFile(const std::string &path, const std::string &contents);

/**
 * fsync the directory containing @p path, making a just-created or
 * just-renamed directory entry durable. Unavailable on failure.
 */
Status fsyncDirOf(const std::string &path);

} // namespace evrsim

#endif // EVRSIM_COMMON_ATOMIC_FILE_HPP
