/**
 * @file
 * atomicWriteFile implementation.
 */
#include "common/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace evrsim {

namespace {

Status
errnoStatus(const std::string &step, const std::string &path)
{
    return Status::unavailable(step + " " + path + ": " +
                               std::strerror(errno));
}

} // namespace

bool
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

Status
fsyncDirOf(const std::string &path)
{
    std::filesystem::path dir = std::filesystem::path(path).parent_path();
    std::string dir_name = dir.empty() ? "." : dir.string();
    int fd = ::open(dir_name.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return errnoStatus("open directory", dir_name);
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0)
        return errnoStatus("fsync directory", dir_name);
    return {};
}

Status
atomicWriteFile(const std::string &path, const std::string &contents)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return errnoStatus("open", tmp);

    auto fail = [&](const std::string &step,
                    const std::string &what) -> Status {
        Status s = errnoStatus(step, what);
        if (fd >= 0)
            ::close(fd);
        ::unlink(tmp.c_str());
        return s;
    };

    if (!writeAll(fd, contents.data(), contents.size()))
        return fail("write", tmp);
    // Data blocks must be durable *before* the rename publishes the
    // name, or a power cut can leave the final path pointing at
    // garbage — the exact failure mode tmp+rename is meant to prevent.
    if (::fsync(fd) != 0)
        return fail("fsync", tmp);
    int rc = ::close(fd);
    fd = -1;
    if (rc != 0)
        return fail("close", tmp);

    if (::rename(tmp.c_str(), path.c_str()) != 0)
        return fail("rename", path);

    // Make the rename itself durable (the directory entry lives in the
    // directory's blocks, not the file's).
    if (Status s = fsyncDirOf(path); !s.ok())
        return s;
    return {};
}

} // namespace evrsim
