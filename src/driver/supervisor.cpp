/**
 * @file
 * Self re-exec support implementation.
 */
#include "driver/supervisor.hpp"

#include <unistd.h>

namespace evrsim {

std::string
selfExecutablePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return buf;
}

} // namespace evrsim
