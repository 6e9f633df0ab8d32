#include "support/cpus.hh"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace cvliw
{

unsigned
usableCpuCount()
{
#if defined(__linux__)
    cpu_set_t mask;
    if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int n = CPU_COUNT(&mask);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace cvliw
