#include "src/common/cpu.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace spur {

unsigned
HardwareThreads()
{
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int n = CPU_COUNT(&mask);
        if (n > 0) {
            return static_cast<unsigned>(n);
        }
    }
#endif
    const unsigned n = std::thread::hardware_concurrency();
    return (n > 0) ? n : 1;
}

}  // namespace spur
