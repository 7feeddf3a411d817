/**
 * @file
 * What the process may run on: the hardware threads it is allowed, and
 * a polite busy-wait hint for short spins.
 */
#ifndef SPUR_COMMON_CPU_H_
#define SPUR_COMMON_CPU_H_

namespace spur {

/**
 * Hardware threads this process may run on: the CPUs of the calling
 * thread's affinity mask (so `taskset` and cpusets are respected),
 * falling back to std::thread::hardware_concurrency() where the mask
 * cannot be read.  Always at least 1.
 */
unsigned HardwareThreads();

/**
 * One busy-wait step: tells the core the thread is spinning (x86
 * `pause`, Arm `yield`), which frees issue slots for the sibling
 * hyperthread and saves power.  A no-op where there is no such hint.
 */
inline void
CpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
}

}  // namespace spur

#endif  // SPUR_COMMON_CPU_H_
