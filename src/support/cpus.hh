/**
 * @file
 * How many CPUs the calling thread may run on, for sizing worker
 * pools (eval/service.cc).
 * `std::thread::hardware_concurrency()` counts every CPU of the host,
 * so under `taskset -c 0` it would still start one thread per CPU on
 * the single allowed one.
 */

#ifndef CVLIW_SUPPORT_CPUS_HH
#define CVLIW_SUPPORT_CPUS_HH

namespace cvliw
{

/**
 * CPUs in the calling thread's affinity mask (`sched_getaffinity`),
 * else `std::thread::hardware_concurrency()` where the mask is
 * unavailable, and never less than 1. Read on every call, so a
 * thread that narrows its own mask sees the narrowed count.
 */
unsigned usableCpuCount();

} // namespace cvliw

#endif // CVLIW_SUPPORT_CPUS_HH
