/**
 * @file
 * The measurement microbenchmarks of SectionIII-D: an LFSR integer
 * loop and a Mandelbrot floating-point loop whose bodies execute on
 * a configurable number of enabled lanes per warp (31 vs 1 in the
 * paper) while loop control runs on all lanes — so both variants
 * have identical execution time and their energy difference isolates
 * the execution units. Also the steady occupancy kernel behind the
 * Fig. 4 cluster-power staircase.
 */

#ifndef GPUSIMPOW_WORKLOADS_MICROBENCH_HH
#define GPUSIMPOW_WORKLOADS_MICROBENCH_HH

#include "perf/kernel.hh"

namespace gpusimpow {
namespace workloads {

/** Guarded body operations emitted per loop iteration (INT). */
constexpr unsigned int_body_ops_per_iter = 40;   // 5 ops x 8 unroll
/** Guarded body operations emitted per loop iteration (FP). */
constexpr unsigned fp_body_ops_per_iter = 48;    // 6 ops x 8 unroll

/**
 * Linear-feedback-shift-register integer loop.
 * @param iterations loop trip count (per thread)
 * @param enabled_lanes lanes per warp executing the guarded body
 * @param sink_addr global address for the result sink
 */
perf::KernelProgram makeIntMicrobench(unsigned iterations,
                                      unsigned enabled_lanes,
                                      uint32_t sink_addr);

/** Mandelbrot-iteration floating-point loop (same structure). */
perf::KernelProgram makeFpMicrobench(unsigned iterations,
                                     unsigned enabled_lanes,
                                     uint32_t sink_addr);

/**
 * Steady compute kernel for the occupancy staircase of Fig. 4 (all
 * lanes enabled; INT mix).
 */
perf::KernelProgram makeOccupancyKernel(unsigned iterations,
                                        uint32_t sink_addr);

/**
 * Memory-latency-bound kernel: every loop iteration is one global
 * load whose value feeds the next address, striding a DRAM row per
 * iteration, so each warp spends nearly all its time waiting on DRAM
 * and cores issue a few instructions per round trip.
 * @param iterations loads per thread
 * @param buf_addr global buffer of threads * 4 + iterations * 4096
 *        bytes (reads as zero unless written)
 */
perf::KernelProgram makeLatencyBoundKernel(unsigned iterations,
                                           uint32_t buf_addr);

} // namespace workloads
} // namespace gpusimpow

#endif // GPUSIMPOW_WORKLOADS_MICROBENCH_HH
