/**
 * @file
 * One SIMT core (streaming multiprocessor): the warp control unit of
 * Fig. 2 (warp status table, round-robin fetch and issue schedulers,
 * I-cache, instruction buffer, scoreboard, per-warp reconvergence
 * stacks), the banked register file with operand collectors, the
 * INT/FP/SFU SIMD pipelines, and the load/store unit of Fig. 3
 * (AGU, coalescer, SMEM/L1 with bank-conflict serialization,
 * constant cache).
 *
 * Execution is functional-at-issue: when a warp instruction issues,
 * its lanes compute real values, so addresses and branch outcomes
 * are exact; timing is modeled with pipeline next-free times and a
 * completion event heap. Execution is warp-wide: an instruction is
 * dispatched once and applied in one loop over its exec-mask lanes.
 * Each register is a contiguous row of warp_size lanes and each
 * predicate is a per-warp lane mask.
 *
 * Stepping is event-driven. A step that changes no state (nothing
 * written back, issued or fetched) is quiet, and every later step is
 * the same quiet step until the core's next event: a completion, a
 * warp's I-cache refill, or a pipeline becoming free. The core then
 * sleeps until that cycle (wakeCycle()) and settle() books the skipped
 * steps' arbitration counters in bulk, so the counts equal those of
 * stepping every cycle. Arbitration walks bitmasks of the warps that
 * pass the cheap state checks instead of every warp slot.
 */

#ifndef GPUSIMPOW_PERF_CORE_HH
#define GPUSIMPOW_PERF_CORE_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "config/gpu_config.hh"
#include "perf/activity.hh"
#include "perf/cache.hh"
#include "perf/kernel.hh"
#include "perf/memory.hh"
#include "perf/memsys.hh"

namespace gpusimpow {
namespace perf {

/** One token of the per-warp reconvergence stack [17]. */
struct StackEntry
{
    /** PC where this mask reconverges with its sibling. */
    uint32_t reconv_pc;
    /** Current execution PC for this mask. */
    uint32_t exec_pc;
    /** Threads (within the warp) executing this path. */
    uint64_t mask;
};

/** A SIMT core. Owned and stepped by Gpu. */
class Core
{
  public:
    /**
     * @param cfg full GPU configuration
     * @param core_id index of this core on the chip
     * @param memsys shared chip-level memory system
     * @param gmem functional global memory
     * @param cmem functional constant memory
     */
    Core(const GpuConfig &cfg, unsigned core_id, MemorySystem &memsys,
         GlobalMemory &gmem, ConstantMemory &cmem);

    /** Bind the kernel for subsequent block launches. */
    void setKernel(const KernelProgram *prog, const LaunchConfig *launch);

    /** True if a further block fits the core's resources. */
    bool canAcceptBlock() const;

    /**
     * Launch one thread block onto this core; wakes a sleeping core.
     * @param cta_x block x index
     * @param cta_y block y index
     * @param cycle shader cycle of the launch
     */
    void launchBlock(unsigned cta_x, unsigned cta_y, uint64_t cycle);

    /** Advance one shader cycle (must be >= wakeCycle()). */
    void step(uint64_t cycle);

    /**
     * First cycle at which step() can change state. A busy core needs
     * no step() before it: every step in between would be quiet.
     * ~0 when no event is pending at all (the core can never finish).
     */
    uint64_t wakeCycle() const { return _wake; }

    /**
     * Book the quiet steps a sleeping core skipped before `cycle`.
     * Call before reading activity() at a cycle boundary.
     */
    void settle(uint64_t cycle);

    /**
     * True once after a warp exited: the only event that can let a
     * block that did not fit before fit now.
     */
    bool takeCapacityFreed();

    /** Resident cycles booked in bulk by settle() this kernel. */
    uint64_t cyclesSlept() const { return _cycles_slept; }

    /** True if any block is resident. */
    bool busy() const { return _resident_blocks > 0; }

    /** Blocks currently resident. */
    unsigned residentBlocks() const { return _resident_blocks; }

    /** Activity counters (cumulative). */
    const CoreActivity &activity() const { return _act; }

    /** Reset between kernels: drop caches and counters. */
    void resetForKernel();

  private:
    /** Predicate registers per thread (SETP/SELP aux, guards). */
    static constexpr unsigned num_preds = 4;

    /** Resident thread block context. */
    struct Block
    {
        bool valid = false;
        unsigned cta_x = 0;
        unsigned cta_y = 0;
        unsigned threads = 0;
        unsigned live_warps = 0;
        unsigned at_barrier = 0;
        // Register file, [warp_in_block][reg][lane]: every register
        // of a warp is one row of warp_size lanes.
        std::vector<uint32_t> regs;
        std::unique_ptr<SharedMemory> smem;
    };

    /** Warp execution context (one WST entry). */
    struct Warp
    {
        bool valid = false;
        unsigned block_slot = 0;
        unsigned warp_in_block = 0;
        unsigned base_thread = 0;      // first thread id within block
        std::vector<StackEntry> stack;
        unsigned ibuffer = 0;          // decoded instructions ready
        uint64_t fetch_ready = 0;      // icache-miss stall
        bool inflight = false;         // barrel mode: op outstanding
        bool waiting_mem = false;
        bool at_barrier = false;
        uint64_t pending_reg_mask = 0; // scoreboard: regs 0..63
        unsigned pending_count = 0;    // scoreboard entries used
        uint64_t preds[num_preds] = {}; // predicate p: bit = lane
    };

    /** Per-instruction issue facts, decoded once per kernel. */
    struct Decoded
    {
        uint64_t use_mask;         // registers read or written
        UnitClass unit;
        bool writes_reg;
        uint8_t reg_sources;       // register source operands
    };

    /** Completion event (writeback). */
    struct Completion
    {
        uint64_t when;
        uint32_t warp;
        int16_t dst_reg;           // -1: none
        uint8_t kind;              // 0 alu, 1 mem
        bool operator>(const Completion &o) const { return when > o.when; }
    };

    const GpuConfig &_cfg;
    unsigned _core_id;
    MemorySystem &_memsys;
    GlobalMemory &_gmem;
    ConstantMemory &_cmem;

    const KernelProgram *_prog = nullptr;
    const LaunchConfig *_launch = nullptr;
    std::vector<Decoded> _decoded;
    unsigned _warps_per_block = 0;
    const bool _greedy;       // sched_policy == "gto"

    std::vector<Block> _blocks;
    std::vector<Warp> _warps;
    unsigned _resident_blocks = 0;

    CacheModel _icache;
    std::unique_ptr<CacheModel> _l1d;   // null when not configured
    CacheModel _const_cache;

    // Pipeline next-free times (shader cycles), indexed by UnitClass;
    // the Ctrl entry stays 0 (control ops never wait for a unit).
    static constexpr unsigned num_units = 5;
    uint64_t _unit_free[num_units] = {};

    unsigned _fetch_rr = 0;   // round-robin pointers
    unsigned _issue_rr = 0;

    // Warps passing the issue / fetch state checks (bit = warp slot).
    // Issue candidates are split by the unit of their next
    // instruction; the fetch mask leaves the time-dependent
    // fetch_ready check out.
    uint64_t _unit_cand[num_units] = {};
    uint64_t _fetch_cand = 0;

    // Sleep state: after a quiet step at cycle c, the steps of
    // [_sleep_from, _wake) are quiet too and are booked by settle().
    bool _sleeping = false;
    uint64_t _sleep_from = 0;
    uint64_t _wake = 0;
    uint64_t _quiet_probes = 0;    // scoreboard_checks per quiet step
    uint64_t _cycles_slept = 0;
    bool _capacity_freed = false;

    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>> _completions;

    CoreActivity _act;

    // Scratch buffers reused across cycles (no hot-path allocation).
    std::vector<uint32_t> _addr_scratch;
    std::vector<uint32_t> _seg_scratch;
    // Lane rows of an instruction's immediate and special-register
    // operands (one per source slot).
    uint32_t _operand_rows[3][64] = {};

    // --- stage helpers ---
    bool drainCompletions(uint64_t cycle);
    bool fetchStage(uint64_t cycle);
    bool issueStage(uint64_t cycle);
    void issue(unsigned warp_idx, uint64_t cycle);
    void refreshCandidates(unsigned warp_idx);
    uint64_t nextEventCycle(uint64_t cycle) const;
    void executeInstruction(Warp &warp, const Instruction &inst,
                            uint64_t exec_mask);
    uint64_t executeMemory(Warp &warp, const Instruction &inst,
                           uint64_t exec_mask, uint64_t cycle);
    void executeBranch(Warp &warp, const Instruction &inst,
                       uint64_t exec_mask);
    void threadExit(Warp &warp, uint64_t exit_mask);
    void releaseBarrierIfReady(unsigned block_slot);
    void finishWarpIfDone(unsigned warp_idx);

    // --- functional helpers ---
    /** Row of register `reg` of a warp: one value per lane. */
    uint32_t *regRow(const Warp &warp, unsigned reg);
    /**
     * Lane values of a source operand: the register row itself, or
     * `slot`'s scratch row filled for the lanes of `exec_mask`.
     */
    const uint32_t *operandRow(const Warp &warp, const Operand &op,
                               uint64_t exec_mask, unsigned slot);

    unsigned rfAccessesPerOperand(uint64_t mask) const;
};

} // namespace perf
} // namespace gpusimpow

#endif // GPUSIMPOW_PERF_CORE_HH
