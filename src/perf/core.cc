#include "perf/core.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <type_traits>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "perf/coalescer.hh"

namespace gpusimpow {
namespace perf {

namespace {

constexpr uint32_t no_reconv = 0xffffffffu;
constexpr unsigned icache_miss_latency = 200;
constexpr unsigned const_miss_latency = 200;

float
asFloat(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
}

uint32_t
asBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, 4);
    return bits;
}

/** Bits [0, k) set. */
uint64_t
lowBits(unsigned k)
{
    return k >= 64 ? ~0ull : (1ull << k) - 1;
}

/**
 * A warp-slot mask in arbitration order: bit i of the result is slot
 * (base + i) % n, the i-th slot a round-robin scan from `base` visits.
 */
uint64_t
rotate(uint64_t mask, unsigned base, unsigned n)
{
    if (base == 0)
        return mask;
    return ((mask >> base) | (mask << (n - base))) & lowBits(n);
}

/** d[l] = f(a[l], b[l], c[l]) for every lane l set in `mask`. */
template <typename F>
void
laneMap(uint64_t mask, uint32_t *d, const uint32_t *a, const uint32_t *b,
        const uint32_t *c, F f)
{
    for (; mask; mask &= mask - 1) {
        unsigned l = std::countr_zero(mask);
        d[l] = f(a[l], b[l], c[l]);
    }
}

/** d[l] = f(float a[l]) as bits, for every lane l set in `mask`. */
template <typename F>
void
laneMapFloat(uint64_t mask, uint32_t *d, const uint32_t *a, F f)
{
    laneMap(mask, d, a, a, a, [f](uint32_t x, uint32_t, uint32_t) {
        return asBits(f(asFloat(x)));
    });
}

/** A 32-bit lane value read as the SETP operand type T. */
template <typename T>
T
laneAs(uint32_t bits)
{
    if constexpr (std::is_same_v<T, float>)
        return asFloat(bits);
    else
        return static_cast<T>(bits);
}

/** Lanes of `mask` for which cmp(a[l], b[l]) holds, compared as T. */
template <typename T, typename C>
uint64_t
laneCompare(uint64_t mask, const uint32_t *a, const uint32_t *b, C cmp)
{
    uint64_t r = 0;
    for (; mask; mask &= mask - 1) {
        unsigned l = std::countr_zero(mask);
        r |= static_cast<uint64_t>(cmp(laneAs<T>(a[l]), laneAs<T>(b[l])))
             << l;
    }
    return r;
}

template <typename T>
uint64_t
compareMask(Cmp cmp, uint64_t mask, const uint32_t *a, const uint32_t *b)
{
    switch (cmp) {
      case Cmp::EQ: return laneCompare<T>(mask, a, b, std::equal_to<T>());
      case Cmp::NE:
        return laneCompare<T>(mask, a, b, std::not_equal_to<T>());
      case Cmp::LT: return laneCompare<T>(mask, a, b, std::less<T>());
      case Cmp::LE:
        return laneCompare<T>(mask, a, b, std::less_equal<T>());
      case Cmp::GT: return laneCompare<T>(mask, a, b, std::greater<T>());
      case Cmp::GE:
        return laneCompare<T>(mask, a, b, std::greater_equal<T>());
    }
    return 0;
}

/** Lane values of an operand the instruction leaves unset. */
constexpr uint32_t zero_row[64] = {};

/** True for the memory ops that write their destination register. */
bool
loadsDst(Op op)
{
    return op == Op::LDG || op == Op::LDS || op == Op::LDC ||
           op == Op::ATOMG_ADD;
}

} // namespace

Core::Core(const GpuConfig &cfg, unsigned core_id, MemorySystem &memsys,
           GlobalMemory &gmem, ConstantMemory &cmem)
    : _cfg(cfg), _core_id(core_id), _memsys(memsys), _gmem(gmem),
      _cmem(cmem), _greedy(cfg.core.sched_policy == "gto"),
      _icache({cfg.core.icache_bytes, 64, cfg.core.icache_assoc, false}),
      _const_cache({cfg.core.const_cache_bytes, 64,
                    cfg.core.const_cache_assoc, false})
{
    GSP_ASSERT(cfg.core.warp_size <= 64 && cfg.core.maxWarps() <= 64,
               "warp size or warp count above 64 not representable in "
               "lane and warp masks");
    _blocks.resize(cfg.core.max_blocks);
    _warps.resize(cfg.core.maxWarps());
    if (cfg.core.lOneDBytes() > 0) {
        _l1d = std::make_unique<CacheModel>(CacheParams{
            cfg.core.lOneDBytes(), cfg.core.line_bytes, cfg.core.l1d_assoc,
            false});
    }
    _addr_scratch.reserve(cfg.core.warp_size);
    _seg_scratch.reserve(cfg.core.warp_size);
}

void
Core::setKernel(const KernelProgram *prog, const LaunchConfig *launch)
{
    GSP_ASSERT(!busy(), "kernel switch on a busy core");
    unsigned threads = launch->block.count();
    GSP_ASSERT(threads > 0 && threads <= _cfg.core.max_threads,
               "block of ", threads, " threads does not fit core");
    // Until the program passes the checks below no block can launch.
    _prog = nullptr;
    _decoded.clear();
    _decoded.reserve(prog->code.size());
    for (uint32_t pc = 0; pc < prog->code.size(); ++pc) {
        const Instruction &inst = prog->code[pc];
        if (loadsDst(inst.op) && !inst.writesReg())
            fatal("kernel ", prog->name, " pc ", pc, ": ", opName(inst.op),
                  " without a destination register");
        if (inst.guard >= static_cast<int>(num_preds) ||
            ((inst.op == Op::SETP || inst.op == Op::SELP) &&
             inst.aux >= num_preds)) {
            fatal("kernel ", prog->name, " pc ", pc,
                  ": predicate index out of range (", num_preds,
                  " predicates)");
        }
        Decoded d{0, inst.unitClass(), inst.writesReg(),
                  static_cast<uint8_t>(inst.regSources())};
        for (const Operand *op :
             {&inst.dst, &inst.src_a, &inst.src_b, &inst.src_c}) {
            if (op->kind != OperandKind::Reg)
                continue;
            if (op->value >= prog->regs_per_thread)
                fatal("kernel ", prog->name, " pc ", pc, ": register r",
                      op->value, " out of budget (", prog->regs_per_thread,
                      " per thread)");
            d.use_mask |= 1ull << (op->value & 63);
        }
        _decoded.push_back(d);
    }
    _prog = prog;
    _launch = launch;
    _warps_per_block = divCeil(threads, _cfg.core.warp_size);
}

bool
Core::canAcceptBlock() const
{
    if (!_prog)
        return false;
    unsigned threads = _launch->block.count();

    unsigned used_blocks = 0;
    unsigned used_threads = 0;
    unsigned used_warps = 0;
    for (const auto &b : _blocks) {
        if (b.valid) {
            ++used_blocks;
            used_threads += b.threads;
        }
    }
    for (const auto &w : _warps) {
        if (w.valid)
            ++used_warps;
    }

    if (used_blocks >= _cfg.core.max_blocks)
        return false;
    if (used_threads + threads > _cfg.core.max_threads)
        return false;
    if (used_warps + _warps_per_block > _cfg.core.maxWarps())
        return false;
    unsigned reg_need = (used_threads + threads) * _prog->regs_per_thread;
    if (reg_need > _cfg.core.regfile_regs)
        return false;
    unsigned smem_need = (used_blocks + 1) * _prog->smem_bytes;
    if (smem_need > _cfg.core.smem_bytes)
        return false;
    return true;
}

void
Core::launchBlock(unsigned cta_x, unsigned cta_y, uint64_t cycle)
{
    GSP_ASSERT(canAcceptBlock(), "launchBlock without capacity");
    settle(cycle);
    _sleeping = false;
    _wake = cycle;
    unsigned threads = _launch->block.count();

    unsigned block_slot = 0;
    while (_blocks[block_slot].valid)
        ++block_slot;

    Block &blk = _blocks[block_slot];
    blk.valid = true;
    blk.cta_x = cta_x;
    blk.cta_y = cta_y;
    blk.threads = threads;
    blk.live_warps = _warps_per_block;
    blk.at_barrier = 0;
    blk.regs.assign(static_cast<size_t>(_warps_per_block) *
                        _prog->regs_per_thread * _cfg.core.warp_size,
                    0);
    blk.smem = _prog->smem_bytes > 0
                   ? std::make_unique<SharedMemory>(_prog->smem_bytes)
                   : nullptr;

    unsigned assigned = 0;
    for (unsigned w = 0; w < _warps.size() && assigned < _warps_per_block;
         ++w) {
        if (_warps[w].valid)
            continue;
        Warp &warp = _warps[w];
        warp = Warp{};
        warp.valid = true;
        warp.block_slot = block_slot;
        warp.warp_in_block = assigned;
        warp.base_thread = assigned * _cfg.core.warp_size;
        unsigned lanes = std::min(_cfg.core.warp_size,
                                  threads - warp.base_thread);
        uint64_t mask = lanes >= 64 ? ~0ull : ((1ull << lanes) - 1);
        warp.stack.push_back({no_reconv, 0, mask});
        refreshCandidates(w);
        ++assigned;
        ++_act.wst_writes;   // WST entry initialization
    }
    GSP_ASSERT(assigned == _warps_per_block, "warp slot accounting broke");
    ++_resident_blocks;
}

bool
Core::takeCapacityFreed()
{
    bool freed = _capacity_freed;
    _capacity_freed = false;
    return freed;
}

void
Core::resetForKernel()
{
    GSP_ASSERT(!busy(), "resetForKernel on a busy core");
    _icache.flush();
    if (_l1d)
        _l1d->flush();
    _const_cache.flush();
    while (!_completions.empty())
        _completions.pop();
    std::fill(std::begin(_unit_free), std::end(_unit_free), 0);
    _fetch_rr = _issue_rr = 0;
    for (auto &w : _warps)
        w = Warp{};
    for (auto &b : _blocks)
        b = Block{};
    _fetch_cand = 0;
    std::fill(std::begin(_unit_cand), std::end(_unit_cand), 0);
    _sleeping = false;
    _wake = 0;
    _cycles_slept = 0;
    _capacity_freed = false;
    _act = CoreActivity{};
}

void
Core::settle(uint64_t cycle)
{
    if (!_sleeping || cycle <= _sleep_from)
        return;
    // Each skipped step is the quiet step that put the core to sleep:
    // both arbiters ran and every issue candidate probed the
    // scoreboard once.
    uint64_t n = cycle - _sleep_from;
    _act.cycles_resident += n;
    _act.fetch_arbitrations += n;
    _act.issue_arbitrations += n;
    _act.scoreboard_checks += n * _quiet_probes;
    _cycles_slept += n;
    _sleep_from = cycle;
}

void
Core::step(uint64_t cycle)
{
    if (!busy())
        return;
    settle(cycle);
    _sleeping = false;
    ++_act.cycles_resident;
    uint64_t probes = _act.scoreboard_checks;
    bool progress = drainCompletions(cycle);
    progress |= issueStage(cycle);
    progress |= fetchStage(cycle);
    if (progress) {
        _wake = cycle + 1;
        return;
    }
    _sleeping = true;
    _sleep_from = cycle + 1;
    _quiet_probes = _act.scoreboard_checks - probes;
    _wake = nextEventCycle(cycle);
}

uint64_t
Core::nextEventCycle(uint64_t cycle) const
{
    // After a quiet step only time can unblock a warp: a writeback
    // (scoreboard, barrel mode, memory wait), an I-cache refill, or a
    // pipeline becoming free.
    uint64_t next = ~0ull;
    if (!_completions.empty())
        next = _completions.top().when;
    for (uint64_t m = _fetch_cand; m; m &= m - 1) {
        uint64_t ready = _warps[std::countr_zero(m)].fetch_ready;
        if (ready > cycle)
            next = std::min(next, ready);
    }
    for (uint64_t free_at : _unit_free) {
        if (free_at > cycle)
            next = std::min(next, free_at);
    }
    return next;
}

void
Core::refreshCandidates(unsigned warp_idx)
{
    const Warp &warp = _warps[warp_idx];
    uint64_t bit = 1ull << warp_idx;
    bool live = warp.valid && !warp.stack.empty() && !warp.at_barrier &&
                !warp.waiting_mem;
    bool can_issue = live && warp.ibuffer > 0 &&
                     (_cfg.core.scoreboard || !warp.inflight);
    bool can_fetch = live && warp.ibuffer < _cfg.core.ibuffer_slots;
    for (uint64_t &m : _unit_cand)
        m &= ~bit;
    if (can_issue) {
        unsigned u = static_cast<unsigned>(
            _decoded[warp.stack.back().exec_pc].unit);
        _unit_cand[u] |= bit;
    }
    _fetch_cand = can_fetch ? _fetch_cand | bit : _fetch_cand & ~bit;
}

bool
Core::drainCompletions(uint64_t cycle)
{
    bool any = false;
    while (!_completions.empty() && _completions.top().when <= cycle) {
        Completion c = _completions.top();
        _completions.pop();
        any = true;
        Warp &warp = _warps[c.warp];
        if (!warp.valid) {
            // Block already retired (e.g. store ack after exit).
            continue;
        }
        warp.inflight = false;
        if (c.kind == 1)
            warp.waiting_mem = false;
        if (c.dst_reg >= 0) {
            warp.pending_reg_mask &= ~(1ull << c.dst_reg);
            if (warp.pending_count > 0)
                --warp.pending_count;
            ++_act.scoreboard_writes;  // release update
        }
        ++_act.writebacks;
        refreshCandidates(c.warp);
    }
    return any;
}

bool
Core::fetchStage(uint64_t cycle)
{
    unsigned n = static_cast<unsigned>(_warps.size());
    ++_act.fetch_arbitrations;
    for (uint64_t order = rotate(_fetch_cand, _fetch_rr, n); order;
         order &= order - 1) {
        unsigned w = (_fetch_rr + std::countr_zero(order)) % n;
        Warp &warp = _warps[w];
        if (warp.fetch_ready > cycle)
            continue;
        ++_act.wst_reads;
        ++_act.icache_reads;
        uint64_t fetch_pc = warp.stack.back().exec_pc + warp.ibuffer;
        bool hit = _icache.access(fetch_pc * 8, false);
        if (!hit) {
            ++_act.icache_misses;
            warp.fetch_ready = cycle + icache_miss_latency;
        } else {
            ++_act.decodes;
            ++_act.ibuffer_writes;
            ++warp.ibuffer;
        }
        refreshCandidates(w);
        _fetch_rr = (w + 1) % n;
        return true;
    }
    return false;
}

bool
Core::issueStage(uint64_t cycle)
{
    const bool scoreboard = _cfg.core.scoreboard;
    unsigned n = static_cast<unsigned>(_warps.size());
    unsigned issued = 0;
    ++_act.issue_arbitrations;
    // The scan visits offsets off, off + 1, ... from _issue_rr, which
    // moves when a warp issues mid-scan (issue_width > 1). Every
    // candidate visited costs one scoreboard probe; only those whose
    // unit is free need their registers checked.
    for (unsigned off = 0; issued < _cfg.core.issue_width && off < n;) {
        uint64_t all_units = 0;
        uint64_t free_units = 0;
        for (unsigned u = 0; u < num_units; ++u) {
            all_units |= _unit_cand[u];
            if (_unit_free[u] <= cycle)
                free_units |= _unit_cand[u];
        }
        uint64_t visit = ~lowBits(off);
        uint64_t cand = rotate(all_units, _issue_rr, n) & visit;
        uint64_t ready = rotate(free_units, _issue_rr, n) & visit;
        int winner = -1;
        for (; ready; ready &= ready - 1) {
            unsigned w = (_issue_rr + std::countr_zero(ready)) % n;
            const Warp &warp = _warps[w];
            const Decoded &dec = _decoded[warp.stack.back().exec_pc];
            if (scoreboard &&
                ((warp.pending_reg_mask & dec.use_mask) ||
                 (dec.writes_reg &&
                  warp.pending_count >= _cfg.core.scoreboard_entries))) {
                continue;
            }
            winner = std::countr_zero(ready);
            break;
        }
        if (winner < 0) {
            if (scoreboard)
                _act.scoreboard_checks += popCount(cand);
            break;
        }
        if (scoreboard)
            _act.scoreboard_checks += popCount(cand & lowBits(winner + 1));
        unsigned w = (_issue_rr + winner) % n;
        issue(w, cycle);
        refreshCandidates(w);
        ++issued;
        off = winner + 1;
        // Rotating priority moves past the winner; greedy-then-
        // oldest keeps issuing the same warp until it stalls.
        _issue_rr = _greedy ? w : (w + 1) % n;
    }
    return issued > 0;
}

void
Core::issue(unsigned warp_idx, uint64_t cycle)
{
    Warp &warp = _warps[warp_idx];
    StackEntry &tos = warp.stack.back();
    const Instruction &inst = _prog->code[tos.exec_pc];
    const Decoded &dec = _decoded[tos.exec_pc];

    // --- Issue accepted. ---
    --warp.ibuffer;
    ++_act.ibuffer_reads;
    ++_act.reconv_reads;
    ++_act.wst_writes;
    ++_act.issued_insts;

    Block &blk = _blocks[warp.block_slot];

    // Guard evaluation: threads whose predicate allows execution.
    uint64_t exec_mask = tos.mask;
    if (inst.guard >= 0) {
        uint64_t p = warp.preds[inst.guard];
        exec_mask &= inst.guard_negated ? ~p : p;
    }
    unsigned enabled = popCount(exec_mask);

    // Register file traffic (operand collectors, banks, crossbar).
    unsigned srcs = dec.reg_sources;
    unsigned per_op = rfAccessesPerOperand(tos.mask);
    _act.rf_bank_reads += srcs * per_op;
    _act.collector_writes += srcs;
    _act.rf_xbar_transfers += srcs;
    if (srcs > 0)
        ++_act.collector_reads;
    if (dec.writes_reg)
        _act.rf_bank_writes += per_op;

    const unsigned warp_size = _cfg.core.warp_size;

    switch (dec.unit) {
      case UnitClass::Ctrl: {
        ++_act.ctrl_warp_insts;
        if (inst.op == Op::BRA) {
            ++_act.branches;
            executeBranch(warp, inst, exec_mask);
        } else if (inst.op == Op::BAR) {
            ++_act.barriers;
            warp.at_barrier = true;
            ++blk.at_barrier;
            tos.exec_pc += 1;
            warp.ibuffer = 0;
            releaseBarrierIfReady(warp.block_slot);
        } else if (inst.op == Op::EXIT) {
            threadExit(warp, tos.mask);
        } else {  // NOP
            tos.exec_pc += 1;
        }
        // Reconvergence check after sequential advance.
        while (!warp.stack.empty() &&
               warp.stack.back().exec_pc == warp.stack.back().reconv_pc) {
            warp.stack.pop_back();
            ++_act.reconv_pops;
            warp.ibuffer = 0;
        }
        finishWarpIfDone(warp_idx);
        return;
      }
      case UnitClass::Int: {
        ++_act.int_warp_insts;
        _act.int_lane_ops += enabled;
        unsigned initiation = divCeil(warp_size, _cfg.core.int_lanes);
        _unit_free[static_cast<unsigned>(UnitClass::Int)] =
            cycle + initiation;
        executeInstruction(warp, inst, exec_mask);
        Completion c{cycle + _cfg.core.int_latency + initiation,
                     warp_idx, -1, 0};
        if (_cfg.core.scoreboard && dec.writes_reg) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        warp.inflight = true;
        _completions.push(c);
        break;
      }
      case UnitClass::Fp: {
        ++_act.fp_warp_insts;
        _act.fp_lane_ops += enabled;
        unsigned initiation = divCeil(warp_size, _cfg.core.fp_lanes);
        _unit_free[static_cast<unsigned>(UnitClass::Fp)] =
            cycle + initiation;
        executeInstruction(warp, inst, exec_mask);
        Completion c{cycle + _cfg.core.fp_latency + initiation,
                     warp_idx, -1, 0};
        if (_cfg.core.scoreboard && dec.writes_reg) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        warp.inflight = true;
        _completions.push(c);
        break;
      }
      case UnitClass::Sfu: {
        ++_act.sfu_warp_insts;
        _act.sfu_lane_ops += enabled;
        unsigned initiation = divCeil(warp_size, _cfg.core.sfu_units);
        _unit_free[static_cast<unsigned>(UnitClass::Sfu)] =
            cycle + initiation;
        executeInstruction(warp, inst, exec_mask);
        Completion c{cycle + _cfg.core.sfu_latency + initiation,
                     warp_idx, -1, 0};
        if (_cfg.core.scoreboard && dec.writes_reg) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        warp.inflight = true;
        _completions.push(c);
        break;
      }
      case UnitClass::Mem: {
        ++_act.mem_warp_insts;
        uint64_t done = executeMemory(warp, inst, exec_mask, cycle);
        bool is_load = inst.op == Op::LDG || inst.op == Op::LDS ||
                       inst.op == Op::STS || inst.op == Op::LDC ||
                       inst.op == Op::ATOMG_ADD;
        // STS completes like LDS (SMEM round trip); STG is
        // fire-and-forget through the store path.
        Completion c{done, warp_idx, -1, uint8_t(is_load ? 1 : 0)};
        if (_cfg.core.scoreboard && dec.writes_reg) {
            c.dst_reg = static_cast<int16_t>(inst.dst.value & 63);
            warp.pending_reg_mask |= 1ull << c.dst_reg;
            ++warp.pending_count;
            ++_act.scoreboard_writes;
        }
        if (is_load && (inst.op == Op::LDG || inst.op == Op::ATOMG_ADD))
            warp.waiting_mem = true;
        warp.inflight = true;
        _completions.push(c);
        break;
      }
    }

    // Sequential PC advance + reconvergence pop for non-control ops.
    StackEntry &tos2 = warp.stack.back();
    tos2.exec_pc += 1;
    while (!warp.stack.empty() &&
           warp.stack.back().exec_pc == warp.stack.back().reconv_pc) {
        warp.stack.pop_back();
        ++_act.reconv_pops;
        warp.ibuffer = 0;
    }
}

void
Core::executeBranch(Warp &warp, const Instruction &inst,
                    uint64_t exec_mask)
{
    StackEntry &tos = warp.stack.back();
    uint64_t mask = tos.mask;
    uint64_t taken = exec_mask;          // guard==condition for BRA
    uint64_t not_taken = mask & ~taken;

    if (taken == 0) {
        tos.exec_pc += 1;
        return;   // fully not-taken: fall through, keep ibuffer
    }
    if (not_taken == 0) {
        tos.exec_pc = inst.target;
        warp.ibuffer = 0;
        return;   // fully taken
    }

    // Divergence: the current entry becomes the reconvergence token;
    // both paths are pushed and the taken path executes first [17].
    ++_act.divergent_branches;
    uint32_t fall_pc = tos.exec_pc + 1;
    tos.exec_pc = inst.reconv;
    warp.stack.push_back({inst.reconv, fall_pc, not_taken});
    warp.stack.push_back({inst.reconv, inst.target, taken});
    _act.reconv_pushes += 2;
    warp.ibuffer = 0;
}

void
Core::threadExit(Warp &warp, uint64_t exit_mask)
{
    for (auto &entry : warp.stack)
        entry.mask &= ~exit_mask;
    while (!warp.stack.empty() && warp.stack.back().mask == 0) {
        warp.stack.pop_back();
        ++_act.reconv_pops;
    }
    warp.ibuffer = 0;
}

void
Core::releaseBarrierIfReady(unsigned block_slot)
{
    Block &blk = _blocks[block_slot];
    if (blk.live_warps == 0 || blk.at_barrier < blk.live_warps)
        return;
    blk.at_barrier = 0;
    for (unsigned w = 0; w < _warps.size(); ++w) {
        if (_warps[w].valid && _warps[w].block_slot == block_slot) {
            _warps[w].at_barrier = false;
            refreshCandidates(w);
        }
    }
}

void
Core::finishWarpIfDone(unsigned warp_idx)
{
    Warp &warp = _warps[warp_idx];
    if (!warp.valid || !warp.stack.empty())
        return;
    unsigned block_slot = warp.block_slot;
    warp.valid = false;
    _capacity_freed = true;
    Block &blk = _blocks[block_slot];
    GSP_ASSERT(blk.live_warps > 0, "warp accounting broke");
    --blk.live_warps;
    if (blk.live_warps > 0) {
        // A barrier may now be releasable with fewer participants.
        releaseBarrierIfReady(block_slot);
        return;
    }
    blk = Block{};
    GSP_ASSERT(_resident_blocks > 0, "block accounting broke");
    --_resident_blocks;
}

uint64_t
Core::executeMemory(Warp &warp, const Instruction &inst,
                    uint64_t exec_mask, uint64_t cycle)
{
    Block &blk = _blocks[warp.block_slot];
    uint64_t &mem_free = _unit_free[static_cast<unsigned>(UnitClass::Mem)];

    // AGU: one address per enabled lane, 8 addresses per SAGU/cycle.
    const uint32_t *base = operandRow(warp, inst.src_a, exec_mask, 0);
    _addr_scratch.clear();
    for (uint64_t m = exec_mask; m; m &= m - 1) {
        _addr_scratch.push_back(base[std::countr_zero(m)] +
                                static_cast<uint32_t>(inst.mem_offset));
    }
    unsigned enabled = static_cast<unsigned>(_addr_scratch.size());
    _act.agu_addrs += enabled;
    unsigned agu_cycles = std::max(
        1u, static_cast<unsigned>(
                divCeil(enabled, 8 * _cfg.core.sagu_count)));

    if (enabled == 0) {
        mem_free = cycle + 1;
        return cycle + 1;
    }

    switch (inst.op) {
      case Op::LDS:
      case Op::STS: {
        bool is_store = inst.op == Op::STS;
        GSP_ASSERT(blk.smem != nullptr, "SMEM access without smem_bytes");
        BankConflictInfo info = analyzeSmemAccess(
            _addr_scratch, _cfg.core.smem_banks);
        _act.smem_accesses += info.distinct_words;
        _act.smem_conflict_cycles += info.serialization - 1;
        // Functional.
        const uint32_t *addr = _addr_scratch.data();
        if (is_store) {
            const uint32_t *val = operandRow(warp, inst.src_b, exec_mask, 1);
            for (uint64_t m = exec_mask; m; m &= m - 1)
                blk.smem->store32(*addr++, val[std::countr_zero(m)]);
        } else {
            uint32_t *dst = regRow(warp, inst.dst.value);
            for (uint64_t m = exec_mask; m; m &= m - 1)
                dst[std::countr_zero(m)] = blk.smem->load32(*addr++);
        }
        mem_free = cycle + agu_cycles + info.serialization;
        return cycle + _cfg.core.smem_latency + info.serialization;
      }
      case Op::LDC: {
        unsigned d = distinctAddresses(_addr_scratch);
        _act.const_reads += d;
        unsigned miss_extra = 0;
        // Tag-check one access per distinct address.
        for (unsigned i = 0; i < d; ++i) {
            if (!_const_cache.access(_addr_scratch[i], false)) {
                ++_act.const_misses;
                miss_extra = const_miss_latency;
            }
        }
        const uint32_t *addr = _addr_scratch.data();
        uint32_t *dst = regRow(warp, inst.dst.value);
        for (uint64_t m = exec_mask; m; m &= m - 1)
            dst[std::countr_zero(m)] = _cmem.load32(*addr++);
        mem_free = cycle + agu_cycles + d;
        return cycle + _cfg.core.l1_latency + d + miss_extra;
      }
      case Op::LDG:
      case Op::STG:
      case Op::ATOMG_ADD: {
        bool is_store = inst.op == Op::STG;
        bool is_atomic = inst.op == Op::ATOMG_ADD;

        // Functional first (atomics serialize in lane order).
        const uint32_t *addr = _addr_scratch.data();
        if (is_store) {
            const uint32_t *val = operandRow(warp, inst.src_b, exec_mask, 1);
            for (uint64_t m = exec_mask; m; m &= m - 1)
                _gmem.store32(*addr++, val[std::countr_zero(m)]);
        } else if (is_atomic) {
            const uint32_t *val = operandRow(warp, inst.src_b, exec_mask, 1);
            uint32_t *dst = regRow(warp, inst.dst.value);
            for (uint64_t m = exec_mask; m; m &= m - 1) {
                unsigned l = std::countr_zero(m);
                uint32_t old = _gmem.load32(*addr);
                dst[l] = old;
                _gmem.store32(*addr++, old + val[l]);
            }
        } else {
            uint32_t *dst = regRow(warp, inst.dst.value);
            for (uint64_t m = exec_mask; m; m &= m - 1)
                dst[std::countr_zero(m)] = _gmem.load32(*addr++);
        }

        // Coalescing [24].
        ++_act.coalescer_lookups;
        unsigned n_seg;
        if (_cfg.core.coalescing) {
            n_seg = coalesce(_addr_scratch, _cfg.core.line_bytes,
                             _seg_scratch);
        } else {
            // Ablation: one line-sized transaction per active lane.
            _seg_scratch.clear();
            for (uint32_t a : _addr_scratch) {
                _seg_scratch.push_back(
                    a / _cfg.core.line_bytes * _cfg.core.line_bytes);
            }
            n_seg = static_cast<unsigned>(_seg_scratch.size());
        }
        _act.coalescer_transactions += n_seg;
        if (is_store)
            ++_act.global_stores;
        else
            ++_act.global_loads;

        uint64_t t_done = cycle + 1;
        for (unsigned s = 0; s < n_seg; ++s) {
            uint64_t seg = _seg_scratch[s];
            uint64_t t_seg = 0;
            bool to_mem = true;
            if (_l1d && !is_atomic) {
                if (is_store) {
                    // Write-through, no allocate.
                    ++_act.l1_writes;
                    _l1d->access(seg, true);
                } else {
                    ++_act.l1_reads;
                    if (_l1d->access(seg, false)) {
                        // Line read out of the unified SMEM/L1
                        // array: one access per 128-bit row.
                        _act.smem_accesses += _cfg.core.line_bytes / 16;
                        t_seg = cycle + _cfg.core.l1_latency;
                        to_mem = false;
                        t_done = std::max(t_done, t_seg);
                        continue;
                    }
                    ++_act.l1_misses;
                }
            }
            if (to_mem) {
                t_seg = _memsys.access(seg, is_store, cycle + s);
                if (is_atomic) {
                    // Read-modify-write: the write burst follows.
                    t_seg = _memsys.access(seg, true, t_seg);
                }
                t_done = std::max(t_done, t_seg);
            }
        }
        mem_free = cycle + agu_cycles + n_seg;
        if (is_store) {
            // Fire-and-forget: the warp only waits for the LDST
            // unit's own occupancy, not the DRAM round trip.
            return cycle + agu_cycles + n_seg + 1;
        }
        return t_done;
      }
      default:
        GSP_PANIC("executeMemory on non-memory opcode");
    }
}

void
Core::executeInstruction(Warp &warp, const Instruction &inst,
                         uint64_t exec_mask)
{
    const uint32_t *a = operandRow(warp, inst.src_a, exec_mask, 0);
    const uint32_t *b = operandRow(warp, inst.src_b, exec_mask, 1);
    if (inst.op == Op::SETP) {
        uint64_t r = 0;
        switch (inst.cmp_type) {
          case CmpType::I32:
            r = compareMask<int32_t>(inst.cmp, exec_mask, a, b);
            break;
          case CmpType::U32:
            r = compareMask<uint32_t>(inst.cmp, exec_mask, a, b);
            break;
          case CmpType::F32:
            r = compareMask<float>(inst.cmp, exec_mask, a, b);
            break;
        }
        // Lanes outside the exec mask keep their predicate bit.
        uint64_t &p = warp.preds[inst.aux];
        p = (p & ~exec_mask) | r;
        return;
    }
    if (!inst.writesReg())
        return;
    const uint32_t *c = operandRow(warp, inst.src_c, exec_mask, 2);
    uint32_t *d = regRow(warp, inst.dst.value);
    const uint64_t m = exec_mask;

    using u32 = uint32_t;
    switch (inst.op) {
      case Op::MOV:
        laneMap(m, d, a, b, c, [](u32 x, u32, u32) { return x; });
        break;
      case Op::IADD:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) { return x + y; });
        break;
      case Op::ISUB:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) { return x - y; });
        break;
      case Op::IMUL:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return static_cast<u32>(static_cast<uint64_t>(x) * y);
        });
        break;
      case Op::IMAD:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32 z) {
            return static_cast<u32>(static_cast<uint64_t>(x) * y + z);
        });
        break;
      case Op::ISHL:
        laneMap(m, d, a, b, c,
                [](u32 x, u32 y, u32) { return x << (y & 31); });
        break;
      case Op::ISHR:
        laneMap(m, d, a, b, c,
                [](u32 x, u32 y, u32) { return x >> (y & 31); });
        break;
      case Op::IAND:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) { return x & y; });
        break;
      case Op::IOR:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) { return x | y; });
        break;
      case Op::IXOR:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) { return x ^ y; });
        break;
      case Op::IMIN:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return static_cast<u32>(std::min(static_cast<int32_t>(x),
                                             static_cast<int32_t>(y)));
        });
        break;
      case Op::IMAX:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return static_cast<u32>(std::max(static_cast<int32_t>(x),
                                             static_cast<int32_t>(y)));
        });
        break;
      case Op::FADD:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return asBits(asFloat(x) + asFloat(y));
        });
        break;
      case Op::FSUB:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return asBits(asFloat(x) - asFloat(y));
        });
        break;
      case Op::FMUL:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return asBits(asFloat(x) * asFloat(y));
        });
        break;
      case Op::FFMA:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32 z) {
            return asBits(asFloat(x) * asFloat(y) + asFloat(z));
        });
        break;
      case Op::FMIN:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return asBits(std::min(asFloat(x), asFloat(y)));
        });
        break;
      case Op::FMAX:
        laneMap(m, d, a, b, c, [](u32 x, u32 y, u32) {
            return asBits(std::max(asFloat(x), asFloat(y)));
        });
        break;
      case Op::I2F:
        laneMap(m, d, a, b, c, [](u32 x, u32, u32) {
            return asBits(static_cast<float>(static_cast<int32_t>(x)));
        });
        break;
      case Op::F2I:
        laneMap(m, d, a, b, c, [](u32 x, u32, u32) {
            return static_cast<u32>(static_cast<int32_t>(asFloat(x)));
        });
        break;
      case Op::RCP:
        laneMapFloat(m, d, a, [](float x) { return 1.0f / x; });
        break;
      case Op::RSQRT:
        laneMapFloat(m, d, a, [](float x) { return 1.0f / std::sqrt(x); });
        break;
      case Op::SQRT:
        laneMapFloat(m, d, a, [](float x) { return std::sqrt(x); });
        break;
      case Op::SIN:
        laneMapFloat(m, d, a, [](float x) { return std::sin(x); });
        break;
      case Op::COS:
        laneMapFloat(m, d, a, [](float x) { return std::cos(x); });
        break;
      case Op::EX2:
        laneMapFloat(m, d, a, [](float x) { return std::exp2(x); });
        break;
      case Op::LG2:
        laneMapFloat(m, d, a, [](float x) { return std::log2(x); });
        break;
      case Op::SELP: {
        const uint64_t p = warp.preds[inst.aux];
        for (uint64_t k = m; k; k &= k - 1) {
            unsigned l = std::countr_zero(k);
            d[l] = (p >> l & 1) ? a[l] : b[l];
        }
        break;
      }
      default:
        GSP_PANIC("executeInstruction on unexpected opcode ",
                  opName(inst.op));
    }
}

uint32_t *
Core::regRow(const Warp &warp, unsigned reg)
{
    const size_t row =
        static_cast<size_t>(warp.warp_in_block) * _prog->regs_per_thread +
        reg;
    return _blocks[warp.block_slot].regs.data() +
           row * _cfg.core.warp_size;
}

const uint32_t *
Core::operandRow(const Warp &warp, const Operand &op, uint64_t exec_mask,
                 unsigned slot)
{
    uint32_t *row = _operand_rows[slot];
    switch (op.kind) {
      case OperandKind::None:
        return zero_row;
      case OperandKind::Reg:
        return regRow(warp, op.value);
      case OperandKind::Imm:
        std::fill_n(row, _cfg.core.warp_size, op.value);
        return row;
      case OperandKind::Special:
        break;
    }
    const Block &blk = _blocks[warp.block_slot];
    const Dim3 &ntid = _launch->block;
    const Dim3 &nctaid = _launch->grid;
    uint32_t uniform = 0;
    switch (static_cast<SpecialReg>(op.value)) {
      case SpecialReg::TidX:
        for (uint64_t m = exec_mask; m; m &= m - 1) {
            unsigned l = std::countr_zero(m);
            row[l] = (warp.base_thread + l) % ntid.x;
        }
        return row;
      case SpecialReg::TidY:
        for (uint64_t m = exec_mask; m; m &= m - 1) {
            unsigned l = std::countr_zero(m);
            row[l] = (warp.base_thread + l) / ntid.x;
        }
        return row;
      case SpecialReg::LaneId:
        // Warps start at multiples of warp_size: the lane is tid % it.
        for (unsigned l = 0; l < _cfg.core.warp_size; ++l)
            row[l] = l;
        return row;
      case SpecialReg::NTidX: uniform = ntid.x; break;
      case SpecialReg::NTidY: uniform = ntid.y; break;
      case SpecialReg::CtaIdX: uniform = blk.cta_x; break;
      case SpecialReg::CtaIdY: uniform = blk.cta_y; break;
      case SpecialReg::NCtaIdX: uniform = nctaid.x; break;
      case SpecialReg::NCtaIdY: uniform = nctaid.y; break;
      case SpecialReg::WarpId: uniform = warp.warp_in_block; break;
    }
    std::fill_n(row, _cfg.core.warp_size, uniform);
    return row;
}

unsigned
Core::rfAccessesPerOperand(uint64_t mask) const
{
    // A bank access reads a 128-bit row: four lanes' 32-bit operands.
    return std::max(1u, static_cast<unsigned>(divCeil(popCount(mask), 4)));
}

} // namespace perf
} // namespace gpusimpow
