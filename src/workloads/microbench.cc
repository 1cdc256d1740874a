#include "workloads/microbench.hh"

#include "common/logging.hh"
#include "workloads/wl_common.hh"

namespace gpusimpow {
namespace workloads {

namespace {

/** Emit the shared loop skeleton; body(b) emits the guarded body. */
template <typename BodyFn>
perf::KernelProgram
makeLoopKernel(const std::string &name, unsigned regs,
               unsigned iterations, unsigned enabled_lanes,
               uint32_t sink_addr, const BodyFn &body)
{
    KernelBuilder b(name, regs);
    // p0: lane participates in the measured body.
    b.mov(0, S(SpecialReg::LaneId));
    b.setp(0, Cmp::LT, CmpType::U32, R(0), I(enabled_lanes));
    // Seed from the global thread id (non-zero).
    emitGlobalTid(b, 1);
    b.iadd(1, R(1), I(1));
    b.mov(2, I(0));    // loop counter
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(1, Cmp::GE, CmpType::U32, R(2), I(iterations));
    b.braIf(1, false, done, done);
    body(b);
    b.iadd(2, R(2), I(1));
    b.jump(loop);
    b.bind(done);
    // Sink the result so the body is not trivially dead.
    emitGlobalTid(b, 3);
    b.imad(3, R(3), I(4), I(sink_addr));
    b.stg(R(3), R(1));
    b.exit();
    return b.finish();
}

} // namespace

perf::KernelProgram
makeIntMicrobench(unsigned iterations, unsigned enabled_lanes,
                  uint32_t sink_addr)
{
    GSP_ASSERT(enabled_lanes >= 1 && enabled_lanes <= 32,
               "enabled lanes out of range");
    return makeLoopKernel(
        "microInt", 8, iterations, enabled_lanes, sink_addr,
        [](KernelBuilder &b) {
            // Galois LFSR step, 5 INT ops, unrolled 8x; all body
            // instructions carry the lane guard p0.
            for (unsigned u = 0; u < 8; ++u) {
                b.pred(0).iand(4, R(1), I(1));
                b.pred(0).isub(5, I(0), R(4));
                b.pred(0).iand(5, R(5), I(0xB400));
                b.pred(0).ishr(1, R(1), I(1));
                b.pred(0).ixor(1, R(1), R(5));
            }
        });
}

perf::KernelProgram
makeFpMicrobench(unsigned iterations, unsigned enabled_lanes,
                 uint32_t sink_addr)
{
    GSP_ASSERT(enabled_lanes >= 1 && enabled_lanes <= 32,
               "enabled lanes out of range");
    KernelBuilder b("microFp", 12);
    b.mov(0, S(SpecialReg::LaneId));
    b.setp(0, Cmp::LT, CmpType::U32, R(0), I(enabled_lanes));
    emitGlobalTid(b, 1);
    // c = (cr, ci) derived from the thread id; z starts at c.
    b.i2f(4, R(1));
    b.fmul(4, R(4), F(1e-4f));
    b.fsub(4, R(4), F(0.7f));      // cr
    b.mov(5, F(0.27015f));         // ci
    b.mov(6, R(4));                // zr
    b.mov(7, R(5));                // zi
    b.mov(2, I(0));
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(1, Cmp::GE, CmpType::U32, R(2), I(iterations));
    b.braIf(1, false, done, done);
    for (unsigned u = 0; u < 8; ++u) {
        // z = z^2 + c: 6 FP ops per Mandelbrot step.
        b.pred(0).fmul(8, R(6), R(6));     // zr*zr
        b.pred(0).fmul(9, R(7), R(7));     // zi*zi
        b.pred(0).fmul(10, R(6), R(7));    // zr*zi
        b.pred(0).fsub(8, R(8), R(9));
        b.pred(0).fadd(6, R(8), R(4));     // zr'
        b.pred(0).ffma(7, R(10), F(2.0f), R(5)); // zi'
    }
    b.iadd(2, R(2), I(1));
    b.jump(loop);
    b.bind(done);
    emitGlobalTid(b, 3);
    b.imad(3, R(3), I(4), I(sink_addr));
    b.stg(R(3), R(6));
    b.exit();
    return b.finish();
}

perf::KernelProgram
makeOccupancyKernel(unsigned iterations, uint32_t sink_addr)
{
    return makeLoopKernel(
        "occupancy", 8, iterations, 32, sink_addr,
        [](KernelBuilder &b) {
            for (unsigned u = 0; u < 8; ++u) {
                b.pred(0).iand(4, R(1), I(1));
                b.pred(0).isub(5, I(0), R(4));
                b.pred(0).iand(5, R(5), I(0xB400));
                b.pred(0).ishr(1, R(1), I(1));
                b.pred(0).ixor(1, R(1), R(5));
            }
        });
}

perf::KernelProgram
makeLatencyBoundKernel(unsigned iterations, uint32_t buf_addr)
{
    KernelBuilder b("latencyBound", 4);
    emitGlobalTid(b, 0);
    b.imad(0, R(0), I(4), I(buf_addr));
    b.mov(1, I(0));    // loop counter
    auto loop = b.newLabel();
    auto done = b.newLabel();
    b.bind(loop);
    b.setp(0, Cmp::GE, CmpType::U32, R(1), I(iterations));
    b.braIf(0, false, done, done);
    b.ldg(2, R(0));
    b.iadd(0, R(0), R(2));
    b.iadd(0, R(0), I(4096));
    b.iadd(1, R(1), I(1));
    b.jump(loop);
    b.bind(done);
    b.stg(R(0), R(1));
    b.exit();
    return b.finish();
}

} // namespace workloads
} // namespace gpusimpow
