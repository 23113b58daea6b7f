// Authors a warp kernel in the simulator's textual ISA (the role inline
// PTX plays in the paper's real implementation), assembles it, runs it on
// the simulated SM, and inspects the result — showing how to experiment
// with hand-written instruction streams.
#include <iostream>

#include "common/cli.h"
#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "common/table.h"
#include "sim/assembler.h"
#include "sim/disasm.h"
#include "sim/functional.h"
#include "sim/launcher.h"
#include "swar/pack.h"

namespace {

int run(int, char**) {
  using namespace vitbit;

  // A hand-written packed-MAC inner loop: load a packed operand, run four
  // packed IMADs per fragment (each doing 2 MACs at INT8), spill lanes with
  // a funnel shift, and store — one "iteration" of a VitBit INT warp.
  const char* source = R"(
    # stage a fragment from global memory (128B, mostly L2-resident)
    LDG.128 r0 (dram 16B)
    STS.128 r0
    BAR
    LDS.64 r1
    # packed multiply-accumulate: 2 MACs per IMAD
    IMAD r2, r1, r1, r2
    IMAD r3, r1, r1, r3
    IMAD r4, r1, r1, r4
    IMAD r5, r1, r1, r5
    # lane spill: extract the two partial sums (Fig. 3b fields)
    SHF r6, r2
    IADD r7, r6, r7
    SHF r6, r3
    IADD r8, r6, r8
    # write back
    STG.64 r7
    STG.64 r8
    EXIT
  )";

  const auto program = sim::assemble(source);
  std::cout << "Assembled " << program->size() << " instructions, "
            << program->num_regs << " registers:\n\n"
            << sim::disassemble(*program) << "\n";

  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  sim::KernelSpec kernel;
  for (int w = 0; w < 4; ++w) kernel.block_warps.push_back(program);
  kernel.grid_blocks = spec.num_sms * 4;
  const auto r = sim::launch_kernel(kernel, spec, calib);

  Table t("Execution on the simulated Orin SM");
  t.header({"metric", "value"});
  t.row().cell("total cycles").cell(r.total_cycles);
  t.row().cell("IMADs issued (per SM)").cell(r.sm.issued(sim::Opcode::kImad));
  t.row().cell("INT-pipe utilization").cell(
      r.sm.utilization(sim::ExecUnit::kIntPipe, spec.subcores_per_sm), 3);
  t.row().cell("LSU utilization").cell(
      r.sm.utilization(sim::ExecUnit::kLsu, 1), 3);
  t.row().cell("IPC").cell(r.sm.ipc(), 3);
  t.print(std::cout);

  std::cout << "\nEach IMAD above performs two INT8 MACs (packed per Fig. 3b)"
               ";\nthe SHF+IADD pairs are the lane spills the exactness"
               " analysis\nrequires (see DESIGN.md section 3).\n";

  // ---- And run packed arithmetic for real on the functional interpreter.
  const auto layout = swar::paper_policy_layout(8, swar::LaneMode::kUnsigned);
  sim::ProgramBuilder pb;
  const auto acc = pb.new_reg();
  const auto scal = pb.new_reg();
  const auto packed = pb.new_reg();
  pb.ldg(packed, 4, UINT32_MAX, /*operand=*/0, 0);  // packed pair {11, 23}
  pb.ldg(scal, 4, UINT32_MAX, /*operand=*/1, 0);    // scalar 7
  pb.imad(acc, scal, packed, acc);                  // 2 MACs in one IMAD
  const auto lo = pb.new_reg();
  const auto hi = pb.new_reg();
  sim::emit_and_imm(pb, lo, acc, 0xFFFF);
  sim::emit_shf_imm(pb, hi, acc, 16);
  pb.exit();
  std::vector<std::uint8_t> mem(16, 0);
  const std::uint32_t word =
      swar::pack_lanes(std::array<std::int32_t, 2>{11, 23}, layout);
  for (int i = 0; i < 4; ++i)
    mem[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(word >> (8 * i));
  mem[4] = 7;
  sim::FunctionalWarp fw(pb.build(), mem, {0, 4, 0, 0});
  fw.run();
  std::cout << "\nFunctional run: one IMAD computed 7*11 = " << fw.reg(lo)
            << " and 7*23 = " << fw.reg(hi) << " simultaneously.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return vitbit::guarded_main(argc, argv, run);
}
