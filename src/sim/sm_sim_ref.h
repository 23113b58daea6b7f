// Reference SM simulator: the pre-bit-packing scoreboard implementation,
// frozen verbatim.
//
// SmSim (sim/sm_sim.h) packs its hot state into word-aligned bitsets and
// tracks scoreboard readiness incrementally; this class keeps the original
// layout — scattered per-warp bools, a full O(num_regs) reg_ready scan on
// every EXIT drain attempt, and a linear round-robin walk over every
// resident warp including finished ones. It exists for two reasons:
//
//  * Oracle: the packed simulator must produce byte-identical SmStats on
//    every workload (tests/sim_packed_test.cpp runs both and compares).
//  * Perf gate: bench/sim_loop and the check_regression `sim_loop` gate
//    time SmSim against SmSimRef on fixed workloads, so the packed
//    rewrite's host speedup is regression-protected, not anecdotal.
//
// The one deliberate deviation from the historical code: the DRAM-channel
// virtual clock is the same Q32.32 integer accumulator as SmSim (the
// `double dram_free_` state was retired so the integer virtual-time core
// holds no FP state). Both simulators therefore model the identical
// channel, and the timed difference isolates the scoreboard/flag layout.
#pragma once

#include <array>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "sim/program.h"
#include "sim/sm_sim.h"
#include "sim/stats.h"

namespace vitbit::sim {

class SmSimRef {
 public:
  SmSimRef(const arch::OrinSpec& spec, const arch::Calibration& calib,
           GlobalMemory* gmem = nullptr);

  void add_block(const std::vector<ProgramPtr>& warps,
                 const std::array<std::uint64_t, 4>& operand_bases = {},
                 const std::vector<OperandOffsets>& warp_offsets = {});

  int resident_warps() const { return static_cast<int>(warps_.size()); }
  bool done() const { return done_warps_ >= static_cast<int>(warps_.size()); }

  void reset();
  bool step(std::uint64_t cycle, std::uint64_t& next_wake);
  SmStats finish(std::uint64_t cycles);
  SmStats run(std::uint64_t max_cycles = 400'000'000);

 private:
  struct WarpState {
    ProgramPtr prog;
    std::uint32_t pc = 0;
    std::vector<std::uint64_t> reg_ready;
    bool at_barrier = false;
    bool done = false;
    int block = 0;
  };
  struct Subcore {
    std::vector<int> warp_ids;
    std::size_t rr_cursor = 0;
    std::uint64_t int_busy_until = 0;
    std::uint64_t fp_busy_until = 0;
    std::uint64_t sfu_busy_until = 0;
    std::uint64_t tc_busy_until = 0;
  };
  struct Block {
    int num_warps = 0;
    int arrived = 0;
  };

  bool try_issue(Subcore& sc, std::uint64_t cycle, std::uint64_t& next_wake);

  const arch::OrinSpec spec_;
  const arch::Calibration calib_;
  GlobalMemory* gmem_ = nullptr;
  std::vector<WarpState> warps_;
  std::vector<Subcore> subcores_;
  std::vector<Block> blocks_;
  // Warp-id-indexed physical operand bases (block base + warp offset).
  std::vector<std::array<std::uint64_t, kNumOperands>> warp_bases_;
  std::uint64_t lsu_busy_until_ = 0;
  // Next Q32.32 cycle the DRAM channel is free (see sim/sm_sim.h).
  std::uint64_t dram_free_q32_ = 0;
  std::uint64_t dram_q32_per_byte_ = 0;
  int done_warps_ = 0;
  SmStats stats_;
};

}  // namespace vitbit::sim
