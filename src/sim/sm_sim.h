// Cycle-level simulator of one Streaming Multiprocessor:
//  * 4 sub-cores ("processing blocks"), each with one warp scheduler that
//    issues at most one instruction per cycle (loose round-robin), a 16-lane
//    INT32 pipe, a 16-lane FP32 pipe, an SFU, and a tensor core — the
//    Ampere organization of Figure 1 that lets INT, FP, and tensor units
//    run concurrently, which VitBit exploits;
//  * a register scoreboard per warp (in-order issue, latency-checked reads);
//  * an SM-wide LSU with byte-throughput occupancy and a DRAM model with
//    fixed latency plus a per-SM bandwidth share (the mechanism that makes
//    tensor-core GEMM memory-bound at the paper's ratios);
//  * thread-block barriers.
//
// Hot-state layout (the inner loop under every figure bench, the tuner,
// and the serving tiers' memoized latency tables):
//  * per-sub-core `issuable` bitsets (common/bitset64.h) mask out done and
//    at-barrier warps, so the round-robin scan is a find-first-set over
//    one or two words instead of a walk over every resident warp;
//  * done / at-barrier flags live in SM-wide bitsets instead of scattered
//    per-warp bools;
//  * the scoreboard is tracked incrementally: a per-warp pending-writeback
//    mask bounds the dependence check to registers with outstanding
//    writes, and a per-warp running max over scheduled writebacks answers
//    the EXIT drain ("wait for every outstanding write") in O(1) instead
//    of the historical O(num_regs) scan over reg_ready;
//  * a dependence-stalled warp is parked out of the candidate mask until
//    its (fixed) wake cycle, so the issue scan fails each stall once
//    instead of once per cycle until the writeback lands;
//  * the DRAM-channel virtual clock is a Q32.32 integer accumulator — the
//    integer virtual-time core holds no floating-point state that could
//    drift across compilers.
//
// SmSimRef (sim/sm_sim_ref.h) preserves the previous layout verbatim;
// tests/sim_packed_test.cpp proves both produce byte-identical SmStats,
// and the check_regression `sim_loop` gate keeps the packed layout's host
// speedup above a committed floor.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "common/bitset64.h"
#include "common/int_math.h"
#include "sim/program.h"
#include "sim/stats.h"

namespace vitbit::sim {

// The sub-core warp `warp` of the SM's `block`-th resident block lives on.
// Blocks are staggered so co-resident blocks with heterogeneous warp roles
// spread each role over all sub-cores.
inline std::size_t home_subcore(std::size_t warp, int block,
                                std::size_t subcores) {
  return (warp + static_cast<std::size_t>(block)) % subcores;
}

// Cycles `in` holds its unit's dispatch port (`info` = op_info(in.op)): the
// ISA table's issue cycles, except that the tensor-core MMAs (IMMA, HMMA)
// hold the core for the calibrated sustained dense-MMA rate (a calibration
// parameter, not an ISA property) and the memory ops (LDG, STG, LDS, STS)
// stream their bytes through the LSU.
inline std::uint32_t issue_occupancy(const Instr& in, const OpInfo& info,
                                     const arch::Calibration& calib) {
  if (info.unit == ExecUnit::kTensor)
    return static_cast<std::uint32_t>(calib.imma_occupancy_cycles);
  if (info.unit == ExecUnit::kLsu) {
    const auto rate = static_cast<std::uint32_t>(calib.lsu_bytes_per_cycle);
    return std::max<std::uint32_t>(1, ceil_div(in.bytes, rate));
  }
  return info.issue_cycles;
}

// Pluggable global-memory service for addressed accesses: given a physical
// address, transfer size and current cycle, returns the completion cycle.
// Implemented by GpuSim (shared L2 + DRAM); when absent, SmSim falls back
// to its private bandwidth-share model using Instr::dram_bytes.
class GlobalMemory {
 public:
  virtual ~GlobalMemory() = default;
  virtual std::uint64_t access(std::uint64_t addr, std::uint32_t bytes,
                               std::uint64_t now, bool is_store) = 0;
};

// The per-SM DRAM channel's virtual clock runs in Q32.32 fixed-point
// cycles: 32 fractional bits resolve one byte's transfer time (~0.09
// cycles at the Orin share) to ~2e-11 cycles, and the integer part holds
// the full 4e8-cycle deadlock guard without overflow. The only floating
// point is one construction-time conversion of the spec's bytes-per-cycle
// rate; all per-access arithmetic is integer.
inline constexpr int kDramFracBits = 32;

inline std::uint64_t dram_q32_per_byte(const arch::OrinSpec& spec) {
  return static_cast<std::uint64_t>(
      std::llround(std::ldexp(1.0 / spec.dram_bytes_per_cycle_per_sm(),
                              kDramFracBits)));
}

// Smallest whole cycle >= the Q32.32 virtual time.
inline std::uint64_t dram_ceil_cycles(std::uint64_t q32) {
  return (q32 + ((std::uint64_t{1} << kDramFracBits) - 1)) >> kDramFracBits;
}

class SmSim {
 public:
  SmSim(const arch::OrinSpec& spec, const arch::Calibration& calib,
        GlobalMemory* gmem = nullptr);

  // Adds one resident thread block (its warps are distributed round-robin
  // over sub-cores). Addressed mode only: `operand_bases` maps
  // Instr::operand indices to the block's physical base addresses, and
  // `warp_offsets` (empty, or one entry per warp) adds each warp's own
  // operand offsets on top. Throws if the SM's warp limit would be
  // exceeded.
  void add_block(const std::vector<ProgramPtr>& warps,
                 const std::array<std::uint64_t, 4>& operand_bases = {},
                 const std::vector<OperandOffsets>& warp_offsets = {});

  int resident_warps() const { return static_cast<int>(warps_.size()); }
  bool done() const { return done_warps_ >= static_cast<int>(warps_.size()); }

  // Returns the SM to its just-constructed state while keeping the warp /
  // subcore vectors' capacity, so multi-round drivers (GpuSim::run) can
  // reuse one instance per SM slot instead of reallocating every round.
  void reset();

  // Lockstep interface for multi-SM simulation: attempts one issue per
  // sub-core at `cycle`; returns true if anything issued and lowers
  // `next_wake` to the earliest cycle a blocked candidate could go.
  bool step(std::uint64_t cycle, std::uint64_t& next_wake);

  // Finalizes and returns statistics after stepping to completion.
  SmStats finish(std::uint64_t cycles);

  // Runs until every warp has exited; returns the statistics. Throws if
  // max_cycles is exceeded (deadlock guard).
  SmStats run(std::uint64_t max_cycles = 400'000'000);

 private:
  struct WarpState {
    ProgramPtr prog;
    std::uint32_t pc = 0;
    // reg_ready[r]: cycle the last scheduled write of register r lands.
    // In-order WAW gating makes each entry monotone over the run.
    std::vector<std::uint64_t> reg_ready;
    // Running max over every scheduled writeback. Because entries are
    // monotone, this equals max(reg_ready) at all times — the O(1)
    // answer to the EXIT drain that used to scan the whole scoreboard.
    std::uint64_t max_reg_ready = 0;
    // Bit r set while register r may still have an outstanding write
    // (reg_ready[r] > the last cycle the bit was examined). Cleared
    // lazily on the next dependence check that observes the write has
    // landed; a clear bit guarantees reg_ready[r] <= current cycle, so
    // the scoreboard read is skipped entirely.
    Bitset64 pending;
    int block = 0;
    // Home sub-core and slot within it, so block-wide barrier release
    // can restore this warp's issuable bit without a search.
    std::uint32_t subcore = 0;
    std::uint32_t slot = 0;
  };
  struct Subcore {
    std::vector<int> warp_ids;
    // Slot-indexed scheduler candidate mask: bit set iff the warp is
    // neither done, waiting at a barrier, nor parked on a dependence
    // stall. The round-robin scan iterates set bits only.
    Bitset64 issuable;
    // Dependence stalls, memoized per slot. Registers are private to a
    // warp and reg_ready entries never change after the write is
    // scheduled, so a failed dependence check's dep_ready is fixed until
    // it passes: wake_at[slot] records it, and the scan skips the slot —
    // without touching the warp's state at all — while cycle < wake_at.
    // Long stalls additionally park the warp out of `issuable` into
    // `sleeping` (min_wake caches the earliest parked wake), so a scan
    // with no due sleeper never even visits those slots.
    Bitset64 sleeping;
    std::vector<std::uint64_t> wake_at;
    std::uint64_t min_wake = UINT64_MAX;
    std::size_t rr_cursor = 0;
    std::uint64_t int_busy_until = 0;
    std::uint64_t fp_busy_until = 0;
    std::uint64_t sfu_busy_until = 0;
    std::uint64_t tc_busy_until = 0;
  };
  struct Block {
    int num_warps = 0;
    int arrived = 0;
    // Warps of one block occupy contiguous ids [first_warp,
    // first_warp + num_warps): barrier release walks exactly them.
    int first_warp = 0;
  };

  // Attempts to issue the warp in `sc`'s slot `idx` at `cycle`; returns
  // true if it issued. Updates `next_wake` with the earliest cycle a
  // blocked candidate could become issuable.
  bool issue_slot(Subcore& sc, std::size_t idx, std::uint64_t cycle,
                  std::uint64_t& next_wake);
  // Round-robin over `sc.issuable` starting at rr_cursor.
  bool try_issue(Subcore& sc, std::uint64_t cycle, std::uint64_t& next_wake);

  const arch::OrinSpec spec_;
  const arch::Calibration calib_;
  GlobalMemory* gmem_ = nullptr;
  std::vector<WarpState> warps_;
  std::vector<Subcore> subcores_;
  std::vector<Block> blocks_;
  // Warp-id-indexed physical operand bases (block base + warp offset),
  // read only by addressed accesses.
  std::vector<std::array<std::uint64_t, kNumOperands>> warp_bases_;
  // Warp-id-indexed packed flags (the former per-warp bools).
  Bitset64 at_barrier_;
  Bitset64 done_;
  std::uint64_t lsu_busy_until_ = 0;
  // Next Q32.32 cycle the DRAM channel is free (per-SM share).
  std::uint64_t dram_free_q32_ = 0;
  std::uint64_t dram_q32_per_byte_ = 0;
  int done_warps_ = 0;
  SmStats stats_;
};

}  // namespace vitbit::sim
