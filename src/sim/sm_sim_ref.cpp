// Frozen pre-packing issue loop — see sm_sim_ref.h for why this exists.
// Apart from the shared Q32.32 DRAM clock, any behavioural edit here
// invalidates the sim_loop gate's "before" measurement; don't optimize it.
#include "sim/sm_sim_ref.h"

#include <algorithm>

#include "common/check.h"
#include "common/int_math.h"

namespace vitbit::sim {

SmSimRef::SmSimRef(const arch::OrinSpec& spec, const arch::Calibration& calib,
                   GlobalMemory* gmem)
    : spec_(spec), calib_(calib), gmem_(gmem) {
  subcores_.resize(static_cast<std::size_t>(spec.subcores_per_sm));
  dram_q32_per_byte_ = dram_q32_per_byte(spec);
}

void SmSimRef::reset() {
  for (auto& sc : subcores_) {
    sc.warp_ids.clear();
    sc.rr_cursor = 0;
    sc.int_busy_until = 0;
    sc.fp_busy_until = 0;
    sc.sfu_busy_until = 0;
    sc.tc_busy_until = 0;
  }
  warps_.clear();
  blocks_.clear();
  warp_bases_.clear();
  lsu_busy_until_ = 0;
  dram_free_q32_ = 0;
  done_warps_ = 0;
  stats_ = SmStats{};
}

void SmSimRef::add_block(const std::vector<ProgramPtr>& block_warps,
                         const std::array<std::uint64_t, 4>& operand_bases,
                         const std::vector<OperandOffsets>& warp_offsets) {
  VITBIT_CHECK(!block_warps.empty());
  VITBIT_CHECK(warp_offsets.empty() ||
               warp_offsets.size() == block_warps.size());
  VITBIT_CHECK_MSG(
      resident_warps() + static_cast<int>(block_warps.size()) <=
          spec_.max_warps_per_sm,
      "SM warp limit exceeded: " << resident_warps() << " + "
                                 << block_warps.size());
  const int block_id = static_cast<int>(blocks_.size());
  blocks_.push_back({static_cast<int>(block_warps.size()), 0});
  for (std::size_t i = 0; i < block_warps.size(); ++i) {
    VITBIT_CHECK(block_warps[i] != nullptr);
    auto& bases = warp_bases_.emplace_back(operand_bases);
    if (!warp_offsets.empty())
      for (std::size_t o = 0; o < kNumOperands; ++o)
        bases[o] += warp_offsets[i][o];
    WarpState w;
    w.prog = block_warps[i];
    w.reg_ready.assign(block_warps[i]->num_regs, 0);
    w.block = block_id;
    const int wid = static_cast<int>(warps_.size());
    warps_.push_back(std::move(w));
    // Stagger blocks across sub-cores so co-resident blocks with
    // heterogeneous warp roles spread each role over all sub-cores.
    const std::size_t sc =
        (i + static_cast<std::size_t>(block_id)) % subcores_.size();
    subcores_[sc].warp_ids.push_back(wid);
  }
}

bool SmSimRef::try_issue(Subcore& sc, std::uint64_t cycle,
                         std::uint64_t& next_wake) {
  const std::size_t n = sc.warp_ids.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = (sc.rr_cursor + step) % n;
    WarpState& w = warps_[static_cast<std::size_t>(sc.warp_ids[idx])];
    if (w.done || w.at_barrier) continue;
    const Instr& in = w.prog->code[w.pc];
    const OpInfo& info = op_info(in.op);

    // Scoreboard: all sources (and the destination, for in-order WAW) ready.
    // EXIT drains the warp: it waits for every outstanding write (kernel
    // completion waits for in-flight memory).
    std::uint64_t dep_ready = 0;
    if (in.op == Opcode::kExit) {
      for (const auto r : w.reg_ready) dep_ready = std::max(dep_ready, r);
    } else {
      for (const auto s : in.src)
        if (s != kNoReg) dep_ready = std::max(dep_ready, w.reg_ready[s]);
      if (in.dst != kNoReg)
        dep_ready = std::max(dep_ready, w.reg_ready[in.dst]);
    }
    if (dep_ready > cycle) {
      next_wake = std::min(next_wake, dep_ready);
      continue;
    }

    // Structural hazard: target unit's dispatch port.
    std::uint64_t* busy_until = nullptr;
    switch (info.unit) {
      case ExecUnit::kIntPipe: busy_until = &sc.int_busy_until; break;
      case ExecUnit::kFpPipe: busy_until = &sc.fp_busy_until; break;
      case ExecUnit::kSfu: busy_until = &sc.sfu_busy_until; break;
      case ExecUnit::kTensor: busy_until = &sc.tc_busy_until; break;
      case ExecUnit::kLsu: busy_until = &lsu_busy_until_; break;
      case ExecUnit::kBranch:
      case ExecUnit::kNone: break;
    }
    if (busy_until && *busy_until > cycle) {
      next_wake = std::min(next_wake, *busy_until);
      continue;
    }

    // ---- Issue ----
    std::uint32_t occupancy = info.issue_cycles;
    std::uint64_t result_ready = cycle + info.latency;
    switch (in.op) {
      case Opcode::kImma:
      case Opcode::kHmma: {
        // Tensor-core occupancy is a calibration parameter (sustained
        // dense-MMA rate), not a fixed ISA property.
        occupancy =
            static_cast<std::uint32_t>(calib_.imma_occupancy_cycles);
        result_ready = cycle + occupancy + 8;
        break;
      }
      case Opcode::kLds:
      case Opcode::kSts: {
        occupancy = std::max<std::uint32_t>(
            1, ceil_div<std::uint32_t>(in.bytes,
                                       static_cast<std::uint32_t>(
                                           calib_.lsu_bytes_per_cycle)));
        result_ready = cycle + calib_.smem_latency_cycles;
        break;
      }
      case Opcode::kLdg:
      case Opcode::kStg: {
        occupancy = std::max<std::uint32_t>(
            1, ceil_div<std::uint32_t>(in.bytes,
                                       static_cast<std::uint32_t>(
                                           calib_.lsu_bytes_per_cycle)));
        if (gmem_ && in.operand != kNoOperand) {
          // Addressed mode: the shared memory system (L2 + DRAM) decides.
          const std::uint64_t addr =
              warp_bases_[static_cast<std::size_t>(sc.warp_ids[idx])]
                         [in.operand] +
              in.offset;
          result_ready =
              gmem_->access(addr, in.bytes, cycle, in.op == Opcode::kStg);
        } else {
          // Default model: per-SM bandwidth share with fixed base latency.
          // The channel is a single queue: transfers serialize at the
          // bandwidth rate (Q32.32 integer virtual time).
          const std::uint64_t start =
              std::max(cycle << kDramFracBits, dram_free_q32_);
          dram_free_q32_ = start + in.dram_bytes * dram_q32_per_byte_;
          result_ready =
              std::max<std::uint64_t>(cycle + calib_.dram_latency_cycles,
                                      dram_ceil_cycles(dram_free_q32_));
          stats_.dram_bytes += in.dram_bytes;
        }
        break;
      }
      case Opcode::kBar: {
        Block& b = blocks_[static_cast<std::size_t>(w.block)];
        w.at_barrier = true;
        if (++b.arrived == b.num_warps) {
          for (auto& other : warps_)
            if (other.block == w.block) other.at_barrier = false;
          b.arrived = 0;
        }
        break;
      }
      case Opcode::kExit: {
        w.done = true;
        ++done_warps_;
        break;
      }
      default:
        break;
    }
    if (busy_until) {
      *busy_until = cycle + occupancy;
      stats_.unit_busy_cycles[static_cast<std::size_t>(info.unit)] += occupancy;
    }
    if (in.dst != kNoReg) w.reg_ready[in.dst] = result_ready;
    ++w.pc;
    ++stats_.instructions_issued;
    ++stats_.issued_by_opcode[static_cast<std::size_t>(in.op)];
    // Greedy-then-oldest keeps issuing from the same warp until it stalls;
    // loose round-robin rotates every cycle.
    sc.rr_cursor = calib_.greedy_scheduler ? idx : (idx + 1) % n;
    return true;
  }
  return false;
}

bool SmSimRef::step(std::uint64_t cycle, std::uint64_t& next_wake) {
  bool issued_any = false;
  for (auto& sc : subcores_) {
    if (!sc.warp_ids.empty() && try_issue(sc, cycle, next_wake))
      issued_any = true;
  }
  return issued_any;
}

SmStats SmSimRef::finish(std::uint64_t cycles) {
  stats_.cycles = cycles;
  return stats_;
}

SmStats SmSimRef::run(std::uint64_t max_cycles) {
  VITBIT_CHECK_MSG(!warps_.empty(), "no blocks added to the SM");
  stats_ = SmStats{};
  std::uint64_t cycle = 0;
  const int total = static_cast<int>(warps_.size());
  while (done_warps_ < total) {
    VITBIT_CHECK_MSG(cycle < max_cycles, "SM simulation exceeded "
                                             << max_cycles
                                             << " cycles (deadlock?)");
    std::uint64_t next_wake = UINT64_MAX;
    const bool issued_any = step(cycle, next_wake);
    if (issued_any || done_warps_ >= total) {
      ++cycle;
    } else {
      VITBIT_CHECK_MSG(next_wake != UINT64_MAX,
                       "deadlock: no warp can ever issue (barrier mismatch?)");
      cycle = std::max(cycle + 1, next_wake);
    }
  }
  return finish(cycle);
}

}  // namespace vitbit::sim
