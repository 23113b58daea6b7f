#include "sim/sm_sim.h"

#include <algorithm>

#include "common/check.h"

namespace vitbit::sim {

namespace {
// Minimum dependence-stall length (cycles) worth parking a warp for.
// Below it the park/wake bookkeeping exceeds the saved re-checks; above
// it (smem / DRAM / tensor latencies) parking wins. Purely a host-side
// heuristic: any value produces identical simulation results.
constexpr std::uint64_t kParkThresholdCycles = 48;
}  // namespace

SmStats& SmStats::operator+=(const SmStats& other) {
  cycles += other.cycles;
  instructions_issued += other.instructions_issued;
  dram_bytes += other.dram_bytes;
  for (std::size_t i = 0; i < issued_by_opcode.size(); ++i)
    issued_by_opcode[i] += other.issued_by_opcode[i];
  for (std::size_t i = 0; i < unit_busy_cycles.size(); ++i)
    unit_busy_cycles[i] += other.unit_busy_cycles[i];
  return *this;
}

SmSim::SmSim(const arch::OrinSpec& spec, const arch::Calibration& calib,
             GlobalMemory* gmem)
    : spec_(spec), calib_(calib), gmem_(gmem) {
  subcores_.resize(static_cast<std::size_t>(spec.subcores_per_sm));
  dram_q32_per_byte_ = dram_q32_per_byte(spec);
}

void SmSim::reset() {
  for (auto& sc : subcores_) {
    sc.warp_ids.clear();
    sc.issuable.clear();
    sc.sleeping.clear();
    sc.wake_at.clear();
    sc.min_wake = UINT64_MAX;
    sc.rr_cursor = 0;
    sc.int_busy_until = 0;
    sc.fp_busy_until = 0;
    sc.sfu_busy_until = 0;
    sc.tc_busy_until = 0;
  }
  warps_.clear();
  blocks_.clear();
  warp_bases_.clear();
  at_barrier_.clear();
  done_.clear();
  lsu_busy_until_ = 0;
  dram_free_q32_ = 0;
  done_warps_ = 0;
  stats_ = SmStats{};
}

void SmSim::add_block(const std::vector<ProgramPtr>& block_warps,
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
  const int first_warp = static_cast<int>(warps_.size());
  blocks_.push_back({static_cast<int>(block_warps.size()), 0, first_warp});
  for (std::size_t i = 0; i < block_warps.size(); ++i) {
    VITBIT_CHECK(block_warps[i] != nullptr);
    auto& bases = warp_bases_.emplace_back(operand_bases);
    if (!warp_offsets.empty())
      for (std::size_t o = 0; o < kNumOperands; ++o)
        bases[o] += warp_offsets[i][o];
    WarpState w;
    w.prog = block_warps[i];
    w.reg_ready.assign(block_warps[i]->num_regs, 0);
    w.pending.resize(block_warps[i]->num_regs);
    w.block = block_id;
    const std::size_t sc_id = home_subcore(i, block_id, subcores_.size());
    Subcore& sc = subcores_[sc_id];
    w.subcore = static_cast<std::uint32_t>(sc_id);
    w.slot = static_cast<std::uint32_t>(sc.warp_ids.size());
    const int wid = static_cast<int>(warps_.size());
    warps_.push_back(std::move(w));
    sc.warp_ids.push_back(wid);
    sc.issuable.push_back(true);
    sc.sleeping.push_back(false);
    sc.wake_at.push_back(0);
    at_barrier_.push_back(false);
    done_.push_back(false);
  }
}

// Forced inline: this is the body of try_issue's scan loop (it only grew
// into a named function for the two rotation ranges), and an out-of-line
// call per visited slot costs more than the visit itself.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline bool
SmSim::issue_slot(Subcore& sc, std::size_t idx, std::uint64_t cycle,
                  std::uint64_t& next_wake) {
  WarpState& w = warps_[static_cast<std::size_t>(sc.warp_ids[idx])];
  const Instr& in = w.prog->code[w.pc];
  const OpInfo& info = op_info(in.op);

  // Scoreboard: all sources (and the destination, for in-order WAW) ready.
  // EXIT drains the warp: it waits for every outstanding write (kernel
  // completion waits for in-flight memory). In-order WAW gating keeps every
  // reg_ready entry monotone over the run, so the running max answers the
  // drain in O(1) and short-circuits the whole check once every write has
  // landed; otherwise a clear pending bit proves the register's last write
  // already landed — only pending registers touch the scoreboard array.
  std::uint64_t dep_ready = 0;
  if (in.op == Opcode::kExit) {
    dep_ready = w.max_reg_ready;
  } else if (w.max_reg_ready > cycle) {
    for (const auto s : in.src) {
      if (s != kNoReg && w.pending.test(s)) {
        const std::uint64_t r = w.reg_ready[s];
        if (r <= cycle) {
          w.pending.reset(s);
        } else {
          dep_ready = std::max(dep_ready, r);
        }
      }
    }
    if (in.dst != kNoReg && w.pending.test(in.dst)) {
      const std::uint64_t r = w.reg_ready[in.dst];
      if (r <= cycle) {
        w.pending.reset(in.dst);
      } else {
        dep_ready = std::max(dep_ready, r);
      }
    }
  }
  if (dep_ready > cycle) {
    // Registers are warp-private and reg_ready entries are fixed once the
    // write is scheduled, so dep_ready cannot change before it passes:
    // park the warp instead of re-failing this check every cycle. Parking
    // is behaviour-neutral (the warp could not have issued anyway), so
    // short ALU-latency stalls — where the park/wake bookkeeping costs
    // more than the one or two cheap re-checks it saves — skip it.
    sc.wake_at[idx] = dep_ready;
    if (dep_ready > cycle + kParkThresholdCycles) {
      sc.issuable.reset(idx);
      sc.sleeping.set(idx);
      sc.min_wake = std::min(sc.min_wake, dep_ready);
    }
    next_wake = std::min(next_wake, dep_ready);
    return false;
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
    // Structural stalls memoize too: later issues can only extend the
    // port's busy window, so this warp cannot issue before the value read
    // here — skipping it until then never changes the issue order.
    sc.wake_at[idx] = *busy_until;
    next_wake = std::min(next_wake, *busy_until);
    return false;
  }

  // ---- Issue ----
  const std::uint32_t occupancy = issue_occupancy(in, info, calib_);
  std::uint64_t result_ready = cycle + info.latency;
  switch (in.op) {
    case Opcode::kImma:
    case Opcode::kHmma: {
      result_ready = cycle + occupancy + 8;
      break;
    }
    case Opcode::kLds:
    case Opcode::kSts: {
      result_ready = cycle + calib_.smem_latency_cycles;
      break;
    }
    case Opcode::kLdg:
    case Opcode::kStg: {
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
        // bandwidth rate (Q32.32 integer virtual time). L2-resident bytes
        // (dram_bytes < bytes, static derates) are not charged.
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
      const std::size_t wid = static_cast<std::size_t>(sc.warp_ids[idx]);
      at_barrier_.set(wid);
      sc.issuable.reset(idx);
      if (++b.arrived == b.num_warps) {
        // The block's warps occupy contiguous ids; release exactly them.
        // A done warp never re-enters its sub-core's candidate mask.
        const std::size_t lo = static_cast<std::size_t>(b.first_warp);
        const std::size_t hi = lo + static_cast<std::size_t>(b.num_warps);
        for (std::size_t other = lo; other < hi; ++other) {
          at_barrier_.reset(other);
          if (!done_.test(other)) {
            const WarpState& ow = warps_[other];
            subcores_[ow.subcore].issuable.set(ow.slot);
          }
        }
        b.arrived = 0;
      }
      break;
    }
    case Opcode::kExit: {
      done_.set(static_cast<std::size_t>(sc.warp_ids[idx]));
      sc.issuable.reset(idx);
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
  if (in.dst != kNoReg) {
    w.reg_ready[in.dst] = result_ready;
    w.max_reg_ready = std::max(w.max_reg_ready, result_ready);
    if (result_ready > cycle) w.pending.set(in.dst);
  }
  ++w.pc;
  ++stats_.instructions_issued;
  ++stats_.issued_by_opcode[static_cast<std::size_t>(in.op)];
  // Greedy-then-oldest keeps issuing from the same warp until it stalls;
  // loose round-robin rotates every cycle.
  sc.rr_cursor = calib_.greedy_scheduler
                     ? idx
                     : (idx + 1 == sc.warp_ids.size() ? 0 : idx + 1);
  return true;
}

bool SmSim::try_issue(Subcore& sc, std::uint64_t cycle,
                      std::uint64_t& next_wake) {
  // Return due sleepers to the candidate mask. A parked warp could not
  // have issued on any skipped cycle (its dep_ready had not passed), so
  // waking it exactly at dep_ready preserves the historical issue order.
  if (sc.min_wake <= cycle) {
    std::uint64_t min_wake = UINT64_MAX;
    for (std::size_t idx = sc.sleeping.find_first(); idx != Bitset64::npos;
         idx = sc.sleeping.find_next(idx + 1)) {
      if (sc.wake_at[idx] <= cycle) {
        sc.sleeping.reset(idx);
        sc.issuable.set(idx);
      } else {
        min_wake = std::min(min_wake, sc.wake_at[idx]);
      }
    }
    sc.min_wake = min_wake;
  }
  // Round-robin over the candidate mask: set bits in [rr_cursor, n), then
  // [0, rr_cursor). Visits the same warps in the same cyclic order as the
  // historical every-slot walk, minus the done / at-barrier / parked slots
  // that walk re-examined one at a time, every cycle. A slot inside its
  // memoized stall window (cycle < wake_at) is skipped from the subcore's
  // own arrays, without loading any warp state.
  for (std::size_t idx = sc.issuable.find_next(sc.rr_cursor);
       idx != Bitset64::npos; idx = sc.issuable.find_next(idx + 1)) {
    if (cycle < sc.wake_at[idx]) {
      next_wake = std::min(next_wake, sc.wake_at[idx]);
      continue;
    }
    if (issue_slot(sc, idx, cycle, next_wake)) return true;
  }
  for (std::size_t idx = sc.issuable.find_first();
       idx != Bitset64::npos && idx < sc.rr_cursor;
       idx = sc.issuable.find_next(idx + 1)) {
    if (cycle < sc.wake_at[idx]) {
      next_wake = std::min(next_wake, sc.wake_at[idx]);
      continue;
    }
    if (issue_slot(sc, idx, cycle, next_wake)) return true;
  }
  // Parked warps are blocked candidates too: their wake cycle bounds the
  // earliest time anything here could go (used when no sub-core issues).
  next_wake = std::min(next_wake, sc.min_wake);
  return false;
}

bool SmSim::step(std::uint64_t cycle, std::uint64_t& next_wake) {
  bool issued_any = false;
  for (auto& sc : subcores_) {
    if (!sc.warp_ids.empty() && try_issue(sc, cycle, next_wake))
      issued_any = true;
  }
  return issued_any;
}

SmStats SmSim::finish(std::uint64_t cycles) {
  stats_.cycles = cycles;
  return stats_;
}

SmStats SmSim::run(std::uint64_t max_cycles) {
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
