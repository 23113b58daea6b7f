#include "sim/gpu_sim.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace vitbit::sim {

std::array<std::uint64_t, 4> GridGeom::block_bases(int block_idx) const {
  const int col = block_idx % col_blocks;
  const int row = (block_idx / col_blocks) % row_blocks;
  const int outer = block_idx / (col_blocks * row_blocks);
  std::array<std::uint64_t, 4> bases{};
  for (std::size_t i = 0; i < operands.size(); ++i) {
    const auto& g = operands[i];
    bases[i] = g.base + static_cast<std::uint64_t>(outer) * g.outer_stride +
               static_cast<std::uint64_t>(row) * g.row_stride +
               static_cast<std::uint64_t>(col) * g.col_stride;
  }
  return bases;
}

GpuSim::GpuSim(const arch::OrinSpec& spec, const arch::Calibration& calib)
    : spec_(spec), calib_(calib) {}

std::uint64_t GpuSim::access(std::uint64_t addr, std::uint32_t bytes,
                             std::uint64_t now, bool is_store) {
  const int misses = l2_.access(addr, bytes);
  if (misses == 0) {
    // L2 hit: a fraction of the full DRAM round trip.
    return now + static_cast<std::uint64_t>(calib_.dram_latency_cycles) / 4;
  }
  // Misses stream through the whole-GPU DRAM channel.
  const double bpc = spec_.dram_bandwidth_gbps / spec_.clock_ghz;
  const double miss_bytes = static_cast<double>(misses) * l2_.line_bytes();
  const double start = std::max(static_cast<double>(now), dram_free_);
  dram_free_ = start + miss_bytes / bpc;
  const auto drained = static_cast<std::uint64_t>(std::ceil(dram_free_));
  if (is_store) return now + 1;  // stores retire into the write queue
  return std::max<std::uint64_t>(now + calib_.dram_latency_cycles, drained);
}

GpuRunResult GpuSim::run(const KernelSpec& kernel, const GridGeom& geom,
                         int blocks_per_sm) {
  VITBIT_CHECK(blocks_per_sm >= 1);
  VITBIT_CHECK_MSG(geom.addressed,
                   "GpuSim needs an addressed kernel (GridGeom.addressed)");
  l2_.reset();
  dram_free_ = 0.0;

  GpuRunResult result;
  int next_block = 0;
  std::uint64_t clock = 0;
  // SM instances are constructed once and reset() between rounds, reusing
  // the warp/subcore vectors' capacity instead of reallocating per round.
  std::vector<SmSim> sms;
  sms.reserve(static_cast<std::size_t>(spec_.num_sms));
  // Rounds of co-resident blocks (the L2 stays warm across rounds, which
  // is exactly the behaviour wave extrapolation cannot capture).
  while (next_block < kernel.grid_blocks) {
    std::size_t used = 0;
    for (int s = 0; s < spec_.num_sms && next_block < kernel.grid_blocks;
         ++s) {
      if (used == sms.size()) sms.emplace_back(spec_, calib_, this);
      SmSim& sm = sms[used++];
      sm.reset();
      for (int b = 0; b < blocks_per_sm && next_block < kernel.grid_blocks;
           ++b) {
        sm.add_block(kernel.block_warps, geom.block_bases(next_block),
                     kernel.warp_operand_offsets);
        ++next_block;
      }
    }
    std::uint64_t cycle = clock;
    const std::uint64_t guard = clock + 400'000'000ull;
    while (true) {
      bool all_done = true;
      bool issued_any = false;
      std::uint64_t next_wake = UINT64_MAX;
      for (std::size_t s = 0; s < used; ++s) {
        SmSim& sm = sms[s];
        if (sm.done()) continue;
        all_done = false;
        if (sm.step(cycle, next_wake)) issued_any = true;
      }
      if (all_done) break;
      VITBIT_CHECK_MSG(cycle < guard, "GPU simulation exceeded cycle guard");
      if (issued_any) {
        ++cycle;
      } else {
        VITBIT_CHECK_MSG(next_wake != UINT64_MAX,
                         "deadlock: no SM can make progress");
        cycle = std::max(cycle + 1, next_wake);
      }
    }
    for (std::size_t s = 0; s < used; ++s)
      result.total += sms[s].finish(cycle - clock);
    clock = cycle;
  }
  result.cycles = clock;
  result.l2_hits = l2_.hits();
  result.l2_misses = l2_.misses();
  result.l2_hit_rate = l2_.hit_rate();
  // The aggregate SmStats summed cycles over SMs; report makespan in the
  // top-level field and leave per-unit busy counts as GPU-wide totals.
  result.total.cycles = clock;
  return result;
}

LaunchResult launch_kernel_l2(const KernelSpec& kernel, const GridGeom& geom,
                              const arch::OrinSpec& spec,
                              const arch::Calibration& calib,
                              const arch::RfCompressConfig& rf) {
  GpuSim gpu(spec, calib);
  const LaunchGeometry g = launch_geometry(kernel.geometry(), spec, rf);
  const auto r = gpu.run(kernel, geom, g.blocks_per_sm);
  LaunchResult out;
  out.total_cycles =
      r.cycles +
      static_cast<std::uint64_t>(calib.kernel_launch_overhead_cycles);
  out.blocks_per_sm = g.blocks_per_sm;
  out.resident_blocks = g.resident_blocks;
  out.grid_blocks = g.grid_blocks;
  out.waves = g.waves;
  out.sm = r.total;
  out.grid_instructions = r.total.instructions_issued;
  return out;
}

}  // namespace vitbit::sim
