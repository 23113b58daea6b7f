// Kernel launcher: occupancy calculation and grid-to-SM wave scheduling.
// A kernel is simulated on one SM at its resident-block occupancy and the
// result is extrapolated over the grid's waves (all SMs run identical work).
//
// A launch is three public steps, composed by launch_kernel:
//   launch_geometry — occupancy, resident blocks and waves, from the
//                     kernel's trace-free KernelGeometry;
//   simulate_sm     — the only cycle-level work: one SM holding `resident`
//                     copies of the block;
//   extrapolate     — scales that SM slice to the grid.
// The SM slice depends only on the block's warp programs and the resident
// count, so callers timing many kernels (core::time_inferences) simulate
// each distinct slice once and extrapolate it per kernel.
//
// slice_cycle_lower_bound reads the same programs without simulating them
// and never exceeds simulate_sm's cycles. extrapolate is monotone in the
// slice's cycles, so extrapolating the bound bounds the kernel total; the
// tuner uses it to skip candidates that cannot beat the best one found.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/calibration.h"
#include "arch/orin_spec.h"
#include "arch/rf_compress.h"
#include "sim/program.h"
#include "sim/stats.h"

namespace vitbit::sim {

// What occupancy and wave scheduling need to know about a kernel: block
// size, per-block resources and grid — no instruction trace.
struct KernelGeometry {
  int warps_per_block = 1;
  int grid_blocks = 1;
  int regs_per_thread = 64;
  int smem_bytes = 48 * 1024;

  bool operator==(const KernelGeometry&) const = default;
};

struct KernelSpec {
  // The warps of one thread block. Warps of one class share a program.
  std::vector<ProgramPtr> block_warps;
  // Empty, or one entry per warp: the warp's operand offsets, added to its
  // addressed accesses (GpuSim only; the single-SM model ignores them).
  std::vector<OperandOffsets> warp_operand_offsets;
  int grid_blocks = 1;
  int regs_per_thread = 64;
  int smem_bytes = 48 * 1024;

  KernelGeometry geometry() const {
    return {static_cast<int>(block_warps.size()), grid_blocks, regs_per_thread,
            smem_bytes};
  }
};

struct LaunchResult {
  std::uint64_t total_cycles = 0;
  int blocks_per_sm = 0;  // occupancy limit
  int resident_blocks = 0;  // blocks actually co-resident in the simulation
  int grid_blocks = 0;
  int waves = 0;
  // Stats of one SM over one full wave (per-kernel IPC/utilization/mix).
  SmStats sm;
  // Whole-grid issued-instruction total (scaled over SMs and waves).
  std::uint64_t grid_instructions = 0;

  double milliseconds(const arch::OrinSpec& spec) const {
    return static_cast<double>(total_cycles) / (spec.clock_ghz * 1e6);
  }

  // Scale factor from the simulated SM slice to the whole grid.
  double grid_scale() const {
    return resident_blocks == 0
               ? 0.0
               : static_cast<double>(grid_blocks) / resident_blocks;
  }
};

// Per-resource occupancy breakdown: how many blocks each resource alone
// would admit, which limit binds, and the register budget after RF
// compression. The ablation bench reports `limiter` so sweeps show *why*
// occupancy moved, not just that it did.
struct OccupancyLimits {
  int by_blocks = 0;  // spec.max_blocks_per_sm
  int by_warps = 0;
  int by_smem = 0;      // INT_MAX stand-in when the kernel uses no smem
  int by_registers = 0; // INT_MAX stand-in when regs_per_thread == 0
  int effective_registers = 0;  // per SM, after RF compression
  int blocks = 0;               // min over all limits (>= 1, checked)
  const char* limiter = "";     // "blocks" | "warps" | "smem" | "registers"
};

OccupancyLimits occupancy_limits(const KernelGeometry& kernel,
                                 const arch::OrinSpec& spec,
                                 const arch::RfCompressConfig& rf = {});
inline OccupancyLimits occupancy_limits(const KernelSpec& kernel,
                                        const arch::OrinSpec& spec,
                                        const arch::RfCompressConfig& rf = {}) {
  return occupancy_limits(kernel.geometry(), spec, rf);
}

// Resident blocks per SM under warp/block/smem/register limits; the
// register budget is the RF-compression-adjusted effective capacity
// (default config reproduces the raw spec budget exactly).
inline int occupancy_blocks_per_sm(const KernelSpec& kernel,
                                   const arch::OrinSpec& spec,
                                   const arch::RfCompressConfig& rf = {}) {
  return occupancy_limits(kernel, spec, rf).blocks;
}

// Where a kernel's blocks land on the GPU.
struct LaunchGeometry {
  int blocks_per_sm = 0;    // occupancy limit
  int blocks_on_sm = 0;     // blocks the busiest SM executes over the run
  int resident_blocks = 0;  // min(blocks_per_sm, blocks_on_sm): simulated
  int waves = 0;
  int grid_blocks = 0;
};

LaunchGeometry launch_geometry(const KernelGeometry& kernel,
                               const arch::OrinSpec& spec,
                               const arch::RfCompressConfig& rf = {});

// One SM running `resident` co-resident copies of the kernel's block
// (single-SM memory model). Reads only the block: its programs alone,
// with `resident`, determine the result.
SmStats simulate_sm(const KernelSpec& kernel, int resident,
                    const arch::OrinSpec& spec,
                    const arch::Calibration& calib);

// A lower bound on simulate_sm(kernel, resident, spec, calib).cycles, read
// from the block's programs alone. SmSim::run ends one cycle past the last
// issue, so the bound is the largest of:
//  - issue: the instructions homed on one sub-core (home_subcore), since a
//    sub-core issues at most one per cycle;
//  - pipes: per sub-core INT, FP, SFU and TC pipe, and for the SM-wide LSU,
//    the occupancies (issue_occupancy) the unit dispatches, summed, minus
//    the largest plus one: each issue waits out the previous one's busy
//    window, and nothing waits for the last one's.
// Instructions after a warp's first EXIT never issue and are not counted.
// There is no memory-latency term: EXIT waits only for register writes,
// and the trailing stores write none.
std::uint64_t slice_cycle_lower_bound(const KernelSpec& kernel, int resident,
                                      const arch::OrinSpec& spec,
                                      const arch::Calibration& calib);

// Scales one simulated SM slice (`sm`, run at geometry.resident_blocks) to
// the whole grid and adds the launch overhead.
LaunchResult extrapolate(const LaunchGeometry& geometry, const SmStats& sm,
                         const arch::Calibration& calib);

// extrapolate(g, simulate_sm(kernel, g.resident_blocks)) at
// g = launch_geometry(kernel.geometry()).
LaunchResult launch_kernel(const KernelSpec& kernel,
                           const arch::OrinSpec& spec,
                           const arch::Calibration& calib,
                           const arch::RfCompressConfig& rf = {});

}  // namespace vitbit::sim
