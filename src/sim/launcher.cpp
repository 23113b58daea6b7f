#include "sim/launcher.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/check.h"
#include "common/int_math.h"
#include "sim/sm_sim.h"

namespace vitbit::sim {

OccupancyLimits occupancy_limits(const KernelGeometry& kernel,
                                 const arch::OrinSpec& spec,
                                 const arch::RfCompressConfig& rf) {
  const int warps_per_block = kernel.warps_per_block;
  VITBIT_CHECK(warps_per_block >= 1);
  VITBIT_CHECK(warps_per_block * spec.warp_size <= spec.max_threads_per_block);
  OccupancyLimits lim;
  lim.by_blocks = spec.max_blocks_per_sm;
  lim.by_warps = spec.max_warps_per_sm / warps_per_block;
  lim.by_smem = kernel.smem_bytes > 0
                    ? spec.smem_bytes_per_sm / kernel.smem_bytes
                    : std::numeric_limits<int>::max();
  lim.effective_registers = arch::rf_effective_registers(spec, rf);
  const int regs_per_block =
      kernel.regs_per_thread * spec.warp_size * warps_per_block;
  lim.by_registers = regs_per_block > 0
                         ? lim.effective_registers / regs_per_block
                         : std::numeric_limits<int>::max();
  lim.blocks = lim.by_blocks;
  lim.limiter = "blocks";
  // min over the limits; ties go to the first (coarsest) resource so the
  // reported limiter is stable across sweeps.
  const auto tighten = [&lim](int value, const char* name) {
    if (value < lim.blocks) {
      lim.blocks = value;
      lim.limiter = name;
    }
  };
  tighten(lim.by_warps, "warps");
  tighten(lim.by_smem, "smem");
  tighten(lim.by_registers, "registers");
  VITBIT_CHECK_MSG(lim.blocks >= 1,
                   "kernel cannot fit on an SM: "
                       << warps_per_block << " warps, " << kernel.smem_bytes
                       << "B smem, " << kernel.regs_per_thread
                       << " regs/thread (effective RF "
                       << lim.effective_registers << ")");
  return lim;
}

LaunchGeometry launch_geometry(const KernelGeometry& kernel,
                               const arch::OrinSpec& spec,
                               const arch::RfCompressConfig& rf) {
  VITBIT_CHECK(kernel.grid_blocks >= 1);
  LaunchGeometry g;
  g.blocks_per_sm = occupancy_limits(kernel, spec, rf).blocks;
  g.blocks_on_sm = ceil_div(kernel.grid_blocks, spec.num_sms);
  g.resident_blocks = std::min(g.blocks_per_sm, g.blocks_on_sm);
  g.waves = ceil_div(g.blocks_on_sm, g.resident_blocks);
  g.grid_blocks = kernel.grid_blocks;
  return g;
}

SmStats simulate_sm(const KernelSpec& kernel, int resident,
                    const arch::OrinSpec& spec,
                    const arch::Calibration& calib) {
  SmSim sm(spec, calib);
  for (int b = 0; b < resident; ++b) sm.add_block(kernel.block_warps);
  return sm.run();
}

namespace {

// What one warp, or all warps homed on one sub-core, put on the issue
// ports: instructions issued, and per unit the summed and the largest
// dispatch-port occupancy.
struct IssueLoad {
  std::uint64_t instructions = 0;
  std::array<std::uint64_t, kNumUnits> occupancy_sum{};
  std::array<std::uint32_t, kNumUnits> occupancy_max{};

  IssueLoad& operator+=(const IssueLoad& other) {
    instructions += other.instructions;
    for (std::size_t u = 0; u < occupancy_sum.size(); ++u) {
      occupancy_sum[u] += other.occupancy_sum[u];
      occupancy_max[u] = std::max(occupancy_max[u], other.occupancy_max[u]);
    }
    return *this;
  }

  // Cycles the unit needs to dispatch its load: each issue waits until the
  // previous one's busy window ends, the last one's is never waited for.
  std::uint64_t port_cycles(ExecUnit unit) const {
    const auto u = static_cast<std::size_t>(unit);
    return occupancy_sum[u] == 0 ? 0 : occupancy_sum[u] - occupancy_max[u] + 1;
  }
};

IssueLoad program_load(const Program& prog, const arch::Calibration& calib) {
  IssueLoad load;
  for (const Instr& in : prog.code) {
    const OpInfo& info = op_info(in.op);
    const auto u = static_cast<std::size_t>(info.unit);
    const std::uint32_t occupancy = issue_occupancy(in, info, calib);
    ++load.instructions;
    load.occupancy_sum[u] += occupancy;
    load.occupancy_max[u] = std::max(load.occupancy_max[u], occupancy);
    if (in.op == Opcode::kExit) break;
  }
  return load;
}

}  // namespace

std::uint64_t slice_cycle_lower_bound(const KernelSpec& kernel, int resident,
                                      const arch::OrinSpec& spec,
                                      const arch::Calibration& calib) {
  VITBIT_CHECK(resident >= 1);
  // Warps of one class share a program: load each distinct program once.
  std::vector<const Program*> programs;
  std::vector<IssueLoad> loads;
  std::vector<std::size_t> warp_load;
  warp_load.reserve(kernel.block_warps.size());
  for (const ProgramPtr& warp : kernel.block_warps) {
    VITBIT_CHECK(warp != nullptr);
    auto it = std::find(programs.begin(), programs.end(), warp.get());
    if (it == programs.end()) {
      loads.push_back(program_load(*warp, calib));
      it = programs.insert(programs.end(), warp.get());
    }
    warp_load.push_back(static_cast<std::size_t>(it - programs.begin()));
  }
  const auto subcores = static_cast<std::size_t>(spec.subcores_per_sm);
  std::vector<IssueLoad> per_subcore(subcores);
  for (int b = 0; b < resident; ++b)
    for (std::size_t i = 0; i < warp_load.size(); ++i)
      per_subcore[home_subcore(i, b, subcores)] += loads[warp_load[i]];

  std::uint64_t bound = 0;
  IssueLoad sm;
  for (const IssueLoad& sc : per_subcore) {
    bound = std::max(bound, sc.instructions);
    bound = std::max(bound, sc.port_cycles(ExecUnit::kIntPipe));
    bound = std::max(bound, sc.port_cycles(ExecUnit::kFpPipe));
    bound = std::max(bound, sc.port_cycles(ExecUnit::kSfu));
    bound = std::max(bound, sc.port_cycles(ExecUnit::kTensor));
    sm += sc;
  }
  return std::max(bound, sm.port_cycles(ExecUnit::kLsu));
}

LaunchResult extrapolate(const LaunchGeometry& geometry, const SmStats& sm,
                         const arch::Calibration& calib) {
  LaunchResult result;
  result.blocks_per_sm = geometry.blocks_per_sm;
  result.resident_blocks = geometry.resident_blocks;
  result.grid_blocks = geometry.grid_blocks;
  result.waves = geometry.waves;
  result.sm = sm;
  // Steady-state throughput extrapolation: real GPUs refill an SM as soon
  // as a block retires, so the SM sustains the per-block rate of a
  // fully-occupied simulation; whole-wave serialization would introduce
  // artificial quantization cliffs between strategies with different
  // occupancies.
  const auto resident = static_cast<std::uint64_t>(geometry.resident_blocks);
  const double scale = static_cast<double>(geometry.blocks_on_sm) /
                       static_cast<double>(geometry.resident_blocks);
  result.total_cycles =
      static_cast<std::uint64_t>(calib.kernel_launch_overhead_cycles) +
      static_cast<std::uint64_t>(static_cast<double>(sm.cycles) * scale);
  result.grid_instructions = (sm.instructions_issued / resident) *
                             static_cast<std::uint64_t>(geometry.grid_blocks);
  return result;
}

LaunchResult launch_kernel(const KernelSpec& kernel,
                           const arch::OrinSpec& spec,
                           const arch::Calibration& calib,
                           const arch::RfCompressConfig& rf) {
  const LaunchGeometry g = launch_geometry(kernel.geometry(), spec, rf);
  return extrapolate(g, simulate_sm(kernel, g.resident_blocks, spec, calib),
                     calib);
}

}  // namespace vitbit::sim
