#include "trace/gemm_traces.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "common/int_math.h"

namespace vitbit::trace {

using sim::ProgramBuilder;
using sim::ProgramPtr;

namespace {

// Staged global->shared bytes one warp moves per panel, as 128B transactions
// with an L2 derate applied to the DRAM charge. Operands with little
// intra-block reuse (the duplicated fp32 A2 of the VitBit FP slice) stream
// straight into registers instead of bouncing through shared memory.
struct StagePlan {
  std::uint32_t ldg_count = 0;
  std::uint32_t dram_bytes_per_ldg = 128;
  bool to_smem = true;
  // Addressing for the L2 simulation: logical operand, chunk start within
  // the panel, and the operand's advance per panel. The trace addresses
  // the first sharer's slice; each warp's operand offset moves it to its
  // own slice (slot x warp_bytes).
  std::uint8_t operand = sim::kNoOperand;
  std::uint32_t chunk_offset = 0;  // where this stage's data begins in a panel
  std::uint32_t warp_bytes = 0;    // bytes one warp stages per panel
  // Operand bytes consumed per panel (whole block).
  std::uint32_t panel_stride = 0;
};

StagePlan stage_share(double operand_bytes, int sharing_warps, double derate,
                      bool to_smem = true,
                      std::uint8_t operand = sim::kNoOperand,
                      std::uint32_t chunk_offset = 0,
                      std::uint32_t panel_stride = 0) {
  StagePlan s;
  if (operand_bytes <= 0 || sharing_warps <= 0) return s;
  const double per_warp = operand_bytes / sharing_warps;
  s.ldg_count = static_cast<std::uint32_t>(std::ceil(per_warp / 128.0));
  s.dram_bytes_per_ldg = static_cast<std::uint32_t>(
      std::max(1.0, std::min(128.0, 128.0 * derate)));
  s.to_smem = to_smem;
  s.operand = operand;
  s.chunk_offset = chunk_offset;
  s.warp_bytes = s.ldg_count * 128;
  s.panel_stride = panel_stride;
  return s;
}

struct WarpParams {
  // Compute work per k-step.
  int macs_per_step = 0;        // IMAD / FFMA / (packed IMAD) warp instrs
  bool tensor = false;          // IMMA path instead
  int immas_per_panel = 0;
  int conv_per_step = 0;        // I2F instrs (runtime conversion)
  int overhead_per_step = 0;    // address IADDs
  int lds_per_step = 0;
  // Packing.
  int spill_period = 0;  // 0 = no spills
  int spill_ops = 0;     // INT instrs per spill event (all registers)
  // Staging this warp performs per panel. Stage 0 is the block-shared A
  // tile (split over every warp of the block), later stages are
  // class-private.
  std::vector<StagePlan> stages;
  // Epilogue.
  int requant_ops = 0;  // INT instrs
  std::uint32_t stg_count = 0;
  bool fp_class = false;  // MACs go to the FP pipe
};

ProgramPtr build_warp(const WarpParams& p, int panels, int tile_k) {
  ProgramBuilder b;
  // Fragment buffers, 4 deep: loads run 3 k-steps ahead of their consumers
  // so shared-memory latency stays hidden even for narrow column slices.
  constexpr int kFragDepth = 4;
  std::array<std::uint16_t, kFragDepth> frags{};
  for (auto& f : frags) f = b.new_reg();
  std::array<std::uint16_t, kFragDepth> conv_tmps{};
  for (auto& f : conv_tmps) f = b.new_reg();
  const auto addr0 = b.new_reg();
  const auto addr1 = b.new_reg();
  const auto pred = b.new_reg();
  const int acc_count = std::max(
      1, p.tensor ? std::min(p.immas_per_panel, 8) : p.macs_per_step);
  std::vector<std::uint16_t> accs;
  for (int i = 0; i < acc_count; ++i) accs.push_back(b.new_reg());
  std::vector<std::uint16_t> ldg_regs;
  std::size_t total_ldgs = 0;
  for (const auto& s : p.stages) total_ldgs += s.ldg_count;
  for (std::size_t i = 0; i < std::max<std::size_t>(total_ldgs, 1); ++i)
    ldg_regs.push_back(b.new_reg());

  auto issue_ldgs = [&](int panel) {
    std::size_t r = 0;
    for (const auto& s : p.stages) {
      const std::uint32_t base =
          static_cast<std::uint32_t>(panel) * s.panel_stride + s.chunk_offset;
      for (std::uint32_t i = 0; i < s.ldg_count; ++i)
        b.ldg(ldg_regs[r++ % ldg_regs.size()], 128, s.dram_bytes_per_ldg,
              s.operand, base + i * 128);
    }
  };
  auto issue_sts = [&]() {
    std::size_t r = 0;
    for (const auto& s : p.stages) {
      for (std::uint32_t i = 0; i < s.ldg_count; ++i) {
        const auto reg = ldg_regs[r++ % ldg_regs.size()];
        if (s.to_smem) b.sts(reg, 128);
      }
    }
  };

  // Per-step shared-memory traffic scales with the slice this warp covers.
  const std::uint32_t lds_bytes = static_cast<std::uint32_t>(
      std::min(128, 32 + 4 * p.macs_per_step));

  // Prologue: stage panel 0.
  issue_ldgs(0);
  int steps_since_spill = 0;
  int conv_rot = 0;
  for (int panel = 0; panel < panels; ++panel) {
    issue_sts();
    b.bar();
    // Prefetch the next panel while computing this one (double buffering).
    if (panel + 1 < panels) issue_ldgs(panel + 1);
    if (p.tensor) {
      // Fragment loads then IMMAs (tensor core serializes them anyway).
      b.lds(frags[0], 128);
      b.lds(frags[1], 128);
      for (int i = 0; i < p.immas_per_panel; ++i)
        b.imma(accs[static_cast<std::size_t>(i) % accs.size()], frags[0],
               frags[1]);
    } else {
      for (int step = 0; step < tile_k; ++step) {
        // Fragments load kFragDepth-1 steps ahead of their consumers.
        // Loads and address arithmetic are vectorized over pairs of k-steps
        // (128-bit LDS, unrolled addressing) to conserve issue slots — the
        // sub-core scheduler issues only one instruction per cycle.
        const auto frag_cur =
            frags[static_cast<std::size_t>(step % kFragDepth)];
        const auto frag_next = frags[static_cast<std::size_t>(
            (step + kFragDepth - 1) % kFragDepth)];
        if (step % 2 == 0) {
          for (int l = 0; l < p.lds_per_step; ++l)
            b.lds(frag_next, std::min<std::uint32_t>(128, lds_bytes * 2));
        }
        for (int c = 0; c < p.conv_per_step; ++c)
          b.i2f(conv_tmps[static_cast<std::size_t>(conv_rot++ % kFragDepth)],
                frag_cur);
        for (int i = 0; i < p.macs_per_step; ++i) {
          const auto acc = accs[static_cast<std::size_t>(i) % accs.size()];
          if (p.fp_class)
            b.ffma(acc, frag_cur, frag_cur, acc);
          else
            b.imad(acc, frag_cur, frag_cur, acc);
        }
        if (step % 2 == 1) {
          for (int o = 0; o < 2 * p.overhead_per_step; ++o) {
            const auto a = (o % 2) ? addr1 : addr0;
            b.iadd(a, a, frag_cur);
          }
        }
        if (p.spill_period > 0 && ++steps_since_spill >= p.spill_period) {
          steps_since_spill = 0;
          for (int s = 0; s < p.spill_ops; ++s) {
            const auto acc = accs[static_cast<std::size_t>(s) % accs.size()];
            if (s % 2 == 0)
              b.shf(acc, acc);
            else
              b.iadd(addr0, acc, addr1);
          }
        }
      }
    }
    // Loop bookkeeping. Shared memory is double-buffered, so the single
    // barrier before the next panel's STS is the only block-wide sync.
    b.iadd(addr0, addr0, addr1);
    b.isetp(pred, addr0);
    b.bra(pred);
  }
  // Epilogue: requantize accumulators and store the output tile.
  for (int i = 0; i < p.requant_ops; ++i) {
    const auto acc = accs[static_cast<std::size_t>(i) % accs.size()];
    if (i % 2 == 0)
      b.shf(acc, acc);
    else
      b.iadd(acc, acc, acc);
  }
  for (std::uint32_t i = 0; i < p.stg_count; ++i)
    b.stg(accs[i % accs.size()], 128, UINT32_MAX, /*operand=*/3, i * 128);
  b.exit();
  return b.build();
}

}  // namespace

namespace {

void check_plan(const GemmBlockPlan& plan) {
  VITBIT_CHECK_MSG(plan.total_cols() > 0, "GEMM plan assigns no columns");
  VITBIT_CHECK(plan.tile_m >= 1 && plan.tile_k >= 1);
  if (plan.pack_int) VITBIT_CHECK(plan.pack_factor >= 2);
  VITBIT_CHECK(plan.total_warps() >= 1);
}

int int_reg_cols(const GemmBlockPlan& plan) {
  return plan.pack_int ? ceil_div(plan.int_cols, plan.pack_factor)
                       : plan.int_cols;
}

// B1 bytes per panel: packed B1 occupies int_cols/pack_factor registers
// worth of bytes.
double b1_panel_bytes(const GemmBlockPlan& plan) {
  return plan.pack_int
             ? static_cast<double>(plan.tile_k) * int_reg_cols(plan) * 4
             : static_cast<double>(plan.tile_k) * plan.int_cols;
}

// Per-class accumulator counts and the block's resource use: a function
// of the plan alone, shared by the launch geometry and the block builder.
struct BlockResources {
  int int_accs = 0;  // 0 when the class has no columns
  int fp_accs = 0;
  int regs_per_thread = 0;
  int smem_bytes = 0;
};

BlockResources block_resources(const GemmBlockPlan& plan,
                               const arch::OrinSpec& spec) {
  const int warp_size = spec.warp_size;
  const int tile_k = plan.tile_k;
  BlockResources r;
  double smem_bytes = 0.0;
  int max_accs = 1;
  if (plan.tc_cols > 0) {
    smem_bytes += 2.0 * (static_cast<double>(plan.tile_m) * tile_k +
                         static_cast<double>(tile_k) * plan.tc_cols);
    max_accs = std::max(max_accs, 8);
  }
  if (plan.int_cols > 0) {
    r.int_accs = std::max(
        1, plan.tile_m * int_reg_cols(plan) / (warp_size * plan.int_warps));
    smem_bytes += 2.0 * b1_panel_bytes(plan);
    max_accs = std::max(max_accs, r.int_accs);
  }
  if (plan.fp_cols > 0) {
    r.fp_accs =
        std::max(1, plan.tile_m * plan.fp_cols / (warp_size * plan.fp_warps));
    // Runtime conversion stages int8 B2; VitBit preprocessing stages fp32.
    smem_bytes += plan.fp_runtime_convert
                      ? 2.0 * tile_k * plan.fp_cols
                      : 2.0 * static_cast<double>(tile_k) * plan.fp_cols * 4;
    max_accs = std::max(max_accs, r.fp_accs);
  }
  r.regs_per_thread = std::min(255, max_accs + 24);
  r.smem_bytes = static_cast<int>(
      std::min<double>(smem_bytes, spec.smem_bytes_per_sm));
  return r;
}

// Per-panel byte layout of the block's operand chunks (plan alone).
struct PanelLayout {
  std::uint32_t a_panel = 0;   // A1 (int8)
  std::uint32_t a2_panel = 0;  // duplicated fp32 A2 (VitBit FP slice)
  std::uint32_t b3_off = 0, b1_off = 0, b2_off = 0;
  std::uint32_t b_panel = 0;   // combined B chunk per panel
};

PanelLayout panel_layout(const GemmBlockPlan& plan) {
  const auto tk = static_cast<std::uint32_t>(plan.tile_k);
  // Staging issues whole 128B transactions per warp, so every chunk is
  // rounded up to warps x 128B — the address extents must match what the
  // warps actually touch or blocks would alias.
  auto rounded = [](std::uint32_t bytes, int warps) -> std::uint32_t {
    if (bytes == 0 || warps <= 0) return 0;
    return static_cast<std::uint32_t>(warps) *
           ceil_div<std::uint32_t>(
               ceil_div<std::uint32_t>(bytes,
                                       static_cast<std::uint32_t>(warps)),
               128) *
           128;
  };
  PanelLayout d;
  d.a_panel = rounded(static_cast<std::uint32_t>(plan.tile_m) * tk,
                      plan.total_warps());
  d.a2_panel = rounded(static_cast<std::uint32_t>(plan.tile_m) * tk * 4,
                       plan.fp_warps);
  const std::uint32_t b3 = rounded(
      tk * static_cast<std::uint32_t>(plan.tc_cols), plan.tc_warps);
  const std::uint32_t b1 = rounded(
      plan.pack_int ? tk * static_cast<std::uint32_t>(int_reg_cols(plan)) * 4
                    : tk * static_cast<std::uint32_t>(plan.int_cols),
      plan.int_warps);
  const std::uint32_t b2 = rounded(
      tk * static_cast<std::uint32_t>(plan.fp_cols) *
          (plan.fp_runtime_convert ? 1 : 4),
      plan.fp_warps);
  d.b3_off = 0;
  d.b1_off = b3;
  d.b2_off = b3 + b1;
  d.b_panel = b3 + b1 + b2;
  return d;
}

}  // namespace

GemmGeometry gemm_geometry(const GemmShape& shape, const GemmBlockPlan& plan,
                           const arch::OrinSpec& spec) {
  VITBIT_CHECK(shape.m >= 1 && shape.k >= 1 && shape.n >= 1 &&
               shape.batch >= 1);
  check_plan(plan);
  GemmGeometry g;
  g.row_blocks = ceil_div(shape.m, plan.tile_m);
  g.col_blocks = ceil_div(shape.n, plan.total_cols());
  const int panels = ceil_div(shape.k, plan.tile_k);
  // Split-K (the standard BLAS remedy for small grids): when the output
  // tiling yields too few thread blocks to fill the GPU, partition the K
  // dimension across several blocks so every SM stays occupied. Partial
  // sums are combined in a cheap reduction epilogue (wider stores).
  const int base_grid = g.row_blocks * g.col_blocks * shape.batch;
  const int target_grid = 8 * spec.num_sms;
  if (base_grid < target_grid) {
    // Keep at least 6 K-panels per block so the software pipeline's
    // prologue/epilogue stays amortized.
    const int max_split = std::max(1, panels / 6);
    g.split_k = std::min(max_split, ceil_div(target_grid, base_grid));
  }
  g.panels = ceil_div(panels, g.split_k);
  const BlockResources res = block_resources(plan, spec);
  g.kernel.warps_per_block = plan.total_warps();
  g.kernel.grid_blocks = base_grid * g.split_k;
  g.kernel.regs_per_thread = res.regs_per_thread;
  g.kernel.smem_bytes = res.smem_bytes;
  return g;
}

sim::GridGeom gemm_grid_geom(const GemmShape& shape, const GemmBlockPlan& plan,
                             const arch::OrinSpec& spec) {
  const GemmGeometry d = gemm_geometry(shape, plan, spec);
  const PanelLayout c = panel_layout(plan);  // per-panel operand chunks
  sim::GridGeom g;
  g.addressed = true;
  g.row_blocks = d.row_blocks;
  g.col_blocks = d.col_blocks;
  const std::uint64_t panels = static_cast<std::uint64_t>(d.panels);
  // A1: shared by every column-block of a row; split/batch slices disjoint.
  g.operands[0] = {0x1000'0000ull, panels * c.a_panel * d.row_blocks,
                   panels * c.a_panel, 0};
  // B: private per column-block, shared across row-blocks.
  g.operands[1] = {0x4000'0000ull,
                   panels * c.b_panel * d.col_blocks, 0, panels * c.b_panel};
  // A2 (fp32 duplicate): same topology as A1.
  g.operands[2] = {0x8000'0000ull, panels * c.a2_panel * d.row_blocks,
                   panels * c.a2_panel, 0};
  // Output: disjoint per block.
  const std::uint64_t out_block =
      static_cast<std::uint64_t>(plan.tile_m) * plan.total_cols() * 4;
  g.operands[3] = {0xC000'0000ull, out_block * d.row_blocks * d.col_blocks,
                   out_block * d.col_blocks, out_block};
  return g;
}

sim::KernelSpec build_gemm_block(const GemmBlockPlan& plan, int panels,
                                 const arch::OrinSpec& spec,
                                 const arch::Calibration& calib) {
  check_plan(plan);
  VITBIT_CHECK(panels >= 1);
  const int tile_k = plan.tile_k;
  const int total_warps = plan.total_warps();
  const BlockResources res = block_resources(plan, spec);
  const PanelLayout d = panel_layout(plan);

  sim::KernelSpec kernel;
  kernel.regs_per_thread = res.regs_per_thread;
  kernel.smem_bytes = res.smem_bytes;
  int global_slot = 0;  // block-wide warp index: partitions the shared A tile

  // Emits `count` warps of class `p` sharing one program. A warp's operand
  // offsets select its slices: the block-shared A tile (stage 0) by global
  // slot, class-private stages by local slot, the output by global slot.
  auto emit_warps = [&](const WarpParams& p, int count) {
    const ProgramPtr program = build_warp(p, panels, tile_k);
    for (int w = 0; w < count; ++w) {
      // A class stages each operand at most once: one offset per operand.
      sim::OperandOffsets offsets{};
      for (std::size_t si = 0; si < p.stages.size(); ++si) {
        const StagePlan& s = p.stages[si];
        if (s.ldg_count == 0) continue;
        VITBIT_CHECK(s.operand < sim::kNumOperands);
        const int slot = si == 0 ? global_slot : w;
        offsets[s.operand] = static_cast<std::uint32_t>(slot) * s.warp_bytes;
      }
      offsets[3] = static_cast<std::uint32_t>(global_slot) * p.stg_count * 128;
      kernel.block_warps.push_back(program);
      kernel.warp_operand_offsets.push_back(offsets);
      ++global_slot;
    }
  };

  // ---- Tensor-core warps ----
  if (plan.tc_cols > 0) {
    WarpParams p;
    p.tensor = true;
    const double tile_macs = static_cast<double>(plan.tile_m) * plan.tc_cols *
                             tile_k;
    p.immas_per_panel = static_cast<int>(
        std::ceil(tile_macs / (4096.0 * plan.tc_warps)));
    // Staging: the A1 tile is shared block-wide (split over all warps);
    // the B3 slice belongs to the TC warps.
    p.stages.push_back(stage_share(
        static_cast<double>(plan.tile_m) * tile_k, total_warps,
        calib.a_operand_l2_derate, true, /*operand=*/0, 0, d.a_panel));
    p.stages.push_back(stage_share(static_cast<double>(tile_k) * plan.tc_cols,
                                   plan.tc_warps, calib.b_operand_l2_derate,
                                   true, /*operand=*/1, d.b3_off, d.b_panel));
    p.requant_ops = 8;
    p.stg_count = static_cast<std::uint32_t>(ceil_div(
        plan.tile_m * plan.tc_cols / plan.tc_warps, 128));
    emit_warps(p, plan.tc_warps);
  }

  // ---- INT CUDA-core warps ----
  if (plan.int_cols > 0) {
    WarpParams p;
    const int accs = res.int_accs;
    p.macs_per_step = accs;
    p.overhead_per_step = calib.cc_overhead_per_kstep;
    p.lds_per_step = calib.cc_lds_per_kstep;
    if (plan.pack_int) {
      p.spill_period = plan.pack_k_tile;
      p.spill_ops = accs * plan.pack_spill_ops;
    }
    p.stages.push_back(stage_share(
        static_cast<double>(plan.tile_m) * tile_k, total_warps,
        calib.a_operand_l2_derate, true, /*operand=*/0, 0, d.a_panel));
    p.stages.push_back(stage_share(b1_panel_bytes(plan), plan.int_warps,
                                   calib.b_operand_l2_derate, true,
                                   /*operand=*/1, d.b1_off, d.b_panel));
    p.requant_ops = accs * 2;
    p.stg_count = static_cast<std::uint32_t>(
        ceil_div(plan.tile_m * plan.int_cols / plan.int_warps, 128));
    emit_warps(p, plan.int_warps);
  }

  // ---- FP CUDA-core warps ----
  if (plan.fp_cols > 0) {
    WarpParams p;
    p.fp_class = true;
    const int accs = res.fp_accs;
    p.macs_per_step = accs;
    p.overhead_per_step = calib.cc_overhead_per_kstep;
    p.lds_per_step = calib.cc_lds_per_kstep;
    p.stages.push_back(stage_share(
        static_cast<double>(plan.tile_m) * tile_k, total_warps,
        calib.a_operand_l2_derate, true, /*operand=*/0, 0, d.a_panel));
    if (plan.fp_runtime_convert) {
      // Loads int8 B2 (and reuses the int8 A1 tile), converts per use:
      // a thread tile of 4 x accs/4 needs 4 + accs/4 fresh values per step.
      p.conv_per_step = 4 + std::max(1, accs / 4);
      p.stages.push_back(stage_share(
          static_cast<double>(tile_k) * plan.fp_cols, plan.fp_warps,
          calib.b_operand_l2_derate, true, /*operand=*/1, d.b2_off,
          d.b_panel));
    } else {
      // VitBit preprocessing: B2 and the duplicated A2 arrive as fp32.
      // A2 has little intra-block reuse over a narrow FP slice, so it
      // streams straight to registers (no shared-memory staging).
      p.stages.push_back(stage_share(
          static_cast<double>(plan.tile_m) * tile_k * 4, plan.fp_warps,
          calib.a_operand_l2_derate, /*to_smem=*/false, /*operand=*/2, 0,
          d.a2_panel));
      p.stages.push_back(stage_share(
          static_cast<double>(tile_k) * plan.fp_cols * 4, plan.fp_warps,
          calib.b_operand_l2_derate, true, /*operand=*/1, d.b2_off,
          d.b_panel));
    }
    // FP results convert back to INT for the next layer (F2I + shift).
    p.requant_ops = accs * 2;
    p.stg_count = static_cast<std::uint32_t>(
        ceil_div(plan.tile_m * plan.fp_cols / plan.fp_warps, 128));
    emit_warps(p, plan.fp_warps);
  }
  return kernel;
}

sim::KernelSpec build_gemm_kernel(const GemmShape& shape,
                                  const GemmBlockPlan& plan,
                                  const arch::OrinSpec& spec,
                                  const arch::Calibration& calib) {
  const GemmGeometry g = gemm_geometry(shape, plan, spec);
  sim::KernelSpec kernel = build_gemm_block(plan, g.panels, spec, calib);
  kernel.grid_blocks = g.kernel.grid_blocks;
  return kernel;
}

GemmBlockPlan plan_tc(const arch::Calibration& calib) {
  GemmBlockPlan p;
  p.tile_m = calib.tc_tile_m;
  p.tile_k = calib.tc_tile_k;
  p.tc_cols = calib.tc_tile_n;
  p.tc_warps = 8;
  return p;
}

GemmBlockPlan plan_ic(const arch::Calibration& calib) {
  GemmBlockPlan p;
  p.tile_m = calib.cc_tile_m;
  p.tile_k = calib.cc_tile_k;
  p.int_cols = calib.cc_tile_n;
  p.int_warps = 8;
  return p;
}

GemmBlockPlan plan_fc(const arch::Calibration& calib) {
  GemmBlockPlan p;
  p.tile_m = calib.cc_tile_m;
  p.tile_k = calib.cc_tile_k;
  p.fp_cols = calib.cc_tile_n;
  p.fp_warps = 8;
  p.fp_runtime_convert = true;
  return p;
}

GemmBlockPlan plan_ic_fc(const arch::Calibration& calib) {
  GemmBlockPlan p;
  p.tile_m = calib.cc_tile_m;
  p.tile_k = calib.cc_tile_k;
  p.int_cols = calib.cc_tile_n / 2;
  p.fp_cols = calib.cc_tile_n - p.int_cols;
  p.fp_runtime_convert = true;
  return p;
}

GemmBlockPlan plan_ic_fc_packed(const arch::Calibration& calib,
                                int pack_factor) {
  GemmBlockPlan p;
  p.tile_m = calib.cc_tile_m;
  p.tile_k = calib.cc_tile_k;
  // Equation 1: packed INT takes n of every n+1 columns.
  const int n_cols = calib.cc_tile_n;
  p.int_cols = round_up(n_cols * pack_factor / (pack_factor + 1), pack_factor);
  p.fp_cols = n_cols - p.int_cols;
  p.pack_int = true;
  p.pack_factor = pack_factor;
  p.pack_k_tile = calib.packed_k_tile;
  p.pack_spill_ops = calib.packed_spill_ops;
  return p;
}

GemmBlockPlan plan_tacker(const arch::Calibration& calib, int cuda_cols) {
  GemmBlockPlan p;
  p.tile_m = calib.tc_tile_m;
  p.tile_k = calib.tc_tile_k;
  p.tc_cols = calib.tc_tile_n;
  p.int_cols = cuda_cols;
  // Two INT warps cover the narrow CUDA slice: wide enough to amortize
  // per-k-step overhead, spread over two sub-cores.
  p.int_warps = 2;
  return p;
}

GemmBlockPlan plan_tc_ic_fc(const arch::Calibration& calib, int cuda_cols) {
  GemmBlockPlan p;
  p.tile_m = calib.tc_tile_m;
  p.tile_k = calib.tc_tile_k;
  p.tc_cols = calib.tc_tile_n;
  p.int_cols = cuda_cols / 2;
  p.fp_cols = cuda_cols - p.int_cols;
  // TC+IC+FC is VitBit without packing (Table 3): it shares Algorithm 1's
  // preprocessing, so the FP slice arrives converted (no runtime casts).
  p.fp_runtime_convert = false;
  p.int_warps = 2;
  p.fp_warps = 2;
  return p;
}

GemmBlockPlan plan_vitbit(const arch::Calibration& calib, int cuda_cols,
                          int pack_factor) {
  GemmBlockPlan p;
  p.tile_m = calib.tc_tile_m;
  p.tile_k = calib.tc_tile_k;
  p.tc_cols = calib.tc_tile_n;
  // Equation 1 split of the CUDA slice.
  p.int_cols =
      round_up(cuda_cols * pack_factor / (pack_factor + 1), pack_factor);
  p.fp_cols = std::max(0, cuda_cols - p.int_cols);
  p.int_warps = 2;
  p.fp_warps = 2;
  p.pack_int = true;
  p.pack_factor = pack_factor;
  p.pack_k_tile = calib.packed_k_tile;
  p.pack_spill_ops = calib.packed_spill_ops;
  return p;
}

}  // namespace vitbit::trace
