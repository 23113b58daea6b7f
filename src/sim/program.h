// Warp programs: fully-unrolled instruction traces with explicit register
// dependencies, produced by the trace builders and consumed by the SM
// simulator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/isa.h"

namespace vitbit::sim {

constexpr std::uint16_t kNoReg = 0xFFFF;
constexpr std::uint8_t kNoOperand = 0xFF;

// Fields are ordered so the two byte-wide ones share a word: 24 bytes per
// instruction, the unit of every trace's memory.
struct Instr {
  Opcode op = Opcode::kNop;
  // Global ops, addressed mode: which logical operand region this access
  // touches (kNoOperand when the trace is address-free). See `offset`.
  std::uint8_t operand = kNoOperand;
  std::uint16_t dst = kNoReg;
  std::array<std::uint16_t, 3> src = {kNoReg, kNoReg, kNoReg};
  // Memory ops: bytes moved by the whole warp (drives LSU occupancy).
  std::uint32_t bytes = 0;
  // Global ops: bytes charged against DRAM bandwidth. Below `bytes` when
  // part of the transfer hits L2 (cross-block reuse of shared GEMM
  // operands). Defaults to `bytes` via the builder. Used by the default
  // (single-SM, derate-based) memory model.
  std::uint32_t dram_bytes = 0;
  // Global ops, addressed mode: byte offset within `operand`, relative to
  // the executing warp's operand offset (OperandOffsets). The multi-SM L2
  // simulation resolves it to a physical address per block and warp
  // (sim/gpu_sim.h).
  std::uint32_t offset = 0;

  bool operator==(const Instr&) const = default;
};
static_assert(sizeof(Instr) == 24, "Instr must stay packed to 24 bytes");

// Number of logical operand regions an addressed trace can touch.
constexpr std::size_t kNumOperands = 4;

// One warp's byte offsets into each logical operand region, added to the
// Instr::offset of its addressed accesses. The warps of one class differ
// only in the operand slice they touch, so they share one program and
// carry their slice here instead.
using OperandOffsets = std::array<std::uint32_t, kNumOperands>;

struct Program {
  std::vector<Instr> code;
  std::uint16_t num_regs = 0;

  std::size_t size() const { return code.size(); }
  bool operator==(const Program&) const = default;
};

using ProgramPtr = std::shared_ptr<const Program>;

// Convenience builder with register allocation and typed emit helpers.
// Register pressure stays bounded because builders reuse temp registers.
class ProgramBuilder {
 public:
  std::uint16_t new_reg();

  // Raw emit.
  void emit(Opcode op, std::uint16_t dst, std::uint16_t s0 = kNoReg,
            std::uint16_t s1 = kNoReg, std::uint16_t s2 = kNoReg,
            std::uint32_t bytes = 0);

  // ALU helpers (dst may equal a source: accumulators).
  void iadd(std::uint16_t dst, std::uint16_t a, std::uint16_t b);
  void imad(std::uint16_t dst, std::uint16_t a, std::uint16_t b,
            std::uint16_t c);
  void isetp(std::uint16_t dst, std::uint16_t a);
  void shf(std::uint16_t dst, std::uint16_t a);
  void lop3(std::uint16_t dst, std::uint16_t a, std::uint16_t b);
  void i2f(std::uint16_t dst, std::uint16_t a);
  void ffma(std::uint16_t dst, std::uint16_t a, std::uint16_t b,
            std::uint16_t c);
  void fadd(std::uint16_t dst, std::uint16_t a, std::uint16_t b);
  void fmul(std::uint16_t dst, std::uint16_t a, std::uint16_t b);
  void mufu(std::uint16_t dst, std::uint16_t a);
  void imma(std::uint16_t dst, std::uint16_t a, std::uint16_t b);
  // Memory helpers. `dram_bytes` < bytes models partial L2 hits; pass
  // 0xFFFFFFFF (default) to charge the full transfer. `operand`/`offset`
  // optionally address the access for the L2 simulation.
  void ldg(std::uint16_t dst, std::uint32_t bytes,
           std::uint32_t dram_bytes = UINT32_MAX,
           std::uint8_t operand = kNoOperand, std::uint32_t offset = 0);
  void stg(std::uint16_t data, std::uint32_t bytes,
           std::uint32_t dram_bytes = UINT32_MAX,
           std::uint8_t operand = kNoOperand, std::uint32_t offset = 0);
  void lds(std::uint16_t dst, std::uint32_t bytes);
  void sts(std::uint16_t data, std::uint32_t bytes);
  // Control.
  void bar();
  void bra(std::uint16_t pred);
  void exit();

  ProgramPtr build();

  std::size_t size() const { return prog_.code.size(); }

  // Mutable access to the most recently emitted instruction (e.g. to patch
  // an ALU immediate into Instr::offset).
  Instr& last();

 private:
  Program prog_;
};

}  // namespace vitbit::sim
