#include "machine/simulator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <set>

#include "machine/conflict_model.h"
#include "support/diagnostics.h"
#include "support/matching.h"
#include "support/rng.h"
#include "telemetry/telemetry.h"

namespace parmem::machine {

namespace {

/// Emits the run's headline numbers as telemetry counters so traces line up
/// simulator cost against the compile-time phases. Mirrors RunResult — the
/// invariants tying these together are tested in
/// tests/machine/run_result_invariants_test.cpp.
void count_run(const RunResult& res) {
#if PARMEM_TELEMETRY_ENABLED
  PARMEM_COUNTER_ADD("sim.runs", 1);
  PARMEM_COUNTER_ADD("sim.cycles", res.cycles);
  PARMEM_COUNTER_ADD("sim.words", res.words_executed);
  PARMEM_COUNTER_ADD("sim.conflict_words", res.conflict_words);
  PARMEM_COUNTER_ADD("sim.stall_cycles", res.cycles - res.words_executed);
  PARMEM_COUNTER_ADD("sim.memory_transfer_time", res.memory_transfer_time);
  PARMEM_COUNTER_ADD("sim.scalar_fetches", res.scalar_fetches);
  PARMEM_COUNTER_ADD("sim.array_accesses", res.array_accesses);
  PARMEM_COUNTER_ADD("sim.transfers_executed", res.transfers_executed);
#else
  (void)res;
#endif
}

}  // namespace

const char* array_policy_name(ArrayPolicy p) {
  switch (p) {
    case ArrayPolicy::kInterleaved: return "interleaved";
    case ArrayPolicy::kSingleModule: return "single-module";
    case ArrayPolicy::kUniformRandom: return "uniform-random";
    case ArrayPolicy::kIdealSpread: return "ideal-spread";
    case ArrayPolicy::kWorstCase: return "worst-case";
  }
  PARMEM_UNREACHABLE("bad array policy");
}

namespace {

using ir::Opcode;
using ir::Operand;
using ir::ScalarType;

/// A run-time scalar: exactly one of the two fields is live, per the
/// value's declared type.
struct Cell {
  std::int64_t i = 0;
  double r = 0.0;
};

[[noreturn]] void runtime_error(const std::string& msg) {
  throw support::UserError("run-time error: " + msg);
}

class Evaluator {
 public:
  Evaluator(const ir::ValueTable& values, const ir::ArrayTable& arrays)
      : values_(values) {
    env_.resize(values.size());
    mem_.reserve(arrays.size());
    for (ir::ArrayId a = 0; a < arrays.size(); ++a) {
      mem_.emplace_back(arrays.info(a).length);
    }
  }

  /// Loads initial array contents (arrays not mentioned stay zeroed).
  void load_image(const MemoryImage& image, const ir::ArrayTable& arrays) {
    for (const MemoryImage::ArrayInit& init : image.arrays) {
      PARMEM_CHECK(init.array < mem_.size(), "image array id out of range");
      const bool is_real =
          arrays.info(init.array).type == ScalarType::kReal;
      const std::size_t n =
          is_real ? init.reals.size() : init.ints.size();
      PARMEM_CHECK(n <= mem_[init.array].size(),
                   "image longer than the array");
      for (std::size_t i = 0; i < n; ++i) {
        if (is_real) {
          mem_[init.array][i].r = init.reals[i];
        } else {
          mem_[init.array][i].i = init.ints[i];
        }
      }
    }
  }

  Cell read_operand(const Operand& o) const {
    switch (o.kind) {
      case Operand::Kind::kValue:
        return env_[o.value];
      case Operand::Kind::kImmInt: {
        Cell c;
        c.i = o.imm_int;
        return c;
      }
      case Operand::Kind::kImmReal: {
        Cell c;
        c.r = o.imm_real;
        return c;
      }
      case Operand::Kind::kNone:
        break;
    }
    PARMEM_UNREACHABLE("read of an absent operand");
  }

  bool operand_is_real(const Operand& o) const {
    if (o.kind == Operand::Kind::kImmReal) return true;
    if (o.kind == Operand::Kind::kValue) {
      return values_.info(o.value).type == ScalarType::kReal;
    }
    return false;
  }

  /// Evaluates a non-control op; returns the destination cell.
  /// `array_index` (when relevant) has already been read.
  Cell eval(const ir::TacInstr& in) const {
    const auto A = [&] { return read_operand(in.a); };
    const auto B = [&] { return read_operand(in.b); };
    const bool real_op = operand_is_real(in.a);
    Cell out;
    switch (in.op) {
      case Opcode::kMov:
        return A();
      case Opcode::kAdd:
        if (real_op) out.r = A().r + B().r; else out.i = A().i + B().i;
        return out;
      case Opcode::kSub:
        if (real_op) out.r = A().r - B().r; else out.i = A().i - B().i;
        return out;
      case Opcode::kMul:
        if (real_op) out.r = A().r * B().r; else out.i = A().i * B().i;
        return out;
      case Opcode::kDiv:
        if (real_op) {
          if (B().r == 0.0) runtime_error("real division by zero");
          out.r = A().r / B().r;
        } else {
          if (B().i == 0) runtime_error("integer division by zero");
          out.i = A().i / B().i;
        }
        return out;
      case Opcode::kMod:
        if (B().i == 0) runtime_error("modulo by zero");
        out.i = A().i % B().i;
        return out;
      case Opcode::kNeg:
        if (real_op) out.r = -A().r; else out.i = -A().i;
        return out;
      case Opcode::kCmpEq:
        out.i = real_op ? (A().r == B().r) : (A().i == B().i);
        return out;
      case Opcode::kCmpNe:
        out.i = real_op ? (A().r != B().r) : (A().i != B().i);
        return out;
      case Opcode::kCmpLt:
        out.i = real_op ? (A().r < B().r) : (A().i < B().i);
        return out;
      case Opcode::kCmpLe:
        out.i = real_op ? (A().r <= B().r) : (A().i <= B().i);
        return out;
      case Opcode::kCmpGt:
        out.i = real_op ? (A().r > B().r) : (A().i > B().i);
        return out;
      case Opcode::kCmpGe:
        out.i = real_op ? (A().r >= B().r) : (A().i >= B().i);
        return out;
      case Opcode::kAnd:
        out.i = (A().i != 0 && B().i != 0) ? 1 : 0;
        return out;
      case Opcode::kOr:
        out.i = (A().i != 0 || B().i != 0) ? 1 : 0;
        return out;
      case Opcode::kNot:
        out.i = A().i == 0 ? 1 : 0;
        return out;
      case Opcode::kToReal:
        out.r = static_cast<double>(A().i);
        return out;
      case Opcode::kToInt:
        out.i = static_cast<std::int64_t>(A().r);
        return out;
      case Opcode::kSqrt:
        if (A().r < 0) runtime_error("sqrt of a negative number");
        out.r = std::sqrt(A().r);
        return out;
      case Opcode::kSin:
        out.r = std::sin(A().r);
        return out;
      case Opcode::kCos:
        out.r = std::cos(A().r);
        return out;
      case Opcode::kAbs:
        if (real_op) out.r = std::fabs(A().r); else out.i = std::llabs(A().i);
        return out;
      case Opcode::kSelect:
        return A().i != 0 ? B() : read_operand(in.c);
      case Opcode::kLoad: {
        const std::int64_t idx = A().i;
        check_index(in.array, idx);
        return mem_[in.array][static_cast<std::size_t>(idx)];
      }
      default:
        PARMEM_UNREACHABLE("eval of a non-value op");
    }
  }

  void check_index(ir::ArrayId a, std::int64_t idx) const {
    if (idx < 0 || static_cast<std::size_t>(idx) >= mem_[a].size()) {
      runtime_error("array index " + std::to_string(idx) +
                    " out of bounds (length " +
                    std::to_string(mem_[a].size()) + ")");
    }
  }

  std::string format(const Operand& o) const {
    const Cell c = read_operand(o);
    if (operand_is_real(o)) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.12g", c.r);
      return buf;
    }
    return std::to_string(c.i);
  }

  std::vector<Cell> env_;
  std::vector<std::vector<Cell>> mem_;

 private:
  const ir::ValueTable& values_;
};

/// Accounting for one word's module traffic.
struct WordTraffic {
  std::vector<std::uint64_t> load;     // per module
  std::size_t random_array_accesses = 0;

  explicit WordTraffic(std::size_t k) : load(k, 0) {}

  std::uint64_t max_load() const {
    return *std::max_element(load.begin(), load.end());
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t l : load) t += l;
    return t;
  }
};

}  // namespace

RunResult run_liw(const ir::LiwProgram& prog,
                  const assign::AssignResult& assignment,
                  const MachineConfig& config, const MemoryImage& image) {
  PARMEM_SPAN("sim.run_liw");
  const std::size_t k = config.module_count;
  PARMEM_CHECK(k >= 1, "need at least one module");
  PARMEM_CHECK(assignment.placement.size() == prog.values.size(),
               "assignment does not match the program's value table");
  ir::validate_liw(prog, config.fu_count);

  Evaluator ev(prog.values, prog.arrays);
  ev.load_image(image, prog.arrays);
  support::SplitMix64 rng(config.seed);
  RunResult res;
  res.module_accesses.assign(k, 0);

  // Interleaving bases: arrays start at staggered offsets.
  std::vector<std::size_t> array_base(prog.arrays.size(), 0);
  {
    std::size_t offset = 0;
    for (ir::ArrayId a = 0; a < prog.arrays.size(); ++a) {
      array_base[a] = offset % k;
      offset += prog.arrays.info(a).length;
    }
  }

  std::size_t pc = 0;
  while (pc < prog.words.size()) {
    PARMEM_CHECK(res.words_executed < config.max_words,
                 "word budget exceeded — is the program diverging?");
    const ir::LiwWord& word = prog.words[pc];

    // ---- Timing: module traffic of this word. ----
    // Fixed part first (scalar fetches, transfers, optional writes): this
    // is the `base` both the concrete timing and the analytic model share.
    WordTraffic traffic(k);

    // Scalar fetches: distinct read values, assigned distinct modules when
    // the copy sets allow it.
    std::set<ir::ValueId> reads;
    for (const ir::TacInstr& op : word.ops) {
      if (op.op == Opcode::kXfer) continue;
      for (const ir::ValueId u : op.value_uses()) reads.insert(u);
    }
    {
      std::vector<ir::ValueId> read_list(reads.begin(), reads.end());
      const std::size_t n = read_list.size();
      std::array<assign::ModuleSet, assign::kMaxModules> masks;
      std::array<std::uint32_t, assign::kMaxModules> reps;
      // A ModuleSet names modules < kMaxModules only, so wider machines
      // match over that prefix.
      const std::size_t sdr_k = std::min(k, assign::kMaxModules);
      bool all_placed = n <= sdr_k;
      for (std::size_t i = 0; all_placed && i < n; ++i) {
        masks[i] = assignment.placement[read_list[i]];
        all_placed = masks[i] != 0;
      }
      if (all_placed && support::has_distinct_representatives(
                            {masks.data(), n}, sdr_k, {reps.data(), n})) {
        for (std::size_t i = 0; i < n; ++i) ++traffic.load[reps[i]];
      } else {
        // Residual conflict (or unplaced value): serialize greedily — each
        // fetch takes the least-loaded module holding a copy.
        for (const ir::ValueId v : read_list) {
          const assign::ModuleSet s = assignment.placement[v];
          std::uint32_t best = v % static_cast<std::uint32_t>(k);
          if (s != 0) {
            const auto mods = assign::modules_of(s);
            best = mods[0];
            for (const std::uint32_t m : mods) {
              if (traffic.load[m] < traffic.load[best]) best = m;
            }
          }
          ++traffic.load[best];
        }
      }
      res.scalar_fetches += read_list.size();
    }

    // Writes (optional) and transfers (always).
    for (const ir::TacInstr& op : word.ops) {
      if (op.op == Opcode::kXfer) {
        ++traffic.load[op.xfer_src_module];
        ++traffic.load[op.xfer_dst_module];
        ++res.transfers_executed;
        continue;
      }
      if (config.count_writes && ir::has_dst(op.op)) {
        const assign::ModuleSet s = assignment.placement[op.dst];
        const std::uint32_t m =
            s != 0 ? assign::modules_of(s)[0]
                   : op.dst % static_cast<std::uint32_t>(k);
        ++traffic.load[m];
      }
    }
    const std::vector<std::uint64_t> fixed_base = traffic.load;

    // Array accesses.
    for (const ir::TacInstr& op : word.ops) {
      if (op.op != Opcode::kLoad && op.op != Opcode::kStore) continue;
      ++res.array_accesses;
      ++traffic.random_array_accesses;
      const std::int64_t idx = ev.read_operand(op.a).i;
      std::uint32_t m = 0;
      switch (config.array_policy) {
        case ArrayPolicy::kInterleaved:
          m = static_cast<std::uint32_t>(
              (array_base[op.array] + static_cast<std::uint64_t>(
                                          std::max<std::int64_t>(idx, 0))) %
              k);
          break;
        case ArrayPolicy::kSingleModule:
          m = 0;
          break;
        case ArrayPolicy::kUniformRandom:
          m = static_cast<std::uint32_t>(rng.below(k));
          break;
        case ArrayPolicy::kIdealSpread: {
          m = 0;
          for (std::uint32_t j = 1; j < k; ++j) {
            if (traffic.load[j] < traffic.load[m]) m = j;
          }
          break;
        }
        case ArrayPolicy::kWorstCase: {
          m = 0;
          for (std::uint32_t j = 1; j < k; ++j) {
            if (traffic.load[j] > traffic.load[m]) m = j;
          }
          break;
        }
      }
      ++traffic.load[m];
    }

    // Commit timing.
    const std::uint64_t max_load = traffic.max_load();
    const std::uint64_t word_time =
        std::max<std::uint64_t>(1, config.delta * max_load);
    res.cycles += word_time;
    res.memory_transfer_time += config.delta * max_load;
    if (res.max_load_histogram.size() <= max_load) {
      res.max_load_histogram.resize(max_load + 1, 0);
    }
    ++res.max_load_histogram[max_load];
    if (max_load > 1) ++res.conflict_words;
    for (std::size_t m = 0; m < k; ++m) {
      res.module_accesses[m] += traffic.load[m];
    }
    // Analytic model: the fixed base load is what the compile-time
    // assignment produced; array accesses are uniform random over modules.
    res.analytic_transfer_time +=
        static_cast<double>(config.delta) *
        expected_max_load(fixed_base, traffic.random_array_accesses);

    // ---- Functional execution: reads before writes. ----
    struct Write {
      ir::ValueId dst;
      Cell value;
    };
    std::vector<Write> scalar_writes;
    struct ArrayWrite {
      ir::ArrayId array;
      std::int64_t index;
      Cell value;
    };
    std::vector<ArrayWrite> array_writes;
    std::int64_t branch_to = -1;
    bool halted = false;

    for (const ir::TacInstr& op : word.ops) {
      ++res.ops_executed;
      switch (op.op) {
        case Opcode::kNop:
        case Opcode::kXfer:
          break;
        case Opcode::kStore: {
          const std::int64_t idx = ev.read_operand(op.a).i;
          ev.check_index(op.array, idx);
          array_writes.push_back({op.array, idx, ev.read_operand(op.b)});
          break;
        }
        case Opcode::kBr:
          branch_to = static_cast<std::int64_t>(op.target);
          break;
        case Opcode::kBrTrue:
          if (ev.read_operand(op.a).i != 0) {
            branch_to = static_cast<std::int64_t>(op.target);
          }
          break;
        case Opcode::kBrFalse:
          if (ev.read_operand(op.a).i == 0) {
            branch_to = static_cast<std::int64_t>(op.target);
          }
          break;
        case Opcode::kPrint:
          res.output.push_back(ev.format(op.a));
          break;
        case Opcode::kHalt:
          halted = true;
          break;
        default:
          scalar_writes.push_back({op.dst, ev.eval(op)});
          break;
      }
    }
    for (const Write& w : scalar_writes) ev.env_[w.dst] = w.value;
    for (const ArrayWrite& w : array_writes) {
      ev.mem_[w.array][static_cast<std::size_t>(w.index)] = w.value;
    }

    ++res.words_executed;
    if (halted) break;
    pc = branch_to >= 0 ? static_cast<std::size_t>(branch_to) : pc + 1;
  }
  count_run(res);
  return res;
}

RunResult run_sequential(const ir::TacProgram& prog,
                         const MachineConfig& config,
                         const MemoryImage& image) {
  PARMEM_SPAN("sim.run_sequential");
  Evaluator ev(prog.values, prog.arrays);
  ev.load_image(image, prog.arrays);
  RunResult res;
  res.module_accesses.assign(config.module_count, 0);

  std::size_t pc = 0;
  while (pc < prog.instrs.size()) {
    PARMEM_CHECK(res.words_executed < config.max_words,
                 "instruction budget exceeded — is the program diverging?");
    const ir::TacInstr& in = prog.instrs[pc];
    ++res.ops_executed;
    ++res.words_executed;

    // Timing: every access serialized through one port.
    std::uint64_t accesses = in.value_uses().size();
    if (in.op == Opcode::kLoad || in.op == Opcode::kStore) {
      ++accesses;
      ++res.array_accesses;
    }
    if (config.count_writes && ir::has_dst(in.op)) ++accesses;
    res.scalar_fetches += in.value_uses().size();
    res.cycles += std::max<std::uint64_t>(1, config.delta * accesses);
    res.memory_transfer_time += config.delta * accesses;

    switch (in.op) {
      case Opcode::kNop:
      case Opcode::kXfer:
        ++pc;
        break;
      case Opcode::kStore: {
        const std::int64_t idx = ev.read_operand(in.a).i;
        ev.check_index(in.array, idx);
        ev.mem_[in.array][static_cast<std::size_t>(idx)] =
            ev.read_operand(in.b);
        ++pc;
        break;
      }
      case Opcode::kBr:
        pc = in.target;
        break;
      case Opcode::kBrTrue:
        pc = ev.read_operand(in.a).i != 0 ? in.target : pc + 1;
        break;
      case Opcode::kBrFalse:
        pc = ev.read_operand(in.a).i == 0 ? in.target : pc + 1;
        break;
      case Opcode::kPrint:
        res.output.push_back(ev.format(in.a));
        ++pc;
        break;
      case Opcode::kHalt:
        count_run(res);
        return res;
      default:
        ev.env_[in.dst] = ev.eval(in);
        ++pc;
        break;
    }
  }
  count_run(res);
  return res;
}

}  // namespace parmem::machine
