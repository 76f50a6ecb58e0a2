// Differential fuzzing: random structured MC programs are compiled through
// randomized pipeline configurations; every run must (1) verify the
// assignment conflict-free, (2) produce identical output on the lock-step
// LIW machine and the sequential reference, and (3) be deterministic.
//
// The generator emits only defined behaviour: integer arithmetic without
// division, array indices clamped via abs(e) % length, loops with small
// constant bounds.
#include <gtest/gtest.h>

#include <string>

#include "analysis/pipeline.h"
#include "support/rng.h"

namespace parmem::analysis {
namespace {

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    src_ = "func main() {\n";
    // Declarations.
    for (int v = 0; v < kVars; ++v) {
      src_ += "  var v" + std::to_string(v) +
              ": int = " + std::to_string(rng_.range(-9, 9)) + ";\n";
    }
    src_ += "  array arr: int[" + std::to_string(kArrayLen) + "];\n";
    block(2, 8);
    // Observations: print everything.
    for (int v = 0; v < kVars; ++v) {
      src_ += "  print(v" + std::to_string(v) + ");\n";
    }
    src_ += "  var chk: int = 0;\n  var ci: int;\n";
    src_ += "  for ci = 0 to " + std::to_string(kArrayLen - 1) +
            " { chk = chk * 3 + arr[ci]; }\n  print(chk);\n";
    src_ += "}\n";
    return src_;
  }

 private:
  static constexpr int kVars = 5;
  static constexpr int kArrayLen = 8;

  std::string var() {
    return std::string("v").append(std::to_string(rng_.below(kVars)));
  }

  std::string expr(int depth) {
    if (depth == 0 || rng_.below(3) == 0) {
      switch (rng_.below(3)) {
        case 0: return std::to_string(rng_.range(-9, 9));
        case 1: return var();
        default:
          return "arr[abs(" + var() + ") % " + std::to_string(kArrayLen) +
                 "]";
      }
    }
    const char* ops[] = {"+", "-", "*"};
    if (rng_.below(5) == 0) {
      const char* cmps[] = {"<", "<=", ">", ">=", "==", "!="};
      return "(" + expr(depth - 1) + " " + cmps[rng_.below(6)] + " " +
             expr(depth - 1) + ")";
    }
    return "(" + expr(depth - 1) + " " + ops[rng_.below(3)] + " " +
           expr(depth - 1) + ")";
  }

  void statement(int depth) {
    switch (rng_.below(depth > 0 ? 5 : 2)) {
      case 0:
        src_ += indent_ + var() + " = " + expr(2) + ";\n";
        break;
      case 1:
        src_ += indent_ + "arr[abs(" + expr(1) + ") % " +
                std::to_string(kArrayLen) + "] = " + expr(2) + ";\n";
        break;
      case 2: {  // if / if-else
        src_ += indent_ + "if (" + expr(1) + " > " + expr(1) + ") {\n";
        block(depth - 1, 3);
        if (rng_.below(2) == 0) {
          src_ += indent_ + "} else {\n";
          block(depth - 1, 3);
        }
        src_ += indent_ + "}\n";
        break;
      }
      case 3: {  // bounded for loop over a fresh iterator
        const std::string it = "i" + std::to_string(loop_id_++);
        src_ += indent_ + "var " + it + ": int;\n";
        src_ += indent_ + "for " + it + " = 0 to " +
                std::to_string(rng_.below(5)) + " {\n";
        block(depth - 1, 3);
        src_ += indent_ + "}\n";
        break;
      }
      default:
        src_ += indent_ + "print(" + expr(2) + ");\n";
        break;
    }
  }

  void block(int depth, int max_stmts) {
    indent_ += "  ";
    const std::size_t n = 1 + rng_.below(static_cast<std::uint64_t>(max_stmts));
    for (std::size_t s = 0; s < n; ++s) statement(depth);
    indent_.resize(indent_.size() - 2);
  }

  support::SplitMix64 rng_;
  std::string src_ = "";
  std::string indent_ = "";
  int loop_id_ = 0;
};

PipelineOptions random_options(support::SplitMix64& rng) {
  PipelineOptions o;
  const std::size_t ks[] = {2, 3, 4, 8};
  o.sched.module_count = o.assign.module_count = ks[rng.below(4)];
  o.sched.fu_count = 1 + rng.below(8);
  o.assign.strategy = static_cast<assign::Strategy>(rng.below(3));
  o.assign.method = static_cast<assign::DupMethod>(rng.below(2));
  o.assign.stor3_windows = 1 + rng.below(4);
  o.assign.use_atoms = rng.below(2) == 0;
  o.rename = rng.below(2) == 0;
  o.optimize = rng.below(4) != 0;
  o.if_convert.max_ops = rng.below(4) == 0 ? 0 : 24;
  o.unroll.max_trip = rng.below(4) == 0 ? 0 : 16;
  o.assign.seed = rng.next();
  return o;
}

TEST(Fuzz, RandomProgramsSurviveRandomPipelines) {
  support::SplitMix64 meta(20260707);
  for (int iter = 0; iter < 25; ++iter) {
    ProgramGen gen(1000 + static_cast<std::uint64_t>(iter));
    const std::string src = gen.generate();
    const PipelineOptions opts = random_options(meta);

    Compiled c;
    try {
      c = compile_mc(src, opts);
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " failed to compile: " << e.what()
             << "\n--- source ---\n" << src;
    }
    EXPECT_TRUE(c.verify.ok())
        << "iteration " << iter << ": assignment not conflict-free";

    machine::MachineConfig cfg;
    cfg.module_count = opts.assign.module_count;
    cfg.fu_count = std::max(opts.sched.fu_count, std::size_t{2});
    try {
      const auto pair = run_and_check(c, cfg);  // throws on divergence
      EXPECT_FALSE(pair.liw.output.empty()) << "iteration " << iter;
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " diverged: " << e.what()
             << "\n--- source ---\n" << src;
    }
  }
}

// Batch differential fuzz: random programs through random pipeline
// configurations, compiled one by one and as the jobs of a 4-thread
// compile_batch, must agree bit for bit; and each batch job must still
// pass the machine-level divergence check against the sequential
// reference. The failing program seed is named so violations replay
// directly.
TEST(Fuzz, ParallelPipelineMatchesSerialTaskMode) {
  support::SplitMix64 meta(20260805);
  for (int iter = 0; iter < 12; ++iter) {
    const std::uint64_t program_seed = 5000 + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE("program_seed=" + std::to_string(program_seed));
    ProgramGen gen(program_seed);
    const std::string src = gen.generate();
    PipelineOptions opts = random_options(meta);
    opts.parallel.threads = 4;

    const Compiled serial = compile_mc(src, opts);
    // Two jobs of the same source, so the batch really runs concurrently.
    const std::vector<CompileResult> batch = compile_batch({src, src}, opts);
    for (const CompileResult& job : batch) {
      ASSERT_TRUE(job.ok()) << job.diagnostic;
      const Compiled& parallel = *job.compiled;
      EXPECT_EQ(serial.assignment.placement, parallel.assignment.placement);
      EXPECT_EQ(serial.assignment.removed, parallel.assignment.removed);
      EXPECT_EQ(serial.assignment.stats.total_copies,
                parallel.assignment.stats.total_copies);
      EXPECT_EQ(serial.transfer_stats.transfers,
                parallel.transfer_stats.transfers);
      EXPECT_EQ(serial.liw.to_string(), parallel.liw.to_string());
      EXPECT_TRUE(parallel.verify.ok());

      machine::MachineConfig cfg;
      cfg.module_count = opts.assign.module_count;
      cfg.fu_count = std::max(opts.sched.fu_count, std::size_t{2});
      EXPECT_NO_THROW(run_and_check(parallel, cfg));
    }
  }
}

TEST(Fuzz, PipelineIsDeterministic) {
  ProgramGen gen(42);
  const std::string src = gen.generate();
  support::SplitMix64 meta(7);
  const PipelineOptions opts = random_options(meta);
  const auto c1 = compile_mc(src, opts);
  const auto c2 = compile_mc(src, opts);
  EXPECT_EQ(c1.assignment.placement, c2.assignment.placement);
  EXPECT_EQ(c1.sched_stats.words, c2.sched_stats.words);
}

}  // namespace
}  // namespace parmem::analysis
