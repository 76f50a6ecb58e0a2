// Regenerates the paper's worked examples (Figs. 1, 3, 5 and 8) through the
// public API, printing allocation matrices in the paper's X-notation.
#include <cstdio>

#include "assign/assigner.h"
#include "assign/verify.h"
#include "support/table.h"

namespace {

using namespace parmem;

void print_allocation(const ir::AccessStream& stream,
                      const assign::AssignResult& r) {
  std::vector<std::string> header{"value"};
  for (std::size_t m = 0; m < r.module_count; ++m) {
    header.push_back(std::string("M").append(std::to_string(m + 1)));
  }
  support::TextTable table(std::move(header));
  std::vector<bool> used(stream.value_count, false);
  for (const auto& t : stream.tuples) {
    for (const ir::ValueId v : t.operands) used[v] = true;
  }
  for (ir::ValueId v = 0; v < stream.value_count; ++v) {
    if (!used[v]) continue;
    std::vector<std::string> row{
        std::string("V").append(std::to_string(v + 1))};
    for (std::size_t m = 0; m < r.module_count; ++m) {
      row.push_back(assign::holds(r.placement[v], static_cast<std::uint32_t>(m))
                        ? "x"
                        : "-");
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  const auto report = assign::verify_assignment(stream, r);
  std::printf("copies: %zu total, %zu values multi-copy; predictable "
              "conflicts remaining: %zu\n\n",
              r.stats.total_copies, r.stats.multi_copy,
              report.conflicting_tuples.size());
}

void run_case(const char* title, std::size_t k,
              std::vector<std::vector<ir::ValueId>> tuples,
              const char* expectation) {
  std::printf("---- %s ----\n", title);
  std::printf("%s\n", expectation);
  const auto stream =
      ir::AccessStream::from_tuples(/*value_count=*/5, std::move(tuples));
  assign::AssignOptions o;
  o.module_count = k;
  const auto r = assign::assign_modules(stream, o);
  print_allocation(stream, r);
}

}  // namespace

int main() {
  std::printf("Worked examples from the paper, regenerated\n\n");

  run_case("Fig. 1: three instructions, k=3", 3,
           {{0, 1, 3}, {1, 2, 4}, {1, 2, 3}},
           "paper: a single-copy conflict-free allocation exists");

  run_case("Fig. 1 extended (+V2V4V5), k=3", 3,
           {{0, 1, 3}, {1, 2, 4}, {1, 2, 3}, {1, 3, 4}},
           "paper: one value needs a second copy (V5 in M1 and M3)");

  run_case("Fig. 1 fully extended (+V1V4V5), k=3", 3,
           {{0, 1, 3}, {1, 2, 4}, {1, 2, 3}, {1, 3, 4}, {0, 3, 4}},
           "paper: V5 ends with a copy in all three modules");

  run_case("Fig. 3: six instructions, k=3 (node-removal choice matters)", 3,
           {{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 2, 4}, {1, 2, 4}, {0, 3, 4}},
           "paper: poor removal {V4,V5} costs 8 copies; good removal "
           "{V2,V5} costs 7");

  run_case("Fig. 5: applying the coloring heuristic, k=3", 3,
           {{0, 1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 3, 4},
            {1, 2, 4}},
           "paper: four values colored directly, V5 removed and duplicated");

  run_case("Fig. 8: placement choice, k=4", 4,
           {{0, 1, 2, 4}, {3, 1, 2, 4}, {0, 1, 2, 3}, {3, 1, 0, 4}},
           "paper: good placement needs 3 copies of the removed value, poor "
           "placement 4 (7 vs 8 total)");

  return 0;
}
