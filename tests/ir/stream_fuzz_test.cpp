// Malformed-input corpus for the access-stream parser: every hostile
// input must be rejected with a UserError that names the source, line and
// column — never a crash, a PARMEM_CHECK failure, or an uncontrolled
// allocation. Truncations and random byte mutations of a valid stream are
// additionally required to either parse or raise UserError, nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ir/stream_io.h"
#include "support/diagnostics.h"
#include "support/rng.h"

namespace parmem::ir {
namespace {

/// Parses `text`, asserting the only acceptable outcomes: success or a
/// UserError. Returns the diagnostic ("" on success).
std::string parse_outcome(const std::string& text,
                          const std::string& name = "<stream>") {
  try {
    parse_stream(text, name);
    return "";
  } catch (const support::UserError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-UserError exception: " << e.what()
                  << "\n--- input ---\n" << text;
    return e.what();
  }
}

TEST(StreamFuzz, MalformedCorpusRaisesUserErrorWithExpectedMessage) {
  const struct Case {
    const char* input;
    const char* expect;  // substring of the diagnostic
  } corpus[] = {
      {"", "missing 'stream <n>' header"},
      {"# only a comment\n", "missing 'stream <n>' header"},
      {"tuple 0 1\n", "header must come first"},
      {"stream\n", "usage: stream <value_count>"},
      {"stream 4 9\n", "usage: stream <value_count>"},
      {"stream four\n", "malformed number"},
      {"stream -4\n", "malformed number"},
      {"stream 99999999999999999999\n", "number out of range"},
      {"stream 999999999999\n", "exceeds the limit"},
      {"stream 4\nstream 4\n", "duplicate 'stream' header"},
      {"stream 4\ntuple\n", "empty tuple"},
      {"stream 4\ntuple 9\n", "out of range"},
      {"stream 4\ntuple 0 x\n", "malformed number"},
      {"stream 4\ntuple @x 0\n", "malformed number"},
      {"stream 4\ntuple @ 0\n", "malformed number"},
      {"stream 4\nmutable 7\n", "out of range"},
      {"stream 4\nglobal nope\n", "malformed number"},
      {"stream 4\nfrobnicate 1\n", "unknown directive"},
      {"stream 4\ntuple 0 18446744073709551616\n", "number out of range"},
  };
  for (const Case& c : corpus) {
    SCOPED_TRACE(std::string("input: ") + c.input);
    const std::string diag = parse_outcome(c.input);
    ASSERT_FALSE(diag.empty()) << "hostile input parsed";
    EXPECT_NE(diag.find(c.expect), std::string::npos) << "got: " << diag;
  }
}

TEST(StreamFuzz, DiagnosticsCarrySourceNameLineAndColumn) {
  // "9" sits at line 2 column 7 of this input.
  const std::string diag =
      parse_outcome("stream 4\ntuple 9\n", "input.stream");
  EXPECT_EQ(diag.rfind("input.stream:2:7:", 0), 0u) << "got: " << diag;
  // The legacy "(line N)" form survives for existing consumers.
  EXPECT_NE(diag.find("(line 2)"), std::string::npos) << "got: " << diag;

  // The '@' region prefix reports the column of the digits, not the '@'.
  const std::string region =
      parse_outcome("stream 4\ntuple @zz 1\n", "r.stream");
  EXPECT_EQ(region.rfind("r.stream:2:8:", 0), 0u) << "got: " << region;
}

std::string valid_stream_text() {
  AccessStream s;
  s.value_count = 12;
  s.duplicatable.assign(12, true);
  s.global.assign(12, false);
  s.duplicatable[3] = false;
  s.global[7] = true;
  support::SplitMix64 rng(0x57aef);
  for (int t = 0; t < 24; ++t) {
    AccessTuple tuple;
    tuple.region = static_cast<RegionId>(rng.below(3));
    const std::size_t width = 2 + rng.below(3);
    for (std::size_t o = 0; o < width; ++o) {
      const ValueId v = static_cast<ValueId>(rng.below(12));
      if (std::find(tuple.operands.begin(), tuple.operands.end(), v) ==
          tuple.operands.end()) {
        tuple.operands.push_back(v);
      }
    }
    std::sort(tuple.operands.begin(), tuple.operands.end());
    s.tuples.push_back(std::move(tuple));
  }
  return format_stream(s);
}

TEST(StreamFuzz, EveryTruncationParsesOrRaisesUserError) {
  const std::string text = valid_stream_text();
  EXPECT_EQ(parse_outcome(text), "") << "the untruncated stream must parse";
  for (std::size_t len = 0; len < text.size(); ++len) {
    parse_outcome(text.substr(0, len));  // asserts on non-UserError inside
  }
}

TEST(StreamFuzz, RandomByteMutationsNeverCrash) {
  const std::string text = valid_stream_text();
  support::SplitMix64 rng(0xf22);
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = text;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:  // flip to a random printable-ish byte
          mutated[at] = static_cast<char>(32 + rng.below(96));
          break;
        case 1:  // delete
          mutated.erase(at, 1);
          break;
        default:  // duplicate
          mutated.insert(at, 1, mutated[at]);
          break;
      }
      if (mutated.empty()) break;
    }
    parse_outcome(mutated);  // success or UserError only
  }
}

TEST(StreamFuzz, HugeOperandListsAreHandled) {
  // Thousands of repeated operands on one tuple: dedup keeps it linear and
  // the parse succeeds.
  std::string text = "stream 8\ntuple";
  for (int i = 0; i < 20'000; ++i) {
    text += ' ';
    text += std::to_string(i % 8);
  }
  text += "\n";
  const AccessStream s = parse_stream(text);
  ASSERT_EQ(s.tuples.size(), 1u);
  EXPECT_EQ(s.tuples[0].operands.size(), 8u);
}

TEST(StreamFuzz, HeaderAllocationIsBoundedNotTrusted) {
  // Just above the cap: rejected up front instead of allocating blindly.
  const std::string diag = parse_outcome("stream 268435457\n");  // 2^28 + 1
  EXPECT_NE(diag.find("exceeds the limit"), std::string::npos);
  // At most the cap: accepted (the metadata is two bit-vectors, a few MB).
  EXPECT_EQ(parse_outcome("stream 1048576\n"), "");
}

}  // namespace
}  // namespace parmem::ir
