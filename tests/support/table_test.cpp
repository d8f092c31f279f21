#include "support/table.hpp"

#include <gtest/gtest.h>

#include "support/strings.hpp"

namespace feam::support {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"Suite", "Accuracy"});
  t.add_row({"NAS", "94%"});
  t.add_row({"SPEC MPI2007", "92%"});
  const std::string out = t.render();
  // Every rendered line has the same width.
  const auto lines = split(out, '\n');
  std::size_t width = lines[0].size();
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), width) << line;
    }
  }
  EXPECT_TRUE(contains(out, "SPEC MPI2007"));
  EXPECT_TRUE(contains(out, "94%"));
}

TEST(TextTable, ShortRowsPadWithEmptyCells) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_TRUE(contains(t.render(), "only"));
}

TEST(TextTable, RuleSeparatesGroups) {
  TextTable t({"x"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const auto lines = split(t.render(), '\n');
  // header rule + top + bottom + group rule = 4 '+' lines.
  int rules = 0;
  for (const auto& line : lines) rules += !line.empty() && line[0] == '+';
  EXPECT_EQ(rules, 4);
}

TEST(Percent, Formatting) {
  EXPECT_EQ(percent(94, 100), "94%");
  EXPECT_EQ(percent(1, 3), "33%");
  EXPECT_EQ(percent(0, 0), "n/a");
  EXPECT_EQ(percent(103, 110), "94%");  // paper's NAS basic prediction shape
}

}  // namespace
}  // namespace feam::support
