// The search defaults live in one place, PathFinderOptions.  A batch
// `sasta` run with no search flags must echo, in its run report, exactly
// the options a default-constructed PathFinderOptions renders — so a
// CLI-side default that drifts from the library's fails here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sta/pathfinder.h"
#include "sta/run_report.h"
#include "util/json.h"

namespace sasta::sta {
namespace {

util::JsonValue parse_json(const std::string& text) {
  util::JsonValue doc;
  std::string err;
  EXPECT_TRUE(util::JsonValue::parse(text, &doc, &err)) << err;
  return doc;
}

TEST(CliDefaults, RunReportOptionsMatchPathFinderOptionsDefaults) {
  const std::string report = ::testing::TempDir() + "sasta-cli-defaults.json";
  const std::string cmd = std::string(SASTA_CLI_PATH) + " -q --report-json " +
                          report + " c17 > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream is(report);
  std::stringstream text;
  text << is.rdbuf();
  const util::JsonValue cli = parse_json(text.str()).get("options");

  const PathFinderOptions defaults;
  RunReportInputs in;
  in.circuit = "defaults";
  in.options = &defaults;
  std::ostringstream os;
  write_run_report(in, os);
  const util::JsonValue lib = parse_json(os.str()).get("options");

  ASSERT_EQ(cli.members().size(), lib.members().size()) << cli.dump();
  for (const auto& [key, value] : lib.members()) {
    // The one run-level default the CLI sets itself: every hardware thread.
    if (key == "threads") continue;
    EXPECT_EQ(cli.get(key).dump(), value.dump()) << key;
  }
  EXPECT_EQ(cli.get("threads").as_long(-1), 0);

  // The documented defaults, pinned.
  EXPECT_EQ(cli.get("schedule").as_string(), "source");
  EXPECT_EQ(cli.get("backtrack_budget").as_long(), 2000);
}

}  // namespace
}  // namespace sasta::sta
