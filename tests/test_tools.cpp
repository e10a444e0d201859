// End-to-end tests for the command-line tools: record -> inspect -> train ->
// inspect model, exercising the binaries exactly as a user would.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#ifndef APOLLO_TOOLS_DIR
#define APOLLO_TOOLS_DIR "."
#endif

namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int status = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) result.output += buffer.data();
  result.status = pclose(pipe);
  return result;
}

std::string tool(const std::string& name) {
  return (fs::path(APOLLO_TOOLS_DIR) / name).string();
}

class ToolsTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Unique per test: ctest -j runs cases as concurrent processes, and a
    // shared directory lets one test's SetUp remove_all another's files.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    workdir_ = fs::temp_directory_path() /
               (std::string("apollo_tools_test_") + info->name());
    fs::remove_all(workdir_);
    fs::create_directories(workdir_);
    if (!fs::exists(tool("apollo_record"))) {
      GTEST_SKIP() << "tools not found at " << APOLLO_TOOLS_DIR;
    }
  }
  void TearDown() override { fs::remove_all(workdir_); }

  fs::path workdir_;
};

}  // namespace

TEST_F(ToolsTest, RecordTrainInspectPipeline) {
  const std::string records = (workdir_ / "lulesh.records").string();
  const std::string model = (workdir_ / "policy.model").string();

  const auto record = run_command(tool("apollo_record") + " lulesh " + records +
                                  " --size 10 --steps 3 --no-chunks");
  ASSERT_EQ(record.status, 0) << record.output;
  ASSERT_TRUE(fs::exists(records));

  const auto inspect = run_command(tool("apollo_inspect") + " records " + records);
  ASSERT_EQ(inspect.status, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("kernels: 22 distinct"), std::string::npos) << inspect.output;
  EXPECT_NE(inspect.output.find("policies: omp="), std::string::npos);

  const auto train = run_command(tool("apollo_train") + " " + records + " " + model +
                                 " --top-features 5 --max-depth 15 --folds 5");
  ASSERT_EQ(train.status, 0) << train.output;
  EXPECT_NE(train.output.find("cross-validated accuracy"), std::string::npos);
  ASSERT_TRUE(fs::exists(model));

  const auto dump = run_command(tool("apollo_inspect") + " model " + model);
  ASSERT_EQ(dump.status, 0) << dump.output;
  EXPECT_NE(dump.output.find("parameter: policy"), std::string::npos);
  EXPECT_NE(dump.output.find("labels: omp seq"), std::string::npos);
}

TEST_F(ToolsTest, TrainEmitsGeneratedCode) {
  const std::string records = (workdir_ / "r.records").string();
  const std::string model = (workdir_ / "m.model").string();
  const std::string generated = (workdir_ / "tuner.cpp").string();
  ASSERT_EQ(run_command(tool("apollo_record") + " ares " + records +
                        " --problem sedov --size 24 --steps 3 --no-chunks").status,
            0);
  const auto train = run_command(tool("apollo_train") + " " + records + " " + model +
                                 " --codegen " + generated + " --quiet");
  ASSERT_EQ(train.status, 0) << train.output;
  ASSERT_TRUE(fs::exists(generated));
  std::FILE* f = std::fopen(generated.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::array<char, 8192> buffer{};
  const std::size_t n = std::fread(buffer.data(), 1, buffer.size() - 1, f);
  std::fclose(f);
  EXPECT_NE(std::string(buffer.data(), n).find("extern \"C\" int apollo_generated_model"),
            std::string::npos);
}

TEST_F(ToolsTest, TrainPerKernelModelSet) {
  const std::string records = (workdir_ / "pk.records").string();
  const std::string models = (workdir_ / "pk.models").string();
  ASSERT_EQ(run_command(tool("apollo_record") + " lulesh " + records +
                        " --size 8 --steps 2 --no-chunks").status,
            0);
  const auto train =
      run_command(tool("apollo_train") + " " + records + " " + models + " --per-kernel");
  ASSERT_EQ(train.status, 0) << train.output;
  EXPECT_NE(train.output.find("per-kernel model set"), std::string::npos);
  ASSERT_TRUE(fs::exists(models));
}

TEST_F(ToolsTest, ForcedPolicyRecording) {
  const std::string records = (workdir_ / "forced.records").string();
  ASSERT_EQ(run_command(tool("apollo_record") + " lulesh " + records +
                        " --size 8 --steps 2 --policy seq").status,
            0);
  const auto inspect = run_command(tool("apollo_inspect") + " records " + records);
  EXPECT_NE(inspect.output.find("policies: seq="), std::string::npos) << inspect.output;
  EXPECT_EQ(inspect.output.find("omp="), std::string::npos);
}

TEST_F(ToolsTest, TuneAppliesDeployedModel) {
  const std::string records = (workdir_ / "tune.records").string();
  const std::string model = (workdir_ / "tune.model").string();
  const std::string csv = (workdir_ / "tune.csv").string();
  ASSERT_EQ(run_command(tool("apollo_record") + " lulesh " + records +
                        " --size 14 --steps 3 --no-chunks").status,
            0);
  ASSERT_EQ(run_command(tool("apollo_train") + " " + records + " " + model + " --quiet").status,
            0);
  const auto tune = run_command(tool("apollo_tune") + " lulesh --policy-model " + model +
                                " --size 14 --steps 3 --csv " + csv);
  ASSERT_EQ(tune.status, 0) << tune.output;
  EXPECT_NE(tune.output.find("speedup:"), std::string::npos);
  EXPECT_NE(tune.output.find("lulesh:CalcKinematicsForElems"), std::string::npos);
  ASSERT_TRUE(fs::exists(csv));
}

TEST_F(ToolsTest, InspectExportsCsv) {
  const std::string records = (workdir_ / "exp.records").string();
  const std::string csv = (workdir_ / "exp.csv").string();
  ASSERT_EQ(run_command(tool("apollo_record") + " ares " + records +
                        " --problem jet --size 16 --steps 2 --no-chunks").status,
            0);
  const auto exported = run_command(tool("apollo_inspect") + " export " + records + " " + csv);
  ASSERT_EQ(exported.status, 0) << exported.output;
  std::FILE* f = std::fopen(csv.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[4096] = {0};
  ASSERT_NE(std::fgets(header, sizeof(header), f), nullptr);
  std::fclose(f);
  const std::string head(header);
  EXPECT_NE(head.find("num_indices"), std::string::npos);
  EXPECT_NE(head.find("param:policy"), std::string::npos);
}

TEST_F(ToolsTest, SimulateShowsRegimes) {
  const auto sim = run_command(tool("apollo_simulate"));
  ASSERT_EQ(sim.status, 0) << sim.output;
  EXPECT_NE(sim.output.find("seq"), std::string::npos);
  EXPECT_NE(sim.output.find("winner"), std::string::npos);
  EXPECT_NE(sim.output.find("chunk"), std::string::npos);
}

TEST_F(ToolsTest, UsageErrorsExitNonZero) {
  EXPECT_NE(run_command(tool("apollo_train")).status, 0);
  EXPECT_NE(run_command(tool("apollo_inspect") + " bogus xyz").status, 0);
  EXPECT_NE(run_command(tool("apollo_record") + " unknown-app out").status, 0);
  EXPECT_NE(run_command(tool("apollo_tune") + " lulesh").status, 0);  // model required
  EXPECT_NE(run_command(tool("apollo_replay")).status, 0);  // log + model required
}

TEST_F(ToolsTest, AdaptAuditReplayPipeline) {
  // The full observability loop: run the adaptive demo with the audit log and
  // metrics enabled, then replay the recorded decisions through both the
  // adapted (live, generation 1) model and the offline baseline.
  const std::string model_dir = (workdir_ / "models").string();
  const std::string offline = (workdir_ / "offline.policy.model").string();
  const std::string audit_base = (workdir_ / "audit.jsonl").string();
  const std::string metrics = (workdir_ / "metrics.prom").string();
  const std::string decisions = (workdir_ / "decisions.jsonl").string();

  const auto adapt = run_command(
      "APOLLO_TELEMETRY=1 APOLLO_AUDIT_FILE=" + audit_base + " APOLLO_METRICS_FILE=" + metrics +
      " APOLLO_DECISIONS_FILE=" + decisions +
      " APOLLO_PROBE_STRIDE=16 " +
      tool("apollo_adapt") + " --model-dir " + model_dir + " --save-offline " + offline);
  ASSERT_EQ(adapt.status, 0) << adapt.output;
  EXPECT_NE(adapt.output.find("model quality"), std::string::npos) << adapt.output;
  ASSERT_TRUE(fs::exists(offline));

  // The audit log rotates under a numbered-segment scheme next to the base.
  std::string segment;
  for (const auto& entry : fs::directory_iterator(workdir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("audit.", 0) == 0 && name.find(".jsonl") != std::string::npos) {
      segment = entry.path().string();
      break;
    }
  }
  ASSERT_FALSE(segment.empty()) << "no audit segment written in " << workdir_;

  // Metrics export proves the probe budget held: probes <= dispatches / 16.
  ASSERT_TRUE(fs::exists(metrics));
  std::ifstream prom(metrics);
  const std::string prom_text((std::istreambuf_iterator<char>(prom)),
                              std::istreambuf_iterator<char>());
  EXPECT_NE(prom_text.find("apollo_probe_total"), std::string::npos) << prom_text;
  EXPECT_NE(prom_text.find("apollo_model_accuracy"), std::string::npos);

  // The adapted model must reproduce its own recorded generation-1 decisions
  // bit-for-bit; the offline model rides along as the what-if candidate.
  const std::string live_model = model_dir + "/v000001.policy.model";
  ASSERT_TRUE(fs::exists(live_model)) << adapt.output;
  const auto replay = run_command(tool("apollo_replay") + " " + segment + " --model " +
                                  live_model + " --model " + offline +
                                  " --expect-match 1 --min-accuracy 0.5 --confusion");
  ASSERT_EQ(replay.status, 0) << replay.output;
  EXPECT_NE(replay.output.find("decision"), std::string::npos);
  EXPECT_NE(replay.output.find("gen 1 replay match"), std::string::npos) << replay.output;
  EXPECT_NE(replay.output.find("accuracy"), std::string::npos);

  // A determinism claim the wrong model cannot honor must fail the gate.
  const auto mismatch = run_command(tool("apollo_replay") + " " + segment + " --model " +
                                    offline + " --expect-match 1");
  EXPECT_NE(mismatch.status, 0) << mismatch.output;

  // apollo_top reads the decisions file (the sampled tail of the same
  // records): some kernel row shows a sampled label and a pred/obs ratio.
  ASSERT_TRUE(fs::exists(decisions));
  const auto top = run_command(tool("apollo_top") + " --once --metrics " + metrics +
                               " --decisions " + decisions);
  ASSERT_EQ(top.status, 0) << top.output;
  bool sampled_row = false;
  std::istringstream rows(top.output);
  for (std::string row; std::getline(rows, row);) {
    std::istringstream fields(row);
    const std::vector<std::string> cells{std::istream_iterator<std::string>(fields),
                                         std::istream_iterator<std::string>()};
    if (cells.size() != 8) continue;  // kernel launches variant share p50 p95 pred pred/obs
    const std::string& label = cells[6];
    if ((label == "seq" || label == "omp") && std::atof(cells[7].c_str()) > 0.0) {
      sampled_row = true;
    }
  }
  EXPECT_TRUE(sampled_row) << top.output;
}

#ifdef APOLLO_EXAMPLES_DIR
namespace {
std::string example(const std::string& name) {
  return (fs::path(APOLLO_EXAMPLES_DIR) / name).string();
}
}  // namespace

TEST(ExamplesTest, QuickstartRuns) {
  if (!fs::exists(example("quickstart"))) GTEST_SKIP();
  const auto result = run_command("cd " + fs::temp_directory_path().string() + " && " +
                                  example("quickstart"));
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("speedup:"), std::string::npos);
}

TEST(ExamplesTest, CustomApplicationRuns) {
  if (!fs::exists(example("custom_application"))) GTEST_SKIP();
  const auto result = run_command(example("custom_application"));
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("active_cells"), std::string::npos);
  EXPECT_NE(result.output.find("speedup:"), std::string::npos);
}

TEST(ExamplesTest, AmrPatchTuningRuns) {
  if (!fs::exists(example("amr_patch_tuning"))) GTEST_SKIP();
  const auto result = run_command(example("amr_patch_tuning"));
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("patch-size histogram"), std::string::npos);
  EXPECT_NE(result.output.find("TOTAL"), std::string::npos);
}
#endif
