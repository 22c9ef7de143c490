// The output checks and the failure tally: a correct job passes, a
// corrupted one counts against fail_ratio, and a job whose outputs are not
// byte-equal to the first passing job's counts too.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/dist/registry.h"
#include "src/engine/plan.h"
#include "workloads.h"

namespace {

using mrcost::engine::Plan;

Plan Executed(const std::string& recipe, const std::string& args) {
  auto plan = mrcost::dist::PlanRegistry::Global().Build(recipe, args);
  EXPECT_TRUE(plan.ok());
  mrcost::engine::ExecutionOptions options;
  options.pipeline.num_threads = 2;
  options.pipeline.round_defaults.num_threads = 2;
  plan->Execute(options);
  return std::move(*plan);
}

template <typename T>
std::vector<T>& Target(Plan& plan) {
  return *std::static_pointer_cast<std::vector<T>>(
      plan.graph()->slots.back());
}

TEST(Checks, CorruptedSweepCountsInFailRatio) {
  const std::string args = "pairs=5000,keys=97,seed=3";
  const mrbench::Checker check = mrbench::SweepChecker(5000, 97, 3);
  Plan plan = Executed("shuffle_sweep", args);
  mrbench::Tally tally;
  EXPECT_TRUE(tally.Record(check(plan)));
  EXPECT_TRUE(tally.Record(check(plan)));

  Target<std::pair<std::uint64_t, std::uint64_t>>(plan)[5].second += 1;
  EXPECT_FALSE(tally.Record(check(plan)));
  EXPECT_EQ(tally.attempted(), 3u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_DOUBLE_EQ(tally.fail_ratio(), 1.0 / 3.0);
  EXPECT_NE(tally.first_error().find("wrong sum"), std::string::npos);
}

TEST(Checks, ReorderedOutputsFailByteEquality) {
  // Every per-key sum still matches, but the bytes differ from the first
  // job's: the tally must count it.
  const mrbench::Checker check = mrbench::SweepChecker(5000, 97, 3);
  Plan plan = Executed("shuffle_sweep", "pairs=5000,keys=97,seed=3");
  mrbench::Tally tally;
  EXPECT_TRUE(tally.Record(check(plan)));
  auto& out = Target<std::pair<std::uint64_t, std::uint64_t>>(plan);
  std::swap(out[0], out[1]);
  EXPECT_TRUE(check(plan).ok);
  EXPECT_FALSE(tally.Record(check(plan)));
  EXPECT_EQ(tally.failed(), 1u);
}

TEST(Checks, HammingRejectsDuplicateAndFarPairs) {
  const mrbench::Checker check = mrbench::HammingChecker(8);
  Plan plan = Executed("hamming_splitting", "b=8,k=2,d=1");
  EXPECT_TRUE(check(plan).ok) << check(plan).error;
  auto& out = Target<std::pair<std::uint64_t, std::uint64_t>>(plan);
  const auto saved = out[1];
  out[1] = out[0];
  EXPECT_FALSE(check(plan).ok);
  out[1] = saved;
  out[2].second ^= 0x80;  // now at distance 2 (or reversed)
  EXPECT_FALSE(check(plan).ok);
}

TEST(Checks, MatmulRejectsOffCell) {
  const mrbench::Checker check = mrbench::MatmulChecker(16, 11);
  Plan plan = Executed("matmul_two_phase", "n=16,s_rows=4,t_js=4,seed=11");
  EXPECT_TRUE(check(plan).ok) << check(plan).error;
  Target<std::pair<std::uint64_t, double>>(plan)[7].second *= 1.000001;
  EXPECT_FALSE(check(plan).ok);
}

TEST(Workloads, EveryNamedWorkloadResolves) {
  for (const std::string name :
       {"sweep-inproc", "sweep-wire4", "hamming-inproc", "matmul2-spill4"}) {
    EXPECT_TRUE(mrbench::MakeWorkload(name, 1, "spill").ok()) << name;
  }
  EXPECT_FALSE(mrbench::MakeWorkload("nope", 1, "spill").ok());
}

}  // namespace
