// The benchmark's workloads and the output checks that every job passes
// through. A workload is a dist::PlanRegistry recipe plus the execution
// options it runs under, so the in-process and multi-process backends
// execute the same plan from the same arguments.

#ifndef MRCOST_BENCH_WORKLOADS_H_
#define MRCOST_BENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/lower_bound.h"
#include "src/engine/plan.h"

namespace mrbench {

/// The outcome of checking one job's outputs. `digest` is a hash of the
/// serialized outputs, so two jobs whose outputs are byte-equal have equal
/// digests.
struct Verdict {
  bool ok = false;
  std::uint64_t digest = 0;
  std::string error;
};

/// Checks the target (last) slot of an executed plan against a reference
/// built once, outside any timed region.
using Checker = std::function<Verdict(const mrcost::engine::Plan&)>;

/// shuffle_sweep: per-key sums must match a plain loop over the same rows
/// and key mix.
Checker SweepChecker(std::uint64_t pairs, std::uint64_t keys,
                     std::uint64_t seed);
/// hamming_splitting at distance 1 over all 2^b strings: exactly
/// b * 2^(b-1) pairs, each u < v at distance 1, no duplicates.
Checker HammingChecker(int b);
/// matmul_two_phase: every cell of the n x n product within 1e-9 of
/// matmul::SerialMultiply, relative to sum_j |r_ij * s_jk|.
Checker MatmulChecker(int n, std::uint64_t seed);

/// Counts checked jobs. A job fails when its check fails or when its
/// outputs are not byte-equal to the first passing job's.
class Tally {
 public:
  /// Records one job; returns whether it passed.
  bool Record(const Verdict& verdict);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double fail_ratio() const;
  const std::string& first_error() const { return first_error_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::optional<std::uint64_t> first_digest_;
  std::string first_error_;
};

struct Workload {
  std::string name;
  std::string recipe;
  std::string args;
  mrcost::engine::ExecutionOptions options;
  /// The problem whose replication lower bound prices the rounds.
  mrcost::core::Recipe bound;
  /// Builds the reference and returns the checker (may take a while).
  std::function<Checker()> make_checker;
};

/// The named workload at `seed`. Multi-process workloads place their
/// shuffle directory under `spill_dir`. kNotFound for an unknown name.
mrcost::common::Result<Workload> MakeWorkload(const std::string& name,
                                              std::uint64_t seed,
                                              const std::string& spill_dir);

}  // namespace mrbench

#endif  // MRCOST_BENCH_WORKLOADS_H_
