#include "workloads.h"

#include <cmath>
#include <memory>
#include <utility>

#include "src/common/random.h"
#include "src/hamming/bounds.h"
#include "src/matmul/matrix.h"
#include "src/matmul/problem.h"
#include "src/storage/block.h"
#include "src/storage/serde.h"

namespace mrbench {

namespace engine = mrcost::engine;

namespace {

/// Hash of the outputs' serialized bytes, element by element, so checking
/// never holds a second copy of a job's outputs.
template <typename T>
std::uint64_t Digest(const std::vector<T>& values) {
  std::uint64_t digest = 0x9e3779b97f4a7c15ULL ^ values.size();
  std::string bytes;
  for (const T& value : values) {
    bytes.clear();
    mrcost::storage::SerializeValue(value, bytes);
    digest = (digest ^ mrcost::storage::HashBytes(bytes)) *
             0x100000001b3ULL;
  }
  return digest;
}

/// The target dataset of every recipe is the graph's last node.
template <typename T>
std::shared_ptr<const std::vector<T>> TargetSlot(const engine::Plan& plan) {
  const auto& slots = plan.graph()->slots;
  if (slots.empty()) return nullptr;
  return std::static_pointer_cast<const std::vector<T>>(slots.back());
}

Verdict Fail(std::string error) {
  Verdict verdict;
  verdict.error = std::move(error);
  return verdict;
}

/// The shuffle_sweep recipe's key mix (src/dist/recipes.cc), restated so
/// the reference does not go through the engine.
std::uint64_t SweepKey(std::uint64_t row, std::uint64_t num_keys) {
  std::uint64_t h = row;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h % num_keys;
}

/// Sum-by-key needs every input of a group at its reducer and nothing
/// else: g(q) = q * |O| / |I|, so the lower bound is r >= 1 at every q.
mrcost::core::Recipe AggregationRecipe(double inputs, double outputs) {
  mrcost::core::Recipe recipe;
  recipe.problem_name = "sum-by-key";
  recipe.num_inputs = inputs;
  recipe.num_outputs = outputs;
  recipe.g = [inputs, outputs](double q) { return q * outputs / inputs; };
  return recipe;
}

engine::ExecutionOptions PinnedOptions() {
  engine::ExecutionOptions options;
  options.pipeline.num_threads = 4;
  options.pipeline.round_defaults.num_threads = 4;
  return options;
}

engine::ExecutionOptions MultiProcess(engine::ShuffleTransport transport,
                                      const std::string& spill_dir) {
  engine::ExecutionOptions options = PinnedOptions();
  options.backend = engine::ExecutionBackend::kMultiProcess;
  options.dist.num_workers = 4;
  options.dist.shuffle_transport = transport;
  options.dist.spill_dir = spill_dir;
  return options;
}

constexpr std::uint64_t kSweepPairs = 1000000;
constexpr std::uint64_t kSweepKeys = 4096;
constexpr int kHammingBits = 18;
constexpr int kMatmulN = 256;

}  // namespace

Checker SweepChecker(std::uint64_t pairs, std::uint64_t keys,
                     std::uint64_t seed) {
  const std::uint64_t num_keys = keys == 0 ? 1 : keys;
  auto sums = std::make_shared<std::vector<std::uint64_t>>(num_keys, 0);
  auto present = std::make_shared<std::vector<bool>>(num_keys, false);
  std::uint64_t groups = 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::uint64_t row = seed + i;
    const std::uint64_t key = SweepKey(row, num_keys);
    (*sums)[key] += row;
    if (!(*present)[key]) {
      (*present)[key] = true;
      ++groups;
    }
  }
  return [sums, present, groups, num_keys](const engine::Plan& plan) {
    const auto out =
        TargetSlot<std::pair<std::uint64_t, std::uint64_t>>(plan);
    if (!out) return Fail("sweep: no outputs");
    if (out->size() != groups) {
      return Fail("sweep: " + std::to_string(out->size()) +
                  " groups, expected " + std::to_string(groups));
    }
    std::vector<bool> seen(num_keys, false);
    for (const auto& [key, sum] : *out) {
      if (key >= num_keys || !(*present)[key] || seen[key]) {
        return Fail("sweep: unexpected or repeated key " +
                    std::to_string(key));
      }
      seen[key] = true;
      if (sum != (*sums)[key]) {
        return Fail("sweep: wrong sum for key " + std::to_string(key));
      }
    }
    Verdict verdict;
    verdict.ok = true;
    verdict.digest = Digest(*out);
    return verdict;
  };
}

Checker HammingChecker(int b) {
  const std::uint64_t expected =
      static_cast<std::uint64_t>(b) << (b - 1);  // b * 2^(b-1)
  return [b, expected](const engine::Plan& plan) {
    const auto out = TargetSlot<std::pair<std::uint64_t, std::uint64_t>>(plan);
    if (!out) return Fail("hamming: no outputs");
    if (out->size() != expected) {
      return Fail("hamming: " + std::to_string(out->size()) +
                  " pairs, expected " + std::to_string(expected));
    }
    const std::uint64_t domain = std::uint64_t{1} << b;
    // One bit per (smaller string, flipped bit position).
    std::vector<bool> seen(domain * static_cast<std::uint64_t>(b), false);
    for (const auto& [u, v] : *out) {
      const std::uint64_t diff = u ^ v;
      if (u >= v || v >= domain || diff == 0 || (diff & (diff - 1)) != 0) {
        return Fail("hamming: pair (" + std::to_string(u) + ", " +
                    std::to_string(v) + ") is not u < v at distance 1");
      }
      const std::uint64_t slot =
          u * static_cast<std::uint64_t>(b) +
          static_cast<std::uint64_t>(__builtin_ctzll(diff));
      if (seen[slot]) {
        return Fail("hamming: duplicate pair (" + std::to_string(u) + ", " +
                    std::to_string(v) + ")");
      }
      seen[slot] = true;
    }
    Verdict verdict;
    verdict.ok = true;
    verdict.digest = Digest(*out);
    return verdict;
  };
}

Checker MatmulChecker(int n, std::uint64_t seed) {
  // The matmul recipes fill R then S from one SplitMix64(seed) stream.
  mrcost::matmul::Matrix r(n, n);
  mrcost::matmul::Matrix s(n, n);
  mrcost::common::SplitMix64 rng(seed);
  r.FillRandom(rng);
  s.FillRandom(rng);
  mrcost::matmul::Matrix abs_r(n, n);
  mrcost::matmul::Matrix abs_s(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      abs_r.At(i, j) = std::fabs(r.At(i, j));
      abs_s.At(i, j) = std::fabs(s.At(i, j));
    }
  }
  auto product = std::make_shared<mrcost::matmul::Matrix>(
      mrcost::matmul::SerialMultiply(r, s));
  auto scale = std::make_shared<mrcost::matmul::Matrix>(
      mrcost::matmul::SerialMultiply(abs_r, abs_s));
  return [n, product, scale](const engine::Plan& plan) {
    const auto out = TargetSlot<std::pair<std::uint64_t, double>>(plan);
    if (!out) return Fail("matmul: no outputs");
    const std::uint64_t cells = static_cast<std::uint64_t>(n) * n;
    if (out->size() != cells) {
      return Fail("matmul: " + std::to_string(out->size()) +
                  " cells, expected " + std::to_string(cells));
    }
    std::vector<bool> seen(cells, false);
    for (const auto& [key, value] : *out) {
      if (key >= cells || seen[key]) {
        return Fail("matmul: unexpected or repeated cell " +
                    std::to_string(key));
      }
      seen[key] = true;
      const int i = static_cast<int>(key / n);
      const int k = static_cast<int>(key % n);
      const double want = product->At(i, k);
      if (!(std::fabs(value - want) <= 1e-9 * scale->At(i, k))) {
        return Fail("matmul: cell (" + std::to_string(i) + ", " +
                    std::to_string(k) + ") off the serial product");
      }
    }
    Verdict verdict;
    verdict.ok = true;
    verdict.digest = Digest(*out);
    return verdict;
  };
}

bool Tally::Record(const Verdict& verdict) {
  ++attempted_;
  bool ok = verdict.ok;
  std::string error = verdict.error;
  if (ok && first_digest_ && *first_digest_ != verdict.digest) {
    ok = false;
    error = "outputs differ from the first job's";
  }
  if (ok && !first_digest_) first_digest_ = verdict.digest;
  if (!ok) {
    ++failed_;
    if (first_error_.empty()) first_error_ = error;
  }
  return ok;
}

double Tally::fail_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

mrcost::common::Result<Workload> MakeWorkload(const std::string& name,
                                              std::uint64_t seed,
                                              const std::string& spill_dir) {
  Workload w;
  w.name = name;
  if (name == "sweep-inproc" || name == "sweep-wire4") {
    w.recipe = "shuffle_sweep";
    w.args = "pairs=" + std::to_string(kSweepPairs) +
             ",keys=" + std::to_string(kSweepKeys) +
             ",seed=" + std::to_string(seed);
    w.options = name == "sweep-inproc"
                    ? PinnedOptions()
                    : MultiProcess(engine::ShuffleTransport::kWireStream,
                                   spill_dir);
    w.bound = AggregationRecipe(static_cast<double>(kSweepPairs),
                                static_cast<double>(kSweepKeys));
    w.make_checker = [seed] {
      return SweepChecker(kSweepPairs, kSweepKeys, seed);
    };
  } else if (name == "hamming-inproc") {
    // The input is the whole 2^b domain: the seed has nothing to vary.
    w.recipe = "hamming_splitting";
    w.args = "b=" + std::to_string(kHammingBits) + ",k=3,d=1";
    w.options = PinnedOptions();
    w.bound = mrcost::hamming::Hamming1Recipe(kHammingBits);
    w.make_checker = [] { return HammingChecker(kHammingBits); };
  } else if (name == "matmul2-spill4") {
    w.recipe = "matmul_two_phase";
    w.args = "n=" + std::to_string(kMatmulN) +
             ",s_rows=32,t_js=32,seed=" + std::to_string(seed);
    w.options =
        MultiProcess(engine::ShuffleTransport::kSpillFiles, spill_dir);
    w.bound = mrcost::matmul::MatMulRecipe(kMatmulN);
    w.make_checker = [seed] { return MatmulChecker(kMatmulN, seed); };
  } else {
    return mrcost::common::Status::NotFound("unknown workload '" + name +
                                            "'");
  }
  return w;
}

}  // namespace mrbench
