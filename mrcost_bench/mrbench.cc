// mrbench: the engine half of the benchmark. One client runs one workload
// as a closed loop of Plan::Execute jobs and checks every job's outputs;
// it prints one JSON line of raw samples that run.py reduces into metrics.
//
//   mrbench --workload=NAME --seed=N --seconds=S --mode=setup|run|trace
//           [--trace_dir=DIR] [--spill_dir=DIR]
//
// setup  builds the plan and runs the first job, timed (one set-up sample).
// run    set-up, then untraced jobs for S seconds: job wall and CPU time,
//        pairs shuffled, peak RSS of this process and of its workers.
// trace  untraced jobs for S/2 seconds, then traced jobs (one Chrome trace
//        and one registry snapshot per job under DIR) for S/2 seconds, plus
//        direct calls into single layers: Plan::Estimate, the same job at
//        one thread, Coordinator::Start/Stop, and spill and wire round trips
//        of one run shaped like the workload's round-1 map output.
//
// The reference a checker compares against is built after set-up is timed
// and outside every timed job.

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/temp_dir.h"
#include "src/core/lower_bound.h"
#include "src/dist/coordinator.h"
#include "src/dist/protocol.h"
#include "src/dist/registry.h"
#include "src/dist/rpc.h"
#include "src/engine/metrics.h"
#include "src/engine/plan.h"
#include "src/obs/trace.h"
#include "src/storage/block.h"
#include "src/storage/external_merge.h"
#include "src/storage/run_writer.h"
#include "src/storage/serde.h"
#include "src/storage/wire_run.h"
#include "workloads.h"

namespace {

namespace engine = mrcost::engine;
namespace storage = mrcost::storage;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double CpuMs(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double MaxRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Minimal JSON writer for the one line mrbench prints.
class Json {
 public:
  Json& Key(const std::string& key) {
    Sep();
    out_ << '"' << key << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double value) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ << buf;
    return *this;
  }
  Json& Str(const std::string& value) {
    Sep();
    out_ << '"';
    for (char c : value) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    out_ << '"';
    return *this;
  }
  Json& Nums(const std::vector<double>& values) {
    Open('[');
    for (double v : values) Num(v);
    return Close(']');
  }
  Json& Open(char bracket) {
    Sep();
    out_ << bracket;
    fresh_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    out_ << bracket;
    fresh_ = false;
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

struct Job {
  double ms = 0;
  double cpu_ms = 0;  // this process plus workers reaped during the job
  std::uint64_t begin_us = 0;  // trace clock
  std::uint64_t end_us = 0;
  engine::PipelineMetrics metrics;
};

Job RunJob(engine::Plan& plan, const engine::ExecutionOptions& options) {
  Job job;
  const double cpu0 = CpuMs(RUSAGE_SELF) + CpuMs(RUSAGE_CHILDREN);
  job.begin_us = mrcost::obs::TraceRecorder::NowUs();
  const auto start = Clock::now();
  job.metrics = plan.Execute(options);
  job.ms = MsSince(start);
  job.end_us = mrcost::obs::TraceRecorder::NowUs();
  job.cpu_ms = CpuMs(RUSAGE_SELF) + CpuMs(RUSAGE_CHILDREN) - cpu0;
  return job;
}

struct Setup {
  engine::Plan plan;
  double build_ms = 0;
  double setup_s = 0;
  Job first;
};

/// PlanRegistry::Build (input generation, plan graph) plus the first,
/// untimed job.
Setup SetUp(const mrbench::Workload& w) {
  Setup setup;
  const auto start = Clock::now();
  auto plan = mrcost::dist::PlanRegistry::Global().Build(w.recipe, w.args);
  MRCOST_CHECK_OK(plan.status());
  setup.build_ms = MsSince(start);
  setup.plan = std::move(*plan);
  setup.first = RunJob(setup.plan, w.options);
  setup.setup_s = MsSince(start) / 1e3;
  return setup;
}

void RoundsJson(Json& json, const Job& job,
                const std::vector<engine::ShuffleStrategy>& strategies,
                const mrcost::core::Recipe& bound) {
  json.Open('[');
  for (std::size_t i = 0; i < job.metrics.rounds.size(); ++i) {
    const engine::JobMetrics& m = job.metrics.rounds[i];
    const double q = static_cast<double>(m.max_reducer_input);
    json.Open('{')
        .Key("strategy")
        .Str(engine::ToString(i < strategies.size()
                                    ? strategies[i]
                                    : engine::ShuffleStrategy::kAuto))
        .Key("num_inputs").Num(static_cast<double>(m.num_inputs))
        .Key("pairs").Num(static_cast<double>(m.pairs_shuffled))
        .Key("bytes").Num(static_cast<double>(m.bytes_shuffled))
        .Key("reducers").Num(static_cast<double>(m.num_reducers))
        .Key("realized_q").Num(q)
        .Key("realized_r").Num(m.replication_rate())
        .Key("lower_bound_r")
        .Num(q > 0 ? mrcost::core::ClampedReplicationLowerBound(bound, q) : 0)
        .Key("map_ms").Num(m.map_ms)
        .Key("shuffle_ms").Num(m.shuffle_ms)
        .Key("reduce_ms").Num(m.reduce_ms)
        .Key("span_ms").Num(m.span_ms)
        .Key("barrier_wait_ms").Num(m.barrier_wait_ms)
        .Key("overlap_ms").Num(m.overlap_ms)
        .Key("partition_skew_ratio").Num(m.partition_skew_ratio)
        .Key("spill_bytes").Num(static_cast<double>(m.spill_bytes_written))
        .Key("spill_runs").Num(static_cast<double>(m.spill_runs))
        .Key("merge_passes").Num(static_cast<double>(m.merge_passes))
        .Key("blocks_emitted").Num(static_cast<double>(m.blocks_emitted))
        .Key("bytes_copied").Num(static_cast<double>(m.bytes_copied))
        .Key("compression_ratio").Num(m.compression_ratio)
        .Close('}');
  }
  json.Close(']');
}

// ------------------------------------------------- isolated transports

/// One sorted-run-shaped block of `rows` pairs over `keys` distinct u64
/// keys, each pair `pair_bytes` long: the shape of a round's map output.
storage::ColumnarRun ShapedRun(std::uint64_t rows, std::uint64_t keys,
                               std::uint64_t pair_bytes) {
  storage::ColumnarRun run;
  run.hashes.reserve(rows);
  run.positions.reserve(rows);
  std::string key;
  const std::string value(std::max<std::uint64_t>(pair_bytes, 16) - 8, 'v');
  for (std::uint64_t i = 0; i < rows; ++i) {
    key.clear();
    storage::SerializeValue(static_cast<std::uint64_t>(i % keys), key);
    run.hashes.push_back(storage::HashBytes(key));
    run.positions.push_back(i);
    run.keys.Append(key);
    run.values.Append(value);
  }
  return run;
}

/// BlockRunFileWriter -> run file -> DiskBlockRunSource: the spill
/// transport's per-run path. Returns raw MB per second.
double SpillRoundTrip(const storage::ColumnarRun& run,
                      const std::string& dir) {
  const std::string path = dir + "/roundtrip.run";
  const auto start = Clock::now();
  {
    auto writer = storage::BlockRunFileWriter::Create(path);
    MRCOST_CHECK_OK(writer.status());
    MRCOST_CHECK_OK(writer.value().AppendRun(run, 0, run.rows()));
    MRCOST_CHECK_OK(writer.value().Finish());
  }
  storage::DiskBlockRunSource source(path);
  std::size_t rows = 0;
  while (source.Peek() != nullptr) {
    source.Advance();
    ++rows;
  }
  MRCOST_CHECK_OK(source.status());
  const double seconds = MsSince(start) / 1e3;
  MRCOST_CHECK(rows == run.rows());
  std::filesystem::remove(path);
  return static_cast<double>(run.RawBytes()) / 1e6 / seconds;
}

/// EncodeRawRunFrames -> RunBlock frames over an AF_UNIX socketpair ->
/// ReadFrame + DecodeAnyBlock: the wire transport's per-run path without
/// credit stalls. Returns raw MB per second.
double WireRoundTrip(const storage::ColumnarRun& run) {
  namespace dist = mrcost::dist;
  int sv[2];
  MRCOST_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
  const auto start = Clock::now();
  std::thread owner([&run, fd = sv[1]] {
    std::vector<std::string> frames;
    storage::BlockEncodeStats stats;
    storage::EncodeRawRunFrames(run, storage::kDefaultBlockBytes, frames,
                                stats);
    for (const std::string& frame : frames) {
      MRCOST_CHECK_OK(dist::WriteRunBlock(fd, frame));
    }
    dist::RunEndMsg end;
    end.blocks = frames.size();
    end.rows = run.rows();
    MRCOST_CHECK_OK(dist::WriteFrame(fd, dist::EncodeRunEnd(end)));
  });
  std::string payload;
  storage::ColumnarRun block;
  std::size_t rows = 0;
  while (true) {
    MRCOST_CHECK_OK(dist::ReadFrame(sv[0], payload));
    const auto type = dist::PeekType(payload);
    MRCOST_CHECK_OK(type.status());
    if (*type == dist::MsgType::kRunEnd) break;
    const auto view = dist::RunBlockView(payload);
    MRCOST_CHECK_OK(view.status());
    MRCOST_CHECK_OK(storage::DecodeAnyBlock(*view, block));
    rows += block.rows();
  }
  const double seconds = MsSince(start) / 1e3;
  owner.join();
  ::close(sv[0]);
  ::close(sv[1]);
  MRCOST_CHECK(rows == run.rows());
  return static_cast<double>(run.RawBytes()) / 1e6 / seconds;
}

// ----------------------------------------------------------------- modes

/// Share of --seconds spent on untimed warm-up jobs before a timed loop:
/// the first jobs of a process run slower while the allocator and page
/// cache settle.
constexpr double kWarmupShare = 0.1;

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "run";
  std::string trace_dir = "traces";
  std::string spill_dir = "spill";
};

/// The closed-loop client: set up once, then every job it runs is checked
/// and counted.
class Client {
 public:
  explicit Client(const mrbench::Workload& w)
      : workload_(w), setup_(SetUp(w)), check_(w.make_checker()) {
    tally_.Record(check_(setup_.plan));
  }

  Job Next(const engine::ExecutionOptions& options) {
    Job job = RunJob(setup_.plan, options);
    tally_.Record(check_(setup_.plan));
    return job;
  }
  Job Next() { return Next(workload_.options); }

  void WarmUp(double seconds) {
    const auto start = Clock::now();
    do {
      Next();
    } while (MsSince(start) < seconds * 1e3 * kWarmupShare);
  }

  bool multi_process() const {
    return workload_.options.backend ==
           engine::ExecutionBackend::kMultiProcess;
  }
  const Setup& setup() const { return setup_; }
  engine::Plan& plan() { return setup_.plan; }

  void AppendTally(Json& json) const {
    json.Key("attempted").Num(static_cast<double>(tally_.attempted()))
        .Key("failed").Num(static_cast<double>(tally_.failed()))
        .Key("first_error").Str(tally_.first_error());
  }

 private:
  const mrbench::Workload& workload_;
  Setup setup_;
  mrbench::Checker check_;
  mrbench::Tally tally_;
};

int SetupMode(const mrbench::Workload& w) {
  Client client(w);
  Json json;
  json.Open('{')
      .Key("setup_s").Num(client.setup().setup_s)
      .Key("build_ms").Num(client.setup().build_ms);
  client.AppendTally(json);
  std::cout << json.Close('}').str() << std::endl;
  return 0;
}

int RunMode(const mrbench::Workload& w, const Flags& flags) {
  Client client(w);
  client.WarmUp(flags.seconds);
  std::vector<double> job_ms;
  std::vector<double> cpu_ms;
  std::vector<double> pairs;
  const auto start = Clock::now();
  while (MsSince(start) < flags.seconds * 1e3) {
    const Job job = client.Next();
    job_ms.push_back(job.ms);
    cpu_ms.push_back(job.cpu_ms);
    pairs.push_back(static_cast<double>(job.metrics.total_pairs()));
  }
  const engine::PipelineMetrics& first = client.setup().first.metrics;
  Json json;
  json.Open('{')
      .Key("setup_s").Num(client.setup().setup_s)
      .Key("build_ms").Num(client.setup().build_ms)
      .Key("input_rows")
      .Num(first.rounds.empty()
               ? 0
               : static_cast<double>(first.rounds[0].num_inputs))
      .Key("job_ms").Nums(job_ms)
      .Key("cpu_ms").Nums(cpu_ms)
      .Key("pairs").Nums(pairs)
      .Key("peak_rss_mb").Num(MaxRssMb(RUSAGE_SELF))
      // In-process, the tasks run on this process's threads.
      .Key("worker_peak_rss_mb")
      .Num(client.multi_process() ? MaxRssMb(RUSAGE_CHILDREN)
                                  : MaxRssMb(RUSAGE_SELF));
  client.AppendTally(json);
  std::cout << json.Close('}').str() << std::endl;
  return 0;
}

int TraceMode(const mrbench::Workload& w, const Flags& flags) {
  Client client(w);
  const bool multi = client.multi_process();

  const auto estimate_start = Clock::now();
  const engine::PlanEstimate estimate = client.plan().Estimate(w.bound);
  const double estimate_ms = MsSince(estimate_start);

  client.WarmUp(flags.seconds);
  std::vector<double> untraced_ms;
  const double half_ms = flags.seconds * 1e3 / 2;
  auto start = Clock::now();
  while (MsSince(start) < half_ms) untraced_ms.push_back(client.Next().ms);

  std::filesystem::create_directories(flags.trace_dir);
  Json json;
  json.Open('{')
      .Key("build_ms").Num(client.setup().build_ms)
      .Key("estimate_ms").Num(estimate_ms)
      .Key("threads").Num(static_cast<double>(
          w.options.pipeline.round_defaults.num_threads))
      .Key("workers").Num(multi ? w.options.dist.num_workers : 0)
      .Key("estimate").Open('[');
  for (const engine::RoundEstimate& round : estimate.rounds) {
    json.Open('{')
        .Key("predicted_q").Num(round.predicted_q)
        .Key("predicted_r").Num(round.predicted_r)
        .Close('}');
  }
  json.Close(']').Key("untraced_ms").Nums(untraced_ms).Key("traced").Open('[');

  // At most 40 traced jobs: the reducer reads every file.
  start = Clock::now();
  for (int i = 0; i < 40 && MsSince(start) < half_ms; ++i) {
    engine::ExecutionOptions options = w.options;
    const std::string stem = flags.trace_dir + "/job-" + std::to_string(i);
    options.trace_out = stem + ".trace.json";
    options.metrics_out = stem + ".metrics.json";
    const Job job = client.Next(options);
    json.Open('{')
        .Key("ms").Num(job.ms)
        .Key("begin_us").Num(static_cast<double>(job.begin_us))
        .Key("end_us").Num(static_cast<double>(job.end_us))
        .Key("trace").Str(options.trace_out)
        .Key("metrics").Str(options.metrics_out)
        .Key("rounds");
    RoundsJson(json, job, client.plan().last_round_strategies(), w.bound);
    json.Close('}');
  }
  json.Close(']');

  // The executor alone: the same job on one thread (in-process only).
  std::vector<double> serial_ms;
  if (!multi) {
    engine::ExecutionOptions serial = w.options;
    serial.pipeline.num_threads = 1;
    serial.pipeline.round_defaults.num_threads = 1;
    for (int i = 0; i < 3; ++i) serial_ms.push_back(client.Next(serial).ms);
  }
  json.Key("serial_job_ms").Nums(serial_ms);

  // The runtime alone: spawn + handshake and shutdown + reap of the
  // workload's worker fleet, with no task run.
  std::vector<double> start_ms;
  std::vector<double> stop_ms;
  if (multi) {
    for (int i = 0; i < 3; ++i) {
      auto dir = mrcost::common::TempDir::Create(flags.spill_dir, "start-");
      MRCOST_CHECK_OK(dir.status());
      mrcost::dist::Coordinator::Options copts;
      copts.num_workers = w.options.dist.num_workers;
      copts.recipe = w.recipe;
      copts.args = w.args;
      copts.spill_dir = dir->path();
      copts.wire_shuffle = w.options.dist.shuffle_transport ==
                           engine::ShuffleTransport::kWireStream;
      mrcost::dist::Coordinator coordinator;
      auto t = Clock::now();
      MRCOST_CHECK_OK(coordinator.Start(copts));
      start_ms.push_back(MsSince(t));
      t = Clock::now();
      coordinator.Stop();
      stop_ms.push_back(MsSince(t));
    }
  }
  json.Key("coordinator_start_ms").Nums(start_ms);
  json.Key("coordinator_stop_ms").Nums(stop_ms);

  // The transports alone, on one run shaped like round 1's map output.
  const engine::JobMetrics& r1 = client.setup().first.metrics.rounds.front();
  const storage::ColumnarRun run = ShapedRun(
      r1.pairs_shuffled, std::max<std::uint64_t>(1, r1.num_reducers),
      r1.pairs_shuffled == 0 ? 16 : r1.bytes_shuffled / r1.pairs_shuffled);
  std::filesystem::create_directories(flags.spill_dir);
  std::vector<double> spill_mbps;
  std::vector<double> wire_mbps;
  for (int i = 0; i < 5; ++i) {
    spill_mbps.push_back(SpillRoundTrip(run, flags.spill_dir));
    wire_mbps.push_back(WireRoundTrip(run));
  }
  json.Key("spill_mb_per_s").Nums(spill_mbps)
      .Key("wire_mb_per_s").Nums(wire_mbps);
  client.AppendTally(json);
  std::cout << json.Close('}').str() << std::endl;
  return 0;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string& value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workload", value)) {
      flags.workload = value;
    } else if (ParseFlag(arg, "seed", value)) {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", value)) {
      flags.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "mode", value)) {
      flags.mode = value;
    } else if (ParseFlag(arg, "trace_dir", value)) {
      flags.trace_dir = value;
    } else if (ParseFlag(arg, "spill_dir", value)) {
      flags.spill_dir = value;
    } else {
      std::cerr << "mrbench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  auto workload = mrbench::MakeWorkload(flags.workload, flags.seed,
                                        flags.spill_dir);
  if (!workload.ok()) {
    std::cerr << "mrbench: " << workload.status().ToString() << "\n";
    return 2;
  }
  if (flags.mode == "setup") return SetupMode(*workload);
  if (flags.mode == "run") return RunMode(*workload, flags);
  if (flags.mode == "trace") return TraceMode(*workload, flags);
  std::cerr << "mrbench: unknown mode " << flags.mode << "\n";
  return 2;
}
