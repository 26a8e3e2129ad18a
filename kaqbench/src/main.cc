// kaqbench — the repository's benchmark program.
//
//   kaqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>]
//   kaqbench --self-test
//
// Workloads: kde-home-batch, svm-a9a-serve, kde-home-churn (see
// kaqbench/README.md). --trace 0 measures the workload untraced and
// reports the end-to-end metrics; --trace 1 runs the layer ladder on the
// workload's model with spans and reports the per-layer metrics. The
// last stdout line is the JSON result object.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "core/simd/simd.h"
#include "report.h"
#include "util/build_info.h"
#include "workloads.h"

namespace kaqbench {
int RunSelfTests();  // selftest.cc
}  // namespace kaqbench

namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "kaqbench: %s\n"
               "usage: kaqbench --workload <kde-home-batch|svm-a9a-serve|"
               "kde-home-churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n"
               "       kaqbench --self-test\n",
               error.c_str());
  std::exit(2);
}

double ParseNumber(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    Usage(std::string("bad value for ") + flag + ": '" + text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kaqbench;
  RunOptions options;
  options.workdir = ".bench_build/run";
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return RunSelfTests();
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const double seed = ParseNumber("--seed", value);
      if (seed < 0 || seed != static_cast<double>(static_cast<uint64_t>(seed))) {
        Usage("--seed must be a non-negative integer");
      }
      options.seed = static_cast<uint64_t>(seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = ParseNumber("--seconds", value);
      if (!(options.seconds > 0)) Usage("--seconds must be positive");
      have_seconds = true;
    } else if (flag == "--trace") {
      const double t = ParseNumber("--trace", value);
      if (t != 0 && t != 1) Usage("--trace must be 0 or 1");
      trace = static_cast<int>(t);
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || trace < 0) {
    Usage("--seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) Usage("unknown workload '" + options.workload + "'");
  MakeDirs(options.workdir);
  // The in-process server answers with write(2): a response to a client
  // that has gone must fail with EPIPE, not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  Report report;
  report.Info("workload", options.workload);
  report.Info("seed", std::to_string(options.seed));
  report.Info("trace", std::to_string(trace));
  report.Info("nproc", std::to_string(Nproc()));
  report.Info("simd_tier",
              std::string(karl::core::simd::TierName(karl::core::simd::ActiveTier())));
  report.Info("git_sha", karl::util::BuildGitSha());
  const CpuJiffies host0 = ReadCpuJiffies();
  const double wall0 = NowUs();

  if (trace == 1) {
    RunLadder(options, &report);
  } else if (options.workload == "kde-home-batch") {
    RunKdeHomeBatch(options, &report);
  } else if (options.workload == "svm-a9a-serve") {
    RunSvmA9aServe(options, &report);
  } else {
    RunKdeHomeChurn(options, &report);
  }

  const HostShares host = SharesBetween(host0, ReadCpuJiffies());
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.3f%% (iowait %.3f%%) over %.1f s",
                host.steal_pct, host.iowait_pct, (NowUs() - wall0) * 1e-6);
  report.Info("host.steal_pct", buf);
  report.Print();
  return 0;
}
