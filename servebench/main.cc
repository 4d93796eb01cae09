// servebench: the repository's serving benchmark. Starts a CqaServer in
// this process, drives it over loopback with CqaClient, checks every
// answer against in-process evaluation, and prints the metrics of one
// workload. Usually run through run.py, which builds this binary:
//
//   servebench --workload wire_rows --seed 1 --seconds 20 --trace 0
//              [--spans <path>]
//
// See README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "wire_rows|approx_bounds|publish_mix --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  servebench::RunConfig config;
  config.spans_path = "servebench-spans.jsonl";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!servebench::KnownWorkload(config.workload)) Usage("unknown workload");
  if (!(config.seconds > 0.0)) Usage("--seconds must be positive");
  return servebench::RunWorkload(config);
}
