// The three workloads of the serving benchmark and the report each run
// prints. README.md gives the reasons for each workload and metric.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace servebench {

struct RunConfig {
  std::string workload;  ///< "wire_rows" | "approx_bounds" | "publish_mix"
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (one JSON object per line).
  std::string spans_path;
};

/// True for the three workload names above.
bool KnownWorkload(const std::string& name);

/// Runs one workload: prints the report, then as the last line of standard
/// output one JSON object with "correct", "attempted", "failed" and
/// "metrics". Returns the process exit code: 0 only when every answer
/// matched the in-process reference.
int RunWorkload(const RunConfig& config);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
