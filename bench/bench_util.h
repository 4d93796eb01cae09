// Shared helpers for the experiment binaries: wall-clock timing and
// fixed-width table printing so each bench can regenerate its paper
// table/figure as aligned rows.

#ifndef CQA_BENCH_BENCH_UTIL_H_
#define CQA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace cqa::bench {

/// True if `--quick` appears on the command line: benches then run a
/// reduced series suitable for CI smoke tests.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// CSV mirror: when `--csv <path>` is on the command line, every PrintRow
/// row is also appended to `<path>` as a CSV line, prefixed with the current
/// section name, so CI can archive bench output as machine-readable
/// artifacts. Call InitCsv at the top of main and CloseCsv before exit.
inline FILE*& CsvStream() {
  static FILE* stream = nullptr;
  return stream;
}

inline std::string& CsvSection() {
  static std::string section;
  return section;
}

inline void InitCsv(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "warning: --csv needs a path argument\n");
      return;
    }
    CsvStream() = std::fopen(argv[i + 1], "w");
    if (CsvStream() == nullptr) {
      std::fprintf(stderr, "warning: cannot open csv file %s\n", argv[i + 1]);
    }
    return;
  }
}

/// Names the table the following PrintRow calls belong to (first CSV cell).
inline void SetCsvSection(const std::string& name) { CsvSection() = name; }

inline void CloseCsv() {
  if (CsvStream() != nullptr) {
    std::fclose(CsvStream());
    CsvStream() = nullptr;
  }
}

/// Milliseconds elapsed while running `fn`.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Prints a row of fixed-width cells (and mirrors it to the CSV file when
/// one is open).
inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
  if (CsvStream() != nullptr) {
    std::fprintf(CsvStream(), "%s", CsvSection().c_str());
    for (const auto& cell : cells) {
      std::fprintf(CsvStream(), ",%s", cell.c_str());
    }
    std::fprintf(CsvStream(), "\n");
  }
}

inline void PrintRule(size_t cells, int width = 14) {
  std::printf("%s\n", std::string(cells * width, '-').c_str());
}

inline std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

inline std::string Fmt(long long v) { return std::to_string(v); }
inline std::string Fmt(int v) { return std::to_string(v); }
inline std::string Fmt(size_t v) { return std::to_string(v); }

}  // namespace cqa::bench

#endif  // CQA_BENCH_BENCH_UTIL_H_
