// Shared command-line plumbing for the benchmark binaries.
//
// Every bench accepts --threads=N (default: FALCC_THREADS / hardware
// concurrency) and reports the effective thread count in its header so
// recorded numbers are attributable to a parallelism level. BENCH_*.json
// writers share one provenance header (nproc, build type, git revision).

#ifndef FALCC_BENCH_BENCH_COMMON_H_
#define FALCC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>

#include "util/parallel.h"

namespace falcc {
namespace bench {

/// Parses and strips a --threads=N argument (also "--threads N"). When
/// present, applies it with SetParallelism. Returns the effective
/// parallelism either way. Unrelated arguments are left in place (and
/// argc/argv compacted) so binaries with their own flag handling —
/// e.g. google-benchmark — can parse the remainder.
inline size_t ApplyThreadsFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    long threads = -1;
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = std::atol(arg + 10);
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < *argc) {
      threads = std::atol(argv[++i]);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    if (threads < 1) {
      std::fprintf(stderr, "invalid --threads value, using 1\n");
      threads = 1;
    }
    SetParallelism(static_cast<size_t>(threads));
  }
  *argc = out;
  return Parallelism();
}

/// Standard report-header line naming the binary and thread count.
inline void PrintThreadHeader(const char* binary_name) {
  std::printf("[%s] threads: %zu\n\n", binary_name, Parallelism());
}

/// The checkout's revision (`-dirty` when it has uncommitted changes),
/// or "unknown" outside a git checkout.
inline std::string GitRevision() {
  std::string revision = "unknown";
  if (FILE* pipe = popen("git describe --always --dirty --abbrev=12 "
                         "2>/dev/null", "r")) {
    char buffer[64] = {0};
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      revision = buffer;
      while (!revision.empty() &&
             (revision.back() == '\n' || revision.back() == '\r')) {
        revision.pop_back();
      }
    }
    pclose(pipe);
  }
  return revision;
}

/// Writes the shared provenance fields of a BENCH_*.json object (each
/// line indented two spaces and comma-terminated): core count, build
/// type, and git revision.
inline void WriteProvenance(std::ostream& out) {
  out << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
#ifdef NDEBUG
  out << "  \"build_type\": \"Release\",\n";
#else
  out << "  \"build_type\": \"Debug\",\n";
#endif
  out << "  \"git_revision\": \"" << GitRevision() << "\",\n";
}

}  // namespace bench
}  // namespace falcc

#endif  // FALCC_BENCH_BENCH_COMMON_H_
