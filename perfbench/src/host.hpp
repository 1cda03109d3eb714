// The host block every benchmark output carries, so a number is never read
// apart from the machine and build that produced it.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  int nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string git_sha;  ///< "unknown" outside a git checkout
};

HostInfo host_info(const std::string& git_sha);

/// {"nproc":N,"compiler":"...","build_type":"...","git_sha":"..."}
std::string host_json(const HostInfo& host);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace perfbench
