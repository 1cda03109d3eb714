#include "host.hpp"

#include <sys/resource.h>

#include <thread>

#include "service/json.hpp"

namespace perfbench {

HostInfo host_info(const std::string& git_sha) {
  HostInfo host;
  host.nproc = static_cast<int>(std::thread::hardware_concurrency());
  host.compiler = PERFBENCH_COMPILER;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.git_sha = git_sha.empty() ? "unknown" : git_sha;
  return host;
}

std::string host_json(const HostInfo& host) {
  ht::service::Json json = ht::service::Json::object();
  json.set("nproc", host.nproc);
  json.set("compiler", host.compiler);
  json.set("build_type", host.build_type);
  json.set("git_sha", host.git_sha);
  return json.dump();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
