#include "result.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/simd.hpp"

namespace perfbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) fail_check("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void Result::fail_check(const std::string& what) {
  failures_.push_back(what);
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Result::print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  // A failed run reports no numbers.
  if (correct()) {
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += json_quote(metrics_[i].name) + ": {\"value\": " + value +
              ", \"unit\": " + json_quote(metrics_[i].unit) + "}";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

namespace {

std::string filesystem_name(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    case 0x2FC12FC1UL: return "zfs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buffer;
    }
  }
}

}  // namespace

std::string provenance_json(const std::string& journal_dir,
                            std::size_t threads) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::string json = "{";
  json += "\"commit\": " + json_quote(commit != nullptr ? commit : "unknown");
  json += ", \"compiler\": " + json_quote(PERFBENCH_COMPILER);
  json += ", \"cxx_flags\": " + json_quote(PERFBENCH_CXX_FLAGS);
  json += ", \"build_type\": " + json_quote(PERFBENCH_BUILD_TYPE);
  json += ", \"optimized\": ";
  json += optimized_build() ? "true" : "false";
  json += ", \"simd_backend\": " + json_quote(hm::simd::backend_name());
  json += ", \"hm_trace_compiled\": ";
  json += HM_TRACE_ENABLED ? "true" : "false";
  json += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"eval_threads\": " + std::to_string(threads);
  json += ", \"journal_fs\": " + json_quote(filesystem_name(journal_dir));
  return json + "}";
}

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq, &steal) == 8) {
    ticks.busy = user + nice + system + irq + softirq;
    ticks.idle = idle;
    ticks.iowait = iowait;
    ticks.steal = steal;
  }
  std::fclose(f);
  return ticks;
}

double stolen_share(const CpuTicks& before, const CpuTicks& after) {
  const double busy = static_cast<double>(after.busy - before.busy);
  const double steal = static_cast<double>(after.steal - before.steal);
  return busy + steal > 0.0 ? steal / (busy + steal) : 0.0;
}

void print_host_share(const CpuTicks& before, const CpuTicks& after) {
  const double busy = static_cast<double>(after.busy - before.busy);
  const double idle = static_cast<double>(after.idle - before.idle);
  const double iowait = static_cast<double>(after.iowait - before.iowait);
  const double steal = static_cast<double>(after.steal - before.steal);
  const double total = busy + idle + iowait + steal;
  if (total <= 0.0) return;
  std::printf("host: busy %.1f%%, steal %.1f%%, iowait %.1f%% of CPU time "
              "during the run\n",
              100.0 * busy / total, 100.0 * steal / total,
              100.0 * iowait / total);
}

double peak_rss_mb() {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

}  // namespace perfbench
