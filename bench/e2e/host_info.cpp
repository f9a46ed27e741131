#include "host_info.hpp"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace she::bench::e2e {
namespace {

std::string json_string_field(const std::string& json, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":\"";
  const std::size_t at = json.find(pat);
  if (at == std::string::npos) return "unknown";
  const std::size_t end = json.find('"', at + pat.size());
  return json.substr(at + pat.size(), end - at - pat.size());
}

std::string git_rev() {
  const std::string cmd =
      std::string("git -C '") + SHE_BENCH_REPO_DIR + "' rev-parse HEAD 2>/dev/null";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return "unknown";
  std::array<char, 128> buf{};
  std::string out;
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), p) != nullptr)
    out += buf.data();
  const int rc = ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return rc == 0 && !out.empty() ? out : "unknown";
}

}  // namespace

void require_timing_build() {
  const std::string_view sanitize = SHE_BENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = !sanitize.empty();
#endif
  if (sanitized) {
    std::fprintf(stderr,
                 "she_bench: refusing to run on a sanitizer build; configure "
                 "without SHE_SANITIZE\n");
    std::exit(2);
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "she_bench: warning: unoptimized (%s) build; timings are not "
               "comparable to a Release/RelWithDebInfo build\n",
               SHE_BENCH_BUILD_TYPE);
#endif
}

HostInfo collect_host_info(const std::string& healthz) {
  HostInfo h;
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  h.isa = json_string_field(healthz, "simd");
  h.build_type = SHE_BENCH_BUILD_TYPE;
  h.git_rev = git_rev();
  return h;
}

std::string to_json(const HostInfo& h) {
  return "{\"nproc\":" + std::to_string(h.nproc) + ",\"isa\":\"" + h.isa +
         "\",\"build_type\":\"" + h.build_type + "\",\"git_rev\":\"" +
         h.git_rev + "\"}";
}

}  // namespace she::bench::e2e
