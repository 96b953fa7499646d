#include <fcntl.h>
#include <linux/fs.h>
#include <spawn.h>
#include <sys/ioctl.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "lattice/obs/metrics.hpp"
#include "perfbench.hpp"

namespace perfbench {

void zero_layer(std::map<std::string, double>& metrics,
                std::string_view layer) {
  for (const MetricDef& m : kPerLayer) {
    const std::string_view name = m.name;
    if (name.size() > layer.size() && name.substr(0, layer.size()) == layer &&
        name[layer.size()] == '.') {
      metrics[m.name] = 0.0;
    }
  }
}

namespace {

std::size_t nearest_rank(double p, std::size_t n) {
  // The epsilon keeps a p computed as 100 * rank / n on its own rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::optional<Percentile> at_rank(std::vector<double> samples, double p,
                                  std::size_t rank) {
  const std::size_t n = samples.size();
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], p, n, rank};
}

}  // namespace

std::optional<Percentile> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p >= 0 && p <= 100)) return std::nullopt;
  const std::size_t rank = nearest_rank(p, samples.size());
  return at_rank(std::move(samples), p, rank);
}

std::optional<Percentile> highest_percentile(std::vector<double> samples,
                                             double p_max) {
  const std::size_t n = samples.size();
  if (n <= kMinBeyond || !(p_max >= 0 && p_max <= 100)) return std::nullopt;
  const std::size_t rank = std::min(nearest_rank(p_max, n), n - kMinBeyond);
  const double p = std::min(
      p_max, 100.0 * static_cast<double>(rank) / static_cast<double>(n));
  return at_rank(std::move(samples), p, rank);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/// A "Key:  N kB" field of /proc/self/status. Unlike getrusage's
/// ru_maxrss, whose peak survives exec and so counts the parent that
/// launched this process, these fields count this process alone.
std::int64_t status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::stoll(line.substr(prefix.size()));
    }
  }
  return 0;
}

}  // namespace

std::int64_t rss_kib() { return status_kib("VmRSS"); }
std::int64_t peak_rss_kib() { return status_kib("VmHWM"); }

namespace {

/// Run `argv` with its standard output piped back; returns that output,
/// or throws when the process cannot start or exits nonzero.
std::string run_child(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  ::posix_spawn_file_actions_addclose(&actions, fds[0]);
  ::posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string text;
  if (rc == 0) {
    char chunk[256];
    for (;;) {
      const ssize_t got = ::read(fds[0], chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      text.append(chunk, static_cast<std::size_t>(got));
    }
  }
  ::close(fds[0]);
  if (rc != 0) {
    throw std::runtime_error(std::string("cannot start ") + argv[0] + ": " +
                             std::strerror(rc));
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(args[1] + " child failed: " + text);
  }
  return text;
}

}  // namespace

bool spread_subdirectories(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  int flags = 0;
  bool ok = ::ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0;
  if (ok && (flags & FS_TOPDIR_FL) == 0) {
    flags |= FS_TOPDIR_FL;
    ok = ::ioctl(fd, FS_IOC_SETFLAGS, &flags) == 0;
  }
  ::close(fd);
  return ok;
}

void sync_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::vector<double> cold_setups(const RunOptions& opt, int count) {
  char self[4096];
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("cannot find this binary's path");
  self[len] = '\0';
  std::vector<double> seconds;
  for (int i = 0; i < count; ++i) {
    sync_filesystem(opt.work_dir);
    const std::string text =
        run_child({self, "--setup-only", "--workload", opt.workload, "--seed",
                   std::to_string(opt.seed), "--work-dir", opt.work_base});
    double s = 0;
    if (std::sscanf(text.c_str(), "setup_s %lf", &s) != 1) {
      throw std::runtime_error("--setup-only printed no time: " + text);
    }
    seconds.push_back(s);
  }
  return seconds;
}

SampleFile::SampleFile(const std::string& path)
    : file_(std::fopen(path.c_str(), "w+b")) {
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
}

SampleFile::~SampleFile() { std::fclose(file_); }

void SampleFile::push_back(double v) {
  if (std::fwrite(&v, sizeof v, 1, file_) != 1) {
    throw std::runtime_error("cannot write a sample file");
  }
  ++count_;
}

std::vector<double> SampleFile::read_all() {
  std::vector<double> v(count_);
  if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fread(v.data(), sizeof(double), count_, file_) != count_) {
    throw std::runtime_error("cannot read a sample file back");
  }
  return v;
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/ext3/ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default:
      return format("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

std::uint64_t fnv1a(const lattice::lgca::SiteLattice& state, std::uint64_t h) {
  const lattice::lgca::Site* d = state.grid().data();
  for (std::size_t i = 0, n = state.site_count(); i < n; ++i) {
    h = (h ^ d[i]) * 1099511628211ull;
  }
  return h;
}

SpanLog::Scope SpanLog::span(std::string name, std::int64_t id) {
  if (!enabled_) return Scope(nullptr, -1);
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), id, lattice::obs::now_ns(), 0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = lattice::obs::now_ns();
  open_.pop_back();
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"span\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.id), i, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double span_median_ms(const SpanLog& log, std::string_view name) {
  return median(log.durations_ms(name));
}

void Outcome::fail_check(const std::string& why, std::int64_t count) {
  correct = false;
  failed += count;
  report.push_back("CHECK FAILED: " + why);
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

void step_percentiles(Outcome& out, const char* step,
                      const std::vector<double>& ms) {
  const auto p50 = percentile(ms, 50);
  const auto p95 = highest_percentile(ms, 95);
  const auto p99 = highest_percentile(ms, 99);
  out.metrics["step_p50_ms"] = p50 ? p50->value : 0;
  out.metrics["step_p95_ms"] = p95 ? p95->value : 0;
  auto show = [](const char* label, const std::optional<Percentile>& q) {
    return q ? format("%s: p%.4g = %.4f ms (rank %zu, %zu beyond)", label,
                      q->p, q->value, q->rank, q->n - q->rank)
             : format("%s: refused", label);
  };
  out.note(format("%ss: n=%zu; ", step, ms.size()) + show("median", p50) +
           "; " + show("p95", p95) + "; " + show("p99", p99));
}

void setup_metric(Outcome& out, const std::vector<double>& before, double own,
                  const std::vector<double>& after) {
  std::vector<double> all = before;
  all.push_back(own);
  all.insert(all.end(), after.begin(), after.end());
  out.metrics["setup_s"] = median(all);
  auto list = [](const std::vector<double>& v) {
    std::string text = v.empty() ? " none" : "";
    for (const double s : v) text += format(" %.4f", s);
    return text;
  };
  out.note(format("set-ups: n=%zu cold, s: before%s; own %.4f; after%s",
                  all.size(), list(before).c_str(), own, list(after).c_str()));
}

void attribution_report(
    Outcome& out, const char* unit_name, double whole_ms, std::size_t n,
    const std::vector<std::pair<std::string, double>>& parts) {
  out.note(format("attribution per %s: untraced median %.4f ms (n=%zu)",
                  unit_name, whole_ms, n));
  double sum = 0;
  for (const auto& [label, ms] : parts) {
    sum += ms;
    out.note(format("  %-30s %10.4f ms %6.1f%%", label.c_str(), ms,
                    whole_ms > 0 ? 100.0 * ms / whole_ms : 0.0));
  }
  const double rest = whole_ms - sum;
  const double share = whole_ms > 0 ? rest / whole_ms : 0.0;
  out.note(format("  %-30s %10.4f ms %6.1f%%", "unattributed", rest,
                  100.0 * share));
  out.note(std::abs(share) <= 0.10
               ? std::string("  attribution: layers account for the ") +
                     unit_name + " within 10%"
               : format("  attribution: WARNING unattributed share %.1f%% "
                        "exceeds 10%%",
                        100.0 * share));
}

}  // namespace perfbench
