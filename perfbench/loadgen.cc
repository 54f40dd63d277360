// perfbench_loadgen — single-process open-loop load generator for
// `largeea_cli serve`.
//
//   perfbench_loadgen --cli largeea_cli --index A.lea --index-copy B.lea
//       --source S.tsv --target T.tsv --pred P.tsv --seed N
//       --work-dir D --out result.json
//       --rates 2000,4000,... --step-seconds S --ref-seconds S
//       --bursts N --burst N --swaps N --swap-slot-seconds S
//       --exact-samples N
//
// Every flag is required; an empty --rates or a zero count skips that
// phase (and its seconds flags are then unused).
//
// One thread drives the server through non-blocking pipes on both ends
// and ppoll(2): a blocking writer would deadlock against a swap that
// stalls the server's read loop (the pipe fills, the writer blocks, the
// reader never drains the responses). Requests are sent on a fixed
// schedule regardless of answers (open loop), and every latency is
// timed from the request's *scheduled* send time, so a stall also
// charges the requests queued behind it. The generator's own lateness
// (actual minus scheduled send) is reported so a run in which the
// generator, not the server, fell behind can be recognised.
//
// Phases, in order, all on one server process:
//   ladder  70% entity (uniform source ids) / 30% name (sampled source
//           names) lookups at each rate of --rates; the reference-rate
//           step (4k req/s) runs --ref-seconds and gives the query
//           latency figures. The ladder stops at the first step that ends
//           with a backlog.
//   burst   --bursts rounds of --burst requests of the mix, each round
//           all due at once: completions per second while the queue
//           drains are the server's capacity.
//   swap    --swaps slots of --swap-slot-seconds each: the same mix at
//           the reference rate, with a swap to a byte-identical copy of
//           the artifact (alternating B/A) a fifth of the way in.
//   exact   closed loop over sampled names, each asked with the ANN
//           path and with "exact":true: the name_top1_match share.
// Before them, the launch is timed to the first answered request.
//
// Output checks (each failure is counted and the first few described):
// every response is ok:true; every entity answer's top-1 equals the
// batch prediction in --pred; every name's ANN top-1 is the same on
// every version of the index; each swap bumps the version by one and
// keeps the fingerprint; the server exits 0.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/kg/dataset.h"
#include "src/kg/kg_io.h"
#include "src/obs/json_writer.h"

extern char** environ;

using namespace largeea;

namespace {

constexpr double kSloUs = 1000.0;
constexpr double kReferenceRate = 4000.0;
// Ladder steps are cut into this many equal send-order windows.
constexpr int32_t kWindows = 5;
constexpr double kEntityShare = 0.7;
constexpr int32_t kTopK = 5;
constexpr int32_t kServeThreads = 3;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64: a fixed, library-independent stream, so a seed names the
// same request sequence on every platform.
struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
  int32_t Below(int32_t n) {
    return static_cast<int32_t>(Next() % static_cast<uint64_t>(n));
  }
};

// Nearest-rank percentile of an unsorted sample; NaN when empty.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Median over `windows` equal send-order slices of each slice's
// q-percentile.
double MedianWindowPercentile(const std::vector<double>& latency_us,
                              int32_t windows, double q) {
  std::vector<double> per_window;
  const size_t n = latency_us.size();
  for (int32_t i = 0; i < windows && n > 0; ++i) {
    per_window.push_back(Percentile(
        std::vector<double>(latency_us.begin() + n * i / windows,
                            latency_us.begin() + n * (i + 1) / windows),
        q));
  }
  return Percentile(per_window, 0.5);
}

// The highest of p50, p90, p99, p99.9 and p99.99 that still has at
// least ten samples beyond it, as {quantile, value}; {0, NaN} below 20
// samples.
std::pair<double, double> TailPercentile(const std::vector<double>& values) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(values.size()) * (1.0 - q) >= 10.0) best = q;
  }
  return {best, best > 0 ? Percentile(values, best) : std::nan("")};
}

std::vector<std::string> SplitRates(const std::string& list) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t comma = std::min(list.find(',', begin), list.size());
    if (comma > begin) out.push_back(list.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}

// The CPUs this process may use, split in two: the generator's (the
// last one) and the server's (the rest). While the two shared CPUs,
// capacity differed by up to 1.7x between the sessions of one run on a
// 4-vCPU virtual machine; with the split, by about 1.3x.
struct CpuSplit {
  cpu_set_t server;
  cpu_set_t generator;
  bool ok = false;  // fewer than two CPUs: no split
};

CpuSplit SplitCpus() {
  CpuSplit split;
  if (sched_getaffinity(0, sizeof(cpu_set_t), &split.server) != 0 ||
      CPU_COUNT(&split.server) < 2) {
    return split;
  }
  int last = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &split.server)) last = cpu;
  }
  CPU_CLR(last, &split.server);
  CPU_ZERO(&split.generator);
  CPU_SET(last, &split.generator);
  split.ok = true;
  return split;
}

void SetNonBlocking(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
}

// A running `largeea_cli serve`: our ends of its stdin/stdout pipes,
// both non-blocking. The destructor kills and reaps a child that was
// not waited for, so no error path leaves a process behind.
class ServeProcess {
 public:
  ServeProcess(const std::vector<std::string>& argv,
               const std::string& log_path) {
    int in_pipe[2], out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
      std::perror("pipe2");
      return;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    sched_param normal{};
    posix_spawnattr_setschedpolicy(&attr, SCHED_OTHER);
    posix_spawnattr_setschedparam(&attr, &normal);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSCHEDULER);
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    if (posix_spawn(&pid_, args[0], &actions, &attr, args.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawnattr_destroy(&attr);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_fd_ = out_pipe[0];
    SetNonBlocking(in_fd_);
    SetNonBlocking(out_fd_);
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;
  ~ServeProcess() {
    CloseInput();
    if (out_fd_ >= 0) close(out_fd_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }

  bool ok() const { return pid_ > 0; }
  int in_fd() const { return in_fd_; }
  int out_fd() const { return out_fd_; }
  void CloseInput() {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
  }

  // Closes stdin and reaps the child, killing it if it has not exited
  // within 30 s. Returns the exit code (128+signal when killed) and the
  // child's max RSS in KiB.
  int Wait(long* max_rss_kb) {
    CloseInput();
    int status = 0;
    rusage usage = {};
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    while (wait4(pid_, &status, WNOHANG, &usage) == 0) {
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        break;
      }
      usleep(1000);
    }
    pid_ = -1;
    *max_rss_kb = usage.ru_maxrss;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return 128 + WTERMSIG(status);
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
};

enum class Kind { kEntity, kName, kExact, kSwap, kQuit };

struct Request {
  Kind kind;
  int32_t key;  // entity id, name index, or swap target (0 = A, 1 = B)
};

// What an answer said, parsed just far enough for the checks.
struct Answer {
  bool ok = false;
  int64_t version = -1;
  std::string fingerprint;
  int32_t top1 = -1;  // -1: no candidates
};

std::optional<int64_t> IntAfter(std::string_view line, std::string_view key) {
  const size_t pos = line.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  const char* begin = line.data() + pos + key.size();
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(begin, line.data() + line.size(), value);
  if (ec != std::errc()) return std::nullopt;
  return value;
}

Answer ParseAnswer(std::string_view line) {
  Answer a;
  a.ok = line.starts_with("{\"ok\":true");
  if (auto v = IntAfter(line, "\"version\":")) a.version = *v;
  if (const size_t pos = line.find("\"fingerprint\":\"");
      pos != std::string_view::npos) {
    a.fingerprint = std::string(line.substr(pos + 15, 16));
  }
  // The first "target" key belongs to the first (best) candidate; names
  // come after it, so a name cannot shadow it.
  if (auto t = IntAfter(line, "\"target\":")) a.top1 = static_cast<int32_t>(*t);
  return a;
}

struct PhaseStats {
  std::vector<double> latency_us;  // from scheduled send to answer
  std::vector<double> late_us;     // actual minus scheduled send
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t failed = 0;
  int64_t inflight_at_window_end = 0;
  double window_s = 0.0;
  int64_t start_ns = 0;        // first scheduled send
  int64_t last_answer_ns = 0;  // arrival of the last answer
};

struct Inflight {
  Request request;
  int64_t scheduled_ns;
  PhaseStats* phase;  // null: untimed (setup probes, control ops)
};

class Session {
 public:
  Session(ServeProcess* proc, const std::vector<int32_t>* pred,
          const std::vector<std::string>* names,
          const std::vector<std::string>* index_paths)
      : proc_(proc), pred_(pred), names_(names), index_paths_(index_paths) {}

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  int64_t swaps() const { return swaps_; }
  double max_stall_ms() const { return max_stall_ms_; }
  const std::unordered_map<int32_t, int32_t>& exact_top1() const {
    return exact_top1_;
  }
  const std::unordered_map<int32_t, int32_t>& ann_top1() const {
    return ann_top1_;
  }

  // Queues one request line now (scheduled at `scheduled_ns`).
  void Send(const Request& request, int64_t scheduled_ns, PhaseStats* phase) {
    obs::JsonWriter w;
    w.BeginObject();
    switch (request.kind) {
      case Kind::kEntity:
        w.Key("op").String("query").Key("entity").Int(request.key);
        break;
      case Kind::kName:
      case Kind::kExact:
        w.Key("op").String("query").Key("name").String((*names_)[request.key]);
        if (request.kind == Kind::kExact) w.Key("exact").Bool(true);
        break;
      case Kind::kSwap:
        w.Key("op").String("swap").Key("index").String(
            (*index_paths_)[request.key]);
        break;
      case Kind::kQuit:
        w.Key("op").String("quit");
        break;
    }
    if (request.kind != Kind::kSwap && request.kind != Kind::kQuit) {
      w.Key("k").Int(kTopK);
    }
    w.EndObject();
    out_.append(w.str());
    out_.push_back('\n');
    const int64_t now = NowNs();
    if (phase != nullptr) {
      phase->late_us.push_back((now - scheduled_ns) / 1e3);
      ++phase->sent;
    }
    inflight_.push_back(Inflight{request, scheduled_ns, phase});
    if (request.kind != Kind::kQuit) ++attempted_;
  }

  // Writes/reads until `deadline_ns`, or until nothing is in flight
  // when `until_idle` (returns false if the deadline passed first).
  bool Pump(int64_t deadline_ns, bool until_idle) {
    while (true) {
      Flush();
      if (!Read()) return false;
      if (until_idle && inflight_.empty()) return true;
      const int64_t now = NowNs();
      if (now >= deadline_ns) return !until_idle;
      pollfd fds[2] = {{proc_->out_fd(), POLLIN, 0},
                       {proc_->in_fd(), POLLOUT, 0}};
      const nfds_t n = out_off_ < out_.size() && proc_->in_fd() >= 0 ? 2 : 1;
      const int64_t wait = deadline_ns - now;
      timespec ts{static_cast<time_t>(wait / 1000000000),
                  static_cast<long>(wait % 1000000000)};
      if (ppoll(fds, n, &ts, nullptr) < 0 && errno != EINTR) {
        Fail("ppoll failed");
        return false;
      }
    }
  }

  // Open-loop phase: `rate` requests/s of the 70/30 mix for `seconds`.
  // With `swap`, a swap op is sent a fifth of the way in. Drains all
  // answers.
  bool RunOpenLoop(double rate, double seconds, bool swap, SplitMix& rng,
                   PhaseStats& phase) {
    const auto count = static_cast<int64_t>(rate * seconds);
    const int64_t start = NowNs() + 1000000;  // 1 ms to settle
    const double period_ns = 1e9 / rate;
    phase.start_ns = start;
    for (int64_t i = 0; i < count; ++i) {
      const auto scheduled = start + static_cast<int64_t>(period_ns * i);
      if (!Pump(scheduled, /*until_idle=*/false)) return false;
      if (swap && i == count / 5) {
        Send(Request{Kind::kSwap, static_cast<int32_t>(++swaps_sent_ % 2)},
             scheduled, nullptr);
      }
      Send(NextMixRequest(rng), scheduled, &phase);
    }
    const int64_t window_end = start + static_cast<int64_t>(period_ns * count);
    Pump(window_end, /*until_idle=*/false);
    phase.window_s = (window_end - start) / 1e9;
    phase.inflight_at_window_end = static_cast<int64_t>(inflight_.size());
    if (!Pump(NowNs() + 60'000'000'000LL, /*until_idle=*/true)) {
      Fail("answers still missing 60 s after the send window");
      return false;
    }
    return true;
  }

  Request NextMixRequest(SplitMix& rng) {
    if (rng.Uniform() < kEntityShare) {
      return Request{Kind::kEntity,
                     rng.Below(static_cast<int32_t>(pred_->size()))};
    }
    return Request{Kind::kName,
                   rng.Below(static_cast<int32_t>(names_->size()))};
  }

 private:
  void Fail(std::string what) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(std::move(what));
  }

  void Flush() {
    while (out_off_ < out_.size() && proc_->in_fd() >= 0) {
      const ssize_t n = write(proc_->in_fd(), out_.data() + out_off_,
                              out_.size() - out_off_);
      if (n > 0) {
        out_off_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      proc_->CloseInput();  // EPIPE: the server is gone
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
  }

  // Returns false when the server closed its output.
  bool Read() {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = read(proc_->out_fd(), buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return true;  // EAGAIN: nothing more for now
      if (n == 0) {
        if (!inflight_.empty()) Fail("server closed its output early");
        inflight_.clear();
        return false;
      }
      const int64_t now = NowNs();
      in_.append(buf, static_cast<size_t>(n));
      size_t begin = 0;
      for (size_t nl; (nl = in_.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        OnAnswer(std::string_view(in_).substr(begin, nl - begin), now);
      }
      in_.erase(0, begin);
    }
  }

  void OnAnswer(std::string_view line, int64_t now) {
    if (inflight_.empty()) {
      Fail("unexpected answer: " + std::string(line.substr(0, 80)));
      return;
    }
    const Inflight sent = inflight_.front();
    inflight_.pop_front();
    const Answer a = ParseAnswer(line);
    const double latency_us = (now - sent.scheduled_ns) / 1e3;
    if (sent.phase != nullptr) {
      sent.phase->latency_us.push_back(a.ok ? latency_us : INFINITY);
      ++sent.phase->answered;
      sent.phase->last_answer_ns = now;
      if (!a.ok) ++sent.phase->failed;
    }
    if (!a.ok) {
      Fail("error answer: " + std::string(line.substr(0, 120)));
      return;
    }
    const Request& r = sent.request;
    switch (r.kind) {
      case Kind::kEntity:
        if (a.top1 != (*pred_)[r.key]) {
          Fail("entity " + std::to_string(r.key) + ": served top-1 " +
               std::to_string(a.top1) + " != batch prediction " +
               std::to_string((*pred_)[r.key]));
        }
        break;
      case Kind::kName: {
        const auto [it, inserted] = ann_top1_.emplace(r.key, a.top1);
        if (!inserted && it->second != a.top1) {
          Fail("name " + std::to_string(r.key) + ": top-1 changed from " +
               std::to_string(it->second) + " to " + std::to_string(a.top1));
        }
        break;
      }
      case Kind::kExact:
        exact_top1_[r.key] = a.top1;
        break;
      case Kind::kSwap:
        max_stall_ms_ =
            std::max(max_stall_ms_, (now - sent.scheduled_ns) / 1e6);
        if (version_ >= 0 && a.version != version_ + 1) {
          Fail("swap did not bump the version by one");
        }
        if (!fingerprint_.empty() && a.fingerprint != fingerprint_) {
          Fail("swap to an identical artifact changed the fingerprint");
        }
        ++swaps_;
        break;
      case Kind::kQuit:
        return;
    }
    if (r.kind != Kind::kQuit) {
      version_ = a.version;
      fingerprint_ = a.fingerprint;
    }
  }

  ServeProcess* proc_;
  const std::vector<int32_t>* pred_;
  const std::vector<std::string>* names_;
  const std::vector<std::string>* index_paths_;
  std::string out_;
  size_t out_off_ = 0;
  std::string in_;
  std::deque<Inflight> inflight_;
  int64_t version_ = -1;
  std::string fingerprint_;
  std::unordered_map<int32_t, int32_t> ann_top1_;
  std::unordered_map<int32_t, int32_t> exact_top1_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t swaps_ = 0;
  int64_t swaps_sent_ = 0;
  double max_stall_ms_ = 0.0;
  std::vector<std::string> failures_;
};

// Writes a phase's figures. Latencies arrive in send order, so window
// w holds the w-th equal slice of the phase's requests; the medians of
// the per-window percentiles are what one burst of host noise in one
// window cannot move.
void WritePhase(obs::JsonWriter& w, const PhaseStats& p, int32_t windows) {
  const auto finite = [](double v) { return std::isfinite(v) ? v : 1e12; };
  const double elapsed_s = (p.last_answer_ns - p.start_ns) / 1e9;
  const auto [tail_q, tail_us] = TailPercentile(p.latency_us);
  w.BeginObject()
      .Key("samples").Int(static_cast<int64_t>(p.latency_us.size()))
      .Key("sent").Int(p.sent)
      .Key("answered").Int(p.answered)
      .Key("failed").Int(p.failed)
      .Key("p50_us").Double(finite(Percentile(p.latency_us, 0.5)))
      .Key("p99_us").Double(finite(Percentile(p.latency_us, 0.99)))
      .Key("tail_q").Double(tail_q)
      .Key("tail_us").Double(finite(tail_us))
      .Key("median_window_p50_us")
      .Double(finite(MedianWindowPercentile(p.latency_us, windows, 0.5)))
      .Key("median_window_p99_us")
      .Double(finite(MedianWindowPercentile(p.latency_us, windows, 0.99)))
      .Key("achieved_qps").Double(elapsed_s > 0 ? p.answered / elapsed_s : 0)
      .Key("late_p99_us").Double(Percentile(p.late_us, 0.99))
      .Key("late_max_us").Double(Percentile(p.late_us, 1.0))
      .Key("inflight_at_window_end").Int(p.inflight_at_window_end)
      .Key("window_s").Double(p.window_s)
      .EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  for (const char* name :
       {"cli", "index", "index-copy", "source", "target", "pred", "seed",
        "work-dir", "out", "rates", "step-seconds", "ref-seconds", "bursts",
        "burst", "swaps", "swap-slot-seconds", "exact-samples"}) {
    if (!flags.Has(name)) {
      std::fprintf(stderr, "perfbench_loadgen: --%s is required\n", name);
      return 2;
    }
  }
  const std::string cli = flags.GetString("cli", "");
  const std::string index_a = flags.GetString("index", "");
  const std::string index_b = flags.GetString("index-copy", "");
  const std::string work_dir = flags.GetString("work-dir", "");
  const std::string out_path = flags.GetString("out", "");
  const double step_s = flags.GetDouble("step-seconds", 0);
  const double ref_s = flags.GetDouble("ref-seconds", 0);
  const auto swaps = static_cast<int32_t>(flags.GetInt("swaps", 0));
  const double swap_slot_s = flags.GetDouble("swap-slot-seconds", 0);
  const auto exact_samples =
      static_cast<int32_t>(flags.GetInt("exact-samples", 0));
  const auto burst = flags.GetInt("burst", 0);
  const auto burst_rounds = static_cast<int32_t>(flags.GetInt("bursts", 0));
  std::vector<double> rates;
  for (const std::string& r : SplitRates(flags.GetString("rates", ""))) {
    rates.push_back(std::stod(r));
  }
  // Punctual sends: ppoll wakes within µs instead of the default 50 µs
  // timer slack, and where permitted the generator runs under SCHED_FIFO
  // so a busy server thread cannot delay its wake-ups. The spawned
  // server is reset to the normal policy (POSIX_SPAWN_SETSCHEDULER).
  prctl(PR_SET_TIMERSLACK, 1UL);
  sched_param fifo{};
  fifo.sched_priority = 1;
  const bool realtime = sched_setscheduler(0, SCHED_FIFO, &fifo) == 0;
  signal(SIGPIPE, SIG_IGN);

  // Source ids and names exactly as the CLI numbers them: the same
  // loader on the same files.
  EaDatasetPaths paths;
  paths.source_triples = flags.GetString("source", "");
  paths.target_triples = flags.GetString("target", "");
  auto dataset = LoadEaDataset(paths, {}, "loadgen");
  if (!dataset.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n",
                 dataset.status().ToString().c_str());
    return 2;
  }
  auto pred_pairs = LoadAlignment(flags.GetString("pred", ""),
                                  dataset->source, dataset->target);
  if (!pred_pairs.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: --pred: %s\n",
                 pred_pairs.status().ToString().c_str());
    return 2;
  }
  std::vector<int32_t> pred(dataset->source.num_entities(), -1);
  for (const EntityPair& p : *pred_pairs) pred[p.source] = p.target;
  std::vector<std::string> names;
  for (int32_t e = 0; e < dataset->source.num_entities(); ++e) {
    names.push_back(dataset->source.EntityName(e));
  }
  const std::vector<std::string> index_paths = {index_a, index_b};

  const std::string log = work_dir + "/serve.log";
  const auto serve_argv = [&](const std::string& report) {
    std::vector<std::string> a = {cli, "serve", "--index", index_a,
                                  "--threads", std::to_string(kServeThreads),
                                  "--k", std::to_string(kTopK)};
    if (!report.empty()) {
      a.push_back("--report-out");
      a.push_back(report);
    }
    return a;
  };

  int64_t failed = 0;
  std::vector<std::string> failures;
  const auto note = [&](const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  };

  double setup_s = 0.0;
  // The session; its launch -> first answer is the set-up time.
  const std::string serve_report = work_dir + "/serve-report.json";
  // The server inherits the affinity mask current at spawn.
  const CpuSplit cpus = SplitCpus();
  if (cpus.ok) sched_setaffinity(0, sizeof(cpu_set_t), &cpus.server);
  const int64_t launched = NowNs();
  ServeProcess proc(serve_argv(serve_report), log);
  if (cpus.ok) sched_setaffinity(0, sizeof(cpu_set_t), &cpus.generator);
  if (!proc.ok()) {
    std::fprintf(stderr, "perfbench_loadgen: could not launch serve\n");
    return 1;
  }
  Session session(&proc, &pred, &names, &index_paths);
  SplitMix rng{
      static_cast<uint64_t>(flags.GetInt("seed", 0)) * 0x2545f491ULL + 1};
  session.Send(Request{Kind::kEntity, 0}, launched, nullptr);
  bool alive = session.Pump(NowNs() + 120'000'000'000LL, /*until_idle=*/true);
  if (alive) setup_s = (NowNs() - launched) / 1e9;

  // A step passes when the median of its per-window p99s meets the SLO,
  // nothing failed, and no more than ~1 ms of work was queued when the
  // send window closed.
  struct Step {
    double rate;
    PhaseStats stats;
    bool pass = false;
  };
  std::vector<Step> ladder;
  for (const double rate : rates) {
    if (!alive) break;
    ladder.push_back(Step{rate, {}, false});
    Step& step = ladder.back();
    alive = session.RunOpenLoop(rate, rate == kReferenceRate ? ref_s : step_s,
                                /*swap=*/false, rng, step.stats);
    const bool backlog =
        step.stats.inflight_at_window_end > 16 + rate * kSloUs / 1e6;
    step.pass = alive && step.stats.failed == 0 && !backlog &&
                MedianWindowPercentile(step.stats.latency_us, kWindows, 0.99) <=
                    kSloUs;
    // Past saturation every further step only grows the queue to drain.
    if (backlog) break;
  }

  // Capacity: --bursts rounds of --burst requests all due at once, so
  // the server is never idle until the queue drains; completions per
  // second measure the throughput of its request path for this mix.
  std::vector<PhaseStats> bursts(burst > 0 ? std::max(0, burst_rounds) : 0);
  for (PhaseStats& phase : bursts) {
    if (alive) {
      alive = session.RunOpenLoop(1e9, burst / 1e9, /*swap=*/false, rng, phase);
    }
  }

  std::vector<PhaseStats> swap_slots(std::max(0, swaps));
  for (PhaseStats& slot : swap_slots) {
    if (alive) {
      alive = session.RunOpenLoop(kReferenceRate, swap_slot_s, /*swap=*/true,
                                  rng, slot);
    }
  }

  // ANN vs exact top-1 over a fixed name sample, closed loop.
  int32_t matches = 0;
  for (int32_t i = 0; alive && i < exact_samples; ++i) {
    const int32_t key = rng.Below(static_cast<int32_t>(names.size()));
    session.Send(Request{Kind::kName, key}, NowNs(), nullptr);
    session.Send(Request{Kind::kExact, key}, NowNs(), nullptr);
    alive = session.Pump(NowNs() + 10'000'000'000LL, /*until_idle=*/true);
    if (alive && session.ann_top1().at(key) == session.exact_top1().at(key)) {
      ++matches;
    }
  }
  if (alive) {
    session.Send(Request{Kind::kQuit, 0}, NowNs(), nullptr);
    session.Pump(NowNs() + 10'000'000'000LL, /*until_idle=*/true);
  }
  long rss_kb = 0;
  const int exit_code = proc.Wait(&rss_kb);
  const int64_t attempted = session.attempted();
  failed += session.failed();
  for (const std::string& f : session.failures()) {
    if (failures.size() < 8) failures.push_back(f);
  }
  if (!alive) note("serve session ended early");
  if (exit_code != 0) note("serve exited with " + std::to_string(exit_code));
  if (session.swaps() != swaps && alive) note("not every swap was answered");

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("setup_s").Double(setup_s);
  w.Key("generator_realtime").Bool(realtime);
  w.Key("generator_own_cpu").Bool(cpus.ok);
  w.Key("serve_exit_code").Int(exit_code);
  w.Key("serve_max_rss_kb").Int(rss_kb);
  w.Key("serve_report").String(serve_report);
  w.Key("ladder").BeginArray();
  for (const Step& step : ladder) {
    w.BeginObject().Key("rate").Double(step.rate).Key("pass").Bool(step.pass);
    w.Key("reference").Bool(step.rate == kReferenceRate);
    w.Key("stats");
    WritePhase(w, step.stats, kWindows);
    w.EndObject();
  }
  w.EndArray();
  w.Key("bursts").BeginArray();
  for (const PhaseStats& phase : bursts) WritePhase(w, phase, 1);
  w.EndArray();
  w.Key("swap_slots").BeginArray();
  for (const PhaseStats& slot : swap_slots) WritePhase(w, slot, 1);
  w.EndArray();
  w.Key("swaps").Int(session.swaps());
  w.Key("swap_max_stall_ms").Double(session.max_stall_ms());
  w.Key("exact_samples").Int(exact_samples);
  w.Key("name_top1_matches").Int(matches);
  w.Key("attempted").Int(attempted);
  w.Key("failed").Int(failed);
  w.Key("failures").BeginArray();
  for (const std::string& f : failures) w.String(f);
  w.EndArray();
  w.EndObject();
  if (!obs::WriteStringToFile(out_path, w.str())) {
    std::fprintf(stderr, "perfbench_loadgen: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}
