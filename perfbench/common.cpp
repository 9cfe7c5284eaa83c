#include "common.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/json.h"

extern char** environ;

namespace perfbench {

std::uint64_t SpanRecorder::begin(const std::string& name,
                                  std::uint64_t parent, std::uint64_t trace) {
  if (!enabled_) return 0;
  const double now = seconds_between(process_start(), Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.trace = trace;
  s.name = name;
  s.start_s = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = seconds_between(process_start(), Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end_s = now;
}

double SpanRecorder::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of one span run on its thread one after another, so their
  // durations do not overlap and subtract directly.
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += (s.end_s - s.start_s) - child_time[s.id];
  }
  return total;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << ",\"name\":\""
        << neutral::obs::json_escape(s.name)
        << "\",\"start_s\":" << neutral::obs::json_number(s.start_s)
        << ",\"end_s\":" << neutral::obs::json_number(s.end_s) << "}\n";
  }
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

ChildProcess::ChildProcess(std::vector<std::string> argv) : name_(argv.at(0)) {
  std::vector<char*> args;
  for (std::string& a : argv) args.push_back(a.data());
  args.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  out_fd_ = fds[0];
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const int rc = ::posix_spawn(&pid_, name_.c_str(), &actions, nullptr,
                               args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    pid_ = -1;
    stop();
    throw std::runtime_error("cannot spawn " + name_ + ": " +
                             std::strerror(rc));
  }
}

std::string ChildProcess::read_line(double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::size_t eol;
  while ((eol = buffered_.find('\n')) == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) throw std::runtime_error(name_ + " printed nothing");
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) throw std::runtime_error(name_ + " exited early");
    buffered_.append(buf, static_cast<std::size_t>(n));
  }
  std::string line = buffered_.substr(0, eol);
  buffered_.erase(0, eol + 1);
  return line;
}

bool ChildProcess::reap(double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (pid_ > 0 && Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    ::usleep(1000);
  }
  return false;
}

void ChildProcess::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
}

}  // namespace perfbench
