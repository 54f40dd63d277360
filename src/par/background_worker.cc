#include "src/par/background_worker.h"

#include <exception>
#include <utility>

#include "src/obs/log.h"
#include "src/obs/trace.h"

namespace largeea::par {

BackgroundWorker::BackgroundWorker(std::string thread_name)
    : thread_name_(std::move(thread_name)) {}

BackgroundWorker::~BackgroundWorker() {
  std::unique_lock<std::mutex> lock(mu_);
  if (has_task_error_) {
    LARGEEA_LOG_WARN("background worker '%s': unreported task failure: %s",
                     thread_name_.c_str(), task_error_.c_str());
  }
  if (!started_) return;
  // Let queued tasks finish (a prefetch abandoned mid-write would leave
  // work for the next Get to redo, not corruption — spills are atomic —
  // but draining keeps shutdown semantics simple and race-free).
  idle_cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
  stopping_ = true;
  work_cv_.notify_all();
  lock.unlock();
  worker_.join();
}

Status BackgroundWorker::TakeErrorLocked() {
  if (!has_task_error_) return OkStatus();
  has_task_error_ = false;
  return InternalError("background worker '" + thread_name_ +
                       "': task failed: " + std::exchange(task_error_, {}));
}

void BackgroundWorker::Submit(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  if (!started_) {
    started_ = true;
    worker_ = std::thread([this] { Loop(); });
  }
  queue_.push_back(std::move(task));
  ++submitted_;
  work_cv_.notify_one();
}

Status BackgroundWorker::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
  return TakeErrorLocked();
}

int64_t BackgroundWorker::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

void BackgroundWorker::Loop() {
  obs::SetCurrentThreadName(thread_name_);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (stopping_ && queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lock.unlock();
    // An exception escaping here would std::terminate the whole process
    // (the task runs on a bare std::thread). Capture the first failure
    // instead and keep draining: one bad prefetch must cost a cache
    // miss, not the run.
    std::string error;
    try {
      task();
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    lock.lock();
    if (!error.empty() && !has_task_error_) {
      has_task_error_ = true;
      task_error_ = std::move(error);
    }
    busy_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

}  // namespace largeea::par
