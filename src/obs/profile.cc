#include "obs/profile.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

namespace cardir {
namespace obs {
namespace {

// Session state. One sampler at a time; the mutex guards start/stop and
// the aggregation maps (the sampler takes it per wakeup — at <=~1 kHz this
// is nowhere near contention).
struct ProfilerState {
  std::mutex mutex;
  std::condition_variable wake;
  bool running = false;
  bool stop_requested = false;
  std::thread sampler;
  // Key: "outer;inner;..." folded stack -> samples attributed.
  std::map<std::string, uint64_t> folded;
  ProfileStats stats;
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();
  return *state;
}

void SamplerLoop(double hz) {
  ProfilerState& state = State();
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      1.0 / (hz > 0.0 ? hz : 1.0)));
  auto next = std::chrono::steady_clock::now() + period;
  std::unique_lock<std::mutex> lock(state.mutex);
  while (!state.stop_requested) {
    // Sleep with the lock released; wake early on stop.
    if (state.wake.wait_until(lock, next,
                              [&state] { return state.stop_requested; })) {
      break;
    }
    next += period;
    lock.unlock();
    const std::vector<SpanStackSample> samples = SampleSpanStacks();
    lock.lock();
    ++state.stats.samples_taken;
    if (!samples.empty()) ++state.stats.samples_with_work;
    for (const SpanStackSample& sample : samples) {
      std::string key;
      for (const char* frame : sample.frames) {
        if (!key.empty()) key += ';';
        key += frame;
      }
      ++state.folded[key];
    }
  }
}

}  // namespace

Status StartProfiling(const ProfileOptions& options) {
  if (!(options.hz > 0.0) || options.hz > 100000.0) {
    return Status::InvalidArgument("profile rate must be in (0, 100000] Hz");
  }
  ProfilerState& state = State();
  std::unique_lock<std::mutex> lock(state.mutex);
  if (state.running) {
    return Status::FailedPrecondition("profiler already running");
  }
  state.folded.clear();
  state.stats = ProfileStats();
  state.stop_requested = false;
  state.running = true;
  EnableSpanStacks(true);
  state.sampler = std::thread(SamplerLoop, options.hz);
  return Status::Ok();
}

bool ProfilingActive() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.running;
}

void StopProfiling() {
  ProfilerState& state = State();
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.running) return;
    state.stop_requested = true;
    state.wake.notify_all();
    joinable = std::move(state.sampler);
  }
  joinable.join();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.running = false;
  }
  EnableSpanStacks(false);
}

std::string FormatCollapsedStacks() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::ostringstream out;
  for (const auto& [stack, count] : state.folded) {
    out << stack << ' ' << count << '\n';
  }
  return out.str();
}

std::string FormatProfileSummary() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  // inclusive: label appears anywhere on the stack (counted once even if
  // recursive); self: label is leaf-most.
  std::map<std::string, std::pair<uint64_t, uint64_t>> per_label;
  for (const auto& [stack, count] : state.folded) {
    std::vector<std::string> frames;
    size_t begin = 0;
    while (begin <= stack.size()) {
      const size_t sep = stack.find(';', begin);
      const size_t end = sep == std::string::npos ? stack.size() : sep;
      frames.push_back(stack.substr(begin, end - begin));
      if (sep == std::string::npos) break;
      begin = sep + 1;
    }
    std::vector<std::string> seen;
    for (const std::string& frame : frames) {
      if (std::find(seen.begin(), seen.end(), frame) == seen.end()) {
        seen.push_back(frame);
        per_label[frame].first += count;
      }
    }
    if (!frames.empty()) per_label[frames.back()].second += count;
  }
  std::ostringstream out;
  for (const auto& [label, counts] : per_label) {
    out << label << " inclusive=" << counts.first << " self=" << counts.second
        << '\n';
  }
  return out.str();
}

ProfileStats GetProfileStats() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.stats;
}

Status WriteCollapsedProfile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open profile output: " + path);
  }
  out << FormatCollapsedStacks();
  out.close();
  if (!out) {
    return Status::IoError("short write to profile output: " + path);
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace cardir
