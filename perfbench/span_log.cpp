#include "span_log.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace pb {

int SpanLog::open(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.tid = tid_;
  s.t0 = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].t1 = now_s();
  // Spans are strictly nested (RAII), so the closing span is the top.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double SpanLog::self_time(std::size_t index) const {
  double covered = 0.0;
  for (const Span& s : spans_)
    if (s.parent == static_cast<int>(index)) covered += s.dur();
  return spans_[index].dur() - covered;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  std::vector<int> lanes;
  for (const Span& s : spans_)
    if (std::find(lanes.begin(), lanes.end(), s.tid) == lanes.end())
      lanes.push_back(s.tid);

  os << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[320];
  auto emit = [&](const char* text) {
    if (!first) os << ",\n";
    first = false;
    os << text;
  };
  for (const int lane : lanes) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"perfbench pass %d\"}}",
                  lane, lane);
    emit(buf);
  }
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"parent\":%d,\"run\":%d}}",
                  s.name.c_str(), (s.t0 - origin) * 1e6, s.dur() * 1e6, s.tid,
                  s.parent, s.run);
    emit(buf);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

}  // namespace pb
