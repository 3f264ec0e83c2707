#include "net/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace converge {

ValueTrace::ValueTrace(std::vector<TraceSample> samples, bool repeat)
    : samples_(std::move(samples)), repeat_(repeat) {
  std::sort(samples_.begin(), samples_.end(),
            [](const TraceSample& a, const TraceSample& b) { return a.at < b.at; });
}

ValueTrace ValueTrace::Constant(double value) {
  return ValueTrace({{Timestamp::Zero(), value}}, /*repeat=*/false);
}

double ValueTrace::ValueAt(Timestamp t) const {
  if (samples_.empty()) return 0.0;
  if (samples_.size() == 1) return samples_.front().value;

  Timestamp lookup = t;
  const Timestamp begin = samples_.front().at;
  const Timestamp end = samples_.back().at;
  if (repeat_ && lookup > end) {
    const int64_t span = (end - begin).us();
    if (span > 0) {
      const int64_t offset = (lookup - begin).us() % span;
      lookup = begin + Duration::Micros(offset);
    }
  }
  if (lookup <= begin) return samples_.front().value;
  // Last sample at or before `lookup`.
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), lookup,
      [](Timestamp v, const TraceSample& s) { return v < s.at; });
  return std::prev(it)->value;
}

ValueTrace ValueTrace::LoadCsv(const std::string& path, bool repeat) {
  std::ifstream in(path);
  std::vector<TraceSample> samples;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    double sec = 0.0, value = 0.0;
    char comma = 0;
    if (ls >> sec >> comma >> value) {
      samples.push_back({Timestamp::Seconds(sec), value});
    }
  }
  return ValueTrace(std::move(samples), repeat);
}

bool ValueTrace::SaveCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : samples_) {
    out << s.at.seconds() << ',' << s.value << '\n';
  }
  return static_cast<bool>(out);
}

ValueTrace ValueTrace::Scaled(double factor) const {
  std::vector<TraceSample> scaled = samples_;
  for (auto& s : scaled) s.value *= factor;
  return ValueTrace(std::move(scaled), repeat_);
}

}  // namespace converge
