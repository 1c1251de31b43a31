#include "procfs.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace lo::lsbench {

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// utime + stime from a stat line. The command name may hold spaces and
// parentheses, so fields are counted from the last ')'.
bool StatTicks(const std::string& stat, int64_t* ticks) {
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(stat.substr(close + 1));
  std::vector<std::string> tok;
  std::string t;
  while (fields >> t) tok.push_back(t);
  // tok[0] is field 3 (state); utime and stime are fields 14 and 15.
  if (tok.size() < 13) return false;
  *ticks = std::atoll(tok[11].c_str()) + std::atoll(tok[12].c_str());
  return true;
}

uint64_t FieldValue(const std::string& text, const std::string& key) {
  size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace

ProcSample ReadProc(pid_t pid) {
  ProcSample sample;
  std::string base = "/proc/" + std::to_string(pid);
  std::string text;
  if (!ReadFile(base + "/stat", &text) || !StatTicks(text, &sample.cpu_ticks)) {
    return sample;
  }
  sample.ok = true;
  if (ReadFile(base + "/status", &text)) {
    sample.vm_hwm_kb = FieldValue(text, "VmHWM:");
    sample.threads = static_cast<int>(FieldValue(text, "Threads:"));
  }
  if (ReadFile(base + "/io", &text)) {
    sample.write_bytes = FieldValue(text, "\nwrite_bytes:");
  }
  if (DIR* dir = opendir((base + "/task").c_str())) {
    while (struct dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      int64_t ticks = 0;
      if (ReadFile(base + "/task/" + entry->d_name + "/stat", &text) &&
          StatTicks(text, &ticks)) {
        sample.thread_ticks[std::atoi(entry->d_name)] = ticks;
      }
    }
    closedir(dir);
  }
  return sample;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::string text;
  if (!ReadFile("/proc/stat", &text)) return cpu;
  std::istringstream line(text.substr(0, text.find('\n')));
  std::string label;
  line >> label;  // "cpu": user nice system idle iowait irq softirq steal
  int64_t value = 0;
  for (int i = 0; line >> value; i++) {
    if (i < 8) cpu.total += value;
    if (i == 7) cpu.steal = value;
  }
  return cpu;
}

double TicksToMs(int64_t ticks) {
  static const double kMsPerTick = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(ticks) * kMsPerTick;
}

double TopThreadShare(const ProcSample& before, const ProcSample& after) {
  int64_t total = 0;
  int64_t top = 0;
  for (const auto& [tid, ticks] : after.thread_ticks) {
    auto it = before.thread_ticks.find(tid);
    int64_t delta = ticks - (it == before.thread_ticks.end() ? 0 : it->second);
    total += delta;
    top = std::max(top, delta);
  }
  return total > 0 ? static_cast<double>(top) / static_cast<double>(total) : 0;
}

}  // namespace lo::lsbench
