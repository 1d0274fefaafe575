#pragma once

#include <cstddef>
#include <fstream>
#include <string>

/// The test process's own address-space footprint, read from /proc/self:
/// the number of mappings and VmSize. A thread that exits but is never
/// joined keeps its stack and guard page mapped, so both grow by about
/// two mappings and 8 MiB per leaked thread.
struct ProcFootprint {
  long maps = 0;
  long vm_kib = 0;
};

inline ProcFootprint proc_footprint() {
  ProcFootprint fp;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) ++fp.maps;
  std::ifstream status("/proc/self/status");
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0) fp.vm_kib = std::stol(line.substr(7));
  return fp;
}
