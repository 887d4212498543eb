#include "src/core/worker_ipc.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace zebra {

namespace {
constexpr size_t kFrameHeaderSize = 16;
}  // namespace

bool WriteAll(int fd, const void* data, size_t size) {
  if (size == 0) {
    // Explicit so that a zero-length payload (fabric heartbeats, empty
    // frames) never reaches write(2) with a possibly-null pointer, and so a
    // half-closed socket doesn't spuriously fail an empty send. EPIPE is
    // only observable once bytes are actually written.
    return true;
  }
  const char* bytes = static_cast<const char*>(data);
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool ReadExact(int fd, void* data, size_t size) {
  if (size == 0) {
    return true;  // mirror WriteAll: never pass a null buffer to read(2)
  }
  char* bytes = static_cast<char*>(data);
  size_t read_total = 0;
  while (read_total < size) {
    ssize_t n = ::read(fd, bytes + read_total, size - read_total);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;  // EOF before the expected byte count
    }
    read_total += static_cast<size_t>(n);
  }
  return true;
}

bool WriteFrame(int fd, const std::string& payload) {
  char header[kFrameHeaderSize + 1];
  std::snprintf(header, sizeof(header), "%0*zu", static_cast<int>(kFrameHeaderSize),
                payload.size());
  return WriteAll(fd, header, kFrameHeaderSize) &&
         WriteAll(fd, payload.data(), payload.size());
}

bool ReadFrame(int fd, std::string* payload) {
  char header[kFrameHeaderSize + 1] = {0};
  if (!ReadExact(fd, header, kFrameHeaderSize)) {
    return false;
  }
  size_t size = 0;
  for (size_t i = 0; i < kFrameHeaderSize; ++i) {
    if (header[i] < '0' || header[i] > '9') {
      return false;
    }
    size = size * 10 + static_cast<size_t>(header[i] - '0');
  }
  payload->assign(size, '\0');
  return size == 0 || ReadExact(fd, payload->data(), size);
}

bool ReapAll(const std::vector<pid_t>& pids) {
  bool all_clean = true;
  for (pid_t pid : pids) {
    if (pid < 0) {
      continue;
    }
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    if (reaped != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      all_clean = false;
    }
  }
  return all_clean;
}

}  // namespace zebra
