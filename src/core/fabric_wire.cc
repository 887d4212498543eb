#include "src/core/fabric_wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "src/common/strings.h"
#include "src/core/worker_ipc.h"

namespace zebra {

namespace {

constexpr char kMagic[4] = {'Z', 'F', 'A', 'B'};
constexpr size_t kHeaderSize = 28;

void PutU32(char* out, uint32_t value) {
  out[0] = static_cast<char>(value & 0xff);
  out[1] = static_cast<char>((value >> 8) & 0xff);
  out[2] = static_cast<char>((value >> 16) & 0xff);
  out[3] = static_cast<char>((value >> 24) & 0xff);
}

void PutU64(char* out, uint64_t value) {
  PutU32(out, static_cast<uint32_t>(value & 0xffffffffull));
  PutU32(out + 4, static_cast<uint32_t>(value >> 32));
}

uint32_t GetU32(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

uint64_t GetU64(const char* in) {
  return static_cast<uint64_t>(GetU32(in)) |
         static_cast<uint64_t>(GetU32(in + 4)) << 32;
}

// writev(2) with EINTR retry and short-write resumption. A short write
// advances through the iovec array in place; once the header vector drains
// the remaining payload bytes go out through WriteAll's plain-write loop.
bool WritevAll(int fd, struct iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    ssize_t n = ::writev(fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    size_t left = static_cast<size_t>(n);
    while (iovcnt > 0 && left >= iov[0].iov_len) {
      left -= iov[0].iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov[0].iov_base = static_cast<char*>(iov[0].iov_base) + left;
      iov[0].iov_len -= left;
    }
  }
  return true;
}

// ReadExact that distinguishes the three outcomes the frame reader needs:
// 1 = got every byte, 0 = clean EOF before the first byte, -1 = read error
// or EOF mid-buffer (a torn frame).
int ReadExactOrEof(int fd, char* out, size_t size) {
  size_t read_total = 0;
  while (read_total < size) {
    ssize_t n = ::read(fd, out + read_total, size - read_total);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      return read_total == 0 ? 0 : -1;
    }
    read_total += static_cast<size_t>(n);
  }
  return 1;
}

double MonotonicSeconds() {
  struct timespec now;
  ::clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

}  // namespace

bool WriteFabricFrame(int fd, FabricMsg type, const std::string& payload) {
  char header[kHeaderSize];
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutU32(header + 4, kFabricProtocolVersion);
  PutU32(header + 8, static_cast<uint32_t>(type));
  PutU64(header + 12, payload.size());
  PutU64(header + 20, HashFnv64(payload));
  // One writev per frame: the header never hits the wire in its own TCP
  // segment, and a batched frame costs one syscall regardless of payload
  // size. payload.data() is only read, but iovec wants a non-const pointer.
  struct iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = kHeaderSize;
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  return WritevAll(fd, iov, payload.empty() ? 1 : 2);
}

FabricRead ReadFabricFrame(int fd, FabricMsg* type, std::string* payload) {
  char header[kHeaderSize];
  int got = ReadExactOrEof(fd, header, kHeaderSize);
  if (got == 0) {
    return FabricRead::kEof;
  }
  if (got < 0) {
    // EOF mid-header is indistinguishable from corruption at the framing
    // layer; both retire the connection. A true read(2) error keeps errno.
    return errno != 0 && errno != ECONNRESET ? FabricRead::kError
                                             : FabricRead::kGarbled;
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return FabricRead::kGarbled;
  }
  if (GetU32(header + 4) != kFabricProtocolVersion) {
    // Intact magic, wrong version: a real (old or future) peer rather than
    // line noise. Reported distinctly so the handshake can name the refusal;
    // the connection is equally unusable either way.
    return FabricRead::kVersionMismatch;
  }
  uint64_t size = GetU64(header + 12);
  if (size > kFabricMaxPayload) {
    return FabricRead::kGarbled;
  }
  uint64_t checksum = GetU64(header + 20);
  payload->assign(static_cast<size_t>(size), '\0');
  if (size > 0 && ReadExactOrEof(fd, payload->data(), payload->size()) != 1) {
    return FabricRead::kGarbled;
  }
  if (HashFnv64(*payload) != checksum) {
    return FabricRead::kGarbled;
  }
  *type = static_cast<FabricMsg>(GetU32(header + 8));
  return FabricRead::kOk;
}

void AppendBatchRecord(std::string* payload, const std::string& record) {
  payload->append(std::to_string(record.size()));
  payload->push_back('\n');
  payload->append(record);
}

bool DecodeBatchRecords(const std::string& payload,
                        std::vector<std::string>* records) {
  records->clear();
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t newline = payload.find('\n', pos);
    if (newline == std::string::npos || newline == pos) {
      return false;
    }
    uint64_t length = 0;
    for (size_t i = pos; i < newline; ++i) {
      char c = payload[i];
      if (c < '0' || c > '9' || length > kFabricMaxPayload) {
        return false;
      }
      length = length * 10 + static_cast<uint64_t>(c - '0');
    }
    size_t body = newline + 1;
    if (length > payload.size() - body) {
      return false;
    }
    records->emplace_back(payload, body, static_cast<size_t>(length));
    pos = body + static_cast<size_t>(length);
  }
  return true;
}

std::string EncodeConfirm(size_t unit, int attempt, const std::string& param) {
  return std::to_string(unit) + " " + std::to_string(attempt) + "\n" + param;
}

bool DecodeConfirm(const std::string& payload, size_t* unit, int* attempt,
                   std::string* param) {
  // Digits only, at most INT32_MAX, so a sign, a stray space or an overflow
  // fails closed instead of naming some other lease.
  auto parse = [](const std::string& digits, uint64_t* value) {
    if (digits.empty()) {
      return false;
    }
    *value = 0;
    for (char c : digits) {
      if (c < '0' || c > '9') {
        return false;
      }
      *value = *value * 10 + static_cast<uint64_t>(c - '0');
      if (*value > static_cast<uint64_t>(INT32_MAX)) {
        return false;
      }
    }
    return true;
  };
  const size_t newline = payload.find('\n');
  if (newline == std::string::npos) {
    return false;
  }
  const size_t space = payload.find(' ');
  if (space == std::string::npos || space > newline) {
    return false;
  }
  uint64_t unit_value = 0;
  uint64_t attempt_value = 0;
  if (!parse(payload.substr(0, space), &unit_value) ||
      !parse(payload.substr(space + 1, newline - space - 1), &attempt_value)) {
    return false;
  }
  std::string name = payload.substr(newline + 1);
  if (name.empty() || name.find('\n') != std::string::npos) {
    return false;
  }
  *unit = static_cast<size_t>(unit_value);
  *attempt = static_cast<int>(attempt_value);
  *param = std::move(name);
  return true;
}

namespace {

// The kStats field list: wire key, counter, and whether the agent reports it
// as a delta against its post-load baseline.
struct CacheStatsField {
  const char* key;
  int64_t RunCache::Stats::*counter;
  bool delta;
};

constexpr CacheStatsField kCacheStatsFields[] = {
    {"cache_hits", &RunCache::Stats::hits, true},
    {"cache_misses", &RunCache::Stats::misses, true},
    {"equiv_hits", &RunCache::Stats::equiv_hits, true},
    {"mispredictions", &RunCache::Stats::mispredictions, true},
    {"cache_evictions", &RunCache::Stats::evictions, true},
    {"cache_load_failures", &RunCache::Stats::load_failures, false},
};

}  // namespace

std::string EncodeCacheStats(const RunCache::Stats& stats,
                             const RunCache::Stats& baseline) {
  std::string payload;
  for (const CacheStatsField& field : kCacheStatsFields) {
    int64_t value = stats.*field.counter;
    if (field.delta) {
      value -= baseline.*field.counter;
    }
    if (!payload.empty()) {
      payload += '\n';
    }
    payload += field.key;
    payload += '=';
    payload += Int64ToString(value);
  }
  return payload;
}

void AddCacheStats(const std::string& payload, RunCache::Stats* totals) {
  for (const std::string& line : StrSplit(payload, '\n')) {
    size_t equals = line.find('=');
    int64_t value = 0;
    if (equals == std::string::npos ||
        !ParseInt64(line.substr(equals + 1), &value) || value < 0) {
      continue;
    }
    for (const CacheStatsField& field : kCacheStatsFields) {
      if (line.compare(0, equals, field.key) == 0) {
        totals->*field.counter += value;
      }
    }
  }
}

int ListenTcp(const std::string& host, uint16_t port, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      return -1;
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

bool SetTcpNoDelay(int fd) {
  int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

int AcceptTcp(int listen_fd) {
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) {
    SetTcpNoDelay(fd);
  }
  return fd;
}

int ConnectTcp(const std::string& host, uint16_t port, double timeout_seconds) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string& target = host.empty() ? std::string("127.0.0.1") : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    return -1;
  }
  double deadline = MonotonicSeconds() + timeout_seconds;
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      SetTcpNoDelay(fd);
      return fd;
    }
    ::close(fd);
    if (MonotonicSeconds() >= deadline) {
      return -1;
    }
    // The coordinator may still be between bind and accept (or, in
    // --connect mode, not started yet): retry on a short tick.
    struct timespec delay = {0, 20 * 1000 * 1000};  // 20ms
    ::nanosleep(&delay, nullptr);
  }
}

bool ParseHostPort(const std::string& address, std::string* host,
                   uint16_t* port, std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  for (char c : address) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      return fail("whitespace in address \"" + address + "\"");
    }
  }
  size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return fail("missing ':' in \"" + address + "\" (expected host:port)");
  }
  const std::string digits = address.substr(colon + 1);
  if (digits.empty()) {
    return fail("empty port in \"" + address + "\"");
  }
  // Digits only — no sign, no trim, no trailing garbage. ParseInt64 is
  // deliberately not reused here: its leading/trailing-whitespace trim and
  // '+'/'-' acceptance are exactly what a strict endpoint parser must refuse.
  uint32_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return fail("port \"" + digits + "\" is not a number");
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) {
      return fail("port \"" + digits + "\" is out of range (1-65535)");
    }
  }
  if (value < 1) {
    return fail("port \"" + digits + "\" is out of range (1-65535)");
  }
  *host = address.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace zebra
