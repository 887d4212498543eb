// Hardened fd plumbing: the campaign journal's record framing
// (campaign_journal.h) and the fabric's process and socket helpers
// (distributed_campaign.cc, campaign_agent.cc, fabric_wire.cc).
//
// Every primitive is EINTR-safe and reports failure through its return value
// instead of throwing: a forked agent cannot throw across _Exit, and the
// coordinator must keep going long enough to reap every child before
// surfacing an error (no zombie leaks).

#ifndef SRC_CORE_WORKER_IPC_H_
#define SRC_CORE_WORKER_IPC_H_

#include <signal.h>
#include <sys/types.h>

#include <string>
#include <vector>

namespace zebra {

// Writes the whole buffer, retrying on EINTR and short writes. Returns false
// on any other error (e.g. EPIPE after the peer died — on a half-closed
// socket the first write may succeed into the kernel buffer and only the
// *next* one surfaces EPIPE; callers must treat any false as "peer gone",
// not "retry"). size == 0 is a guaranteed no-op success: `data` may be null
// and the fd is never touched.
bool WriteAll(int fd, const void* data, size_t size);

// Reads exactly `size` bytes, retrying on EINTR. Returns false on error or
// premature EOF. size == 0 succeeds without touching `data` or the fd.
bool ReadExact(int fd, void* data, size_t size);

// Length-prefixed message framing (16-byte zero-padded decimal header).
// ReadFrame returns false on EOF, short read, or a malformed header — all
// of which the journal treats as a torn tail.
bool WriteFrame(int fd, const std::string& payload);
bool ReadFrame(int fd, std::string* payload);

// waitpid (EINTR-safe) on every pid, in order. Returns true iff every child
// exited normally with status 0. Call this on *all* children before throwing
// for any of them — reaping must not be short-circuited by one failure.
bool ReapAll(const std::vector<pid_t>& pids);

// Scoped SIGPIPE suppression for every fabric writer: a write on a socket
// whose peer died must surface as a WriteAll return-value failure (EPIPE)
// the coordinator can retire-and-requeue on — never as process death.
// Restores the previous disposition on scope exit.
class ScopedIgnoreSigPipe {
 public:
  ScopedIgnoreSigPipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGPIPE, &ignore, &previous_);
  }
  ~ScopedIgnoreSigPipe() { ::sigaction(SIGPIPE, &previous_, nullptr); }
  ScopedIgnoreSigPipe(const ScopedIgnoreSigPipe&) = delete;
  ScopedIgnoreSigPipe& operator=(const ScopedIgnoreSigPipe&) = delete;

 private:
  struct sigaction previous_ {};
};

}  // namespace zebra

#endif  // SRC_CORE_WORKER_IPC_H_
