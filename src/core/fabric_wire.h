// Fabric wire protocol: the framed TCP transport between the distributed
// campaign coordinator (distributed_campaign.h) and its per-host agents
// (campaign_agent.h).
//
// This generalizes the worker_ipc record framing for a transport that can
// garble as well as die. A pipe between a parent and its forked child either
// delivers bytes in order or EOFs; a TCP connection across a fleet can
// additionally deliver corrupted application state after a half-close, a
// proxy hiccup, or a buggy peer — and an agent that reconnects mid-stream
// must never be able to splice half a frame into the next one. So every
// frame carries a fixed binary header:
//
//   bytes  0-3   magic "ZFAB"
//   bytes  4-7   protocol version (u32 LE)        kFabricProtocolVersion
//   bytes  8-11  message type     (u32 LE)        FabricMsg
//   bytes 12-19  payload size     (u64 LE)
//   bytes 20-27  payload checksum (u64 LE)        FNV-1a of the payload bytes
//
// ReadFabricFrame distinguishes a *clean* EOF on a frame boundary (peer shut
// down, FabricRead::kEof) from everything the coordinator must treat as a
// broken peer: bad magic, an absurd size, a checksum mismatch, or bytes
// ending mid-frame (kGarbled), and a plain read error (kError). A frame
// whose magic is intact but whose version differs is reported separately
// (kVersionMismatch) so the handshake can refuse an old peer with a named
// kReject instead of a silent drop; everywhere else it retires the
// connection exactly like kGarbled. The callers retire the connection on
// anything but kOk — a frame is either bitwise intact or the peer is dead;
// there is no "partially trusted" state (docs/ROBUSTNESS.md, failure
// matrix).
//
// Version 2 (the batched data plane) added kDispatchBatch / kResultBatch /
// kSnapshotNack and sends header+payload with one writev(2) per frame.
// Version 3 added kConfirm: an agent streams each confirmation while the
// unit still runs, so the coordinator projects every dispatch from it. An
// older peer's frames surface as kVersionMismatch and are refused at the
// handshake; past the handshake both ends are proven same-version.
//
// Writers must run under ScopedIgnoreSigPipe (worker_ipc.h): a send on a
// connection whose peer died surfaces as a WriteFabricFrame return-value
// failure the caller can requeue on, never as process death.

#ifndef SRC_CORE_FABRIC_WIRE_H_
#define SRC_CORE_FABRIC_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace zebra {

// Version 3: streamed confirmations (kConfirm) on top of v2's batched
// frames (kDispatchBatch/kResultBatch), snapshot delta encoding with epoch
// acknowledgement (kSnapshotNack) and vectored frame writes. v1 and v2
// peers are refused at the handshake.
inline constexpr uint32_t kFabricProtocolVersion = 3;

// Largest payload a well-formed peer ever sends (a batched frame carries at
// most a few hundred serialized UnitWorkResults, each a few KB). A size
// field beyond this is a garbled header, not a giant frame — without the cap
// a single corrupt length byte would ask the reader to allocate gigabytes.
inline constexpr uint64_t kFabricMaxPayload = 64ull * 1024 * 1024;

enum class FabricMsg : uint32_t {
  kHello = 1,      // agent -> coord: version / schema hash / threads / index
  kWelcome = 2,    // coord -> agent: admitted; heartbeat interval
  kReject = 3,     // coord -> agent: version or schema-hash mismatch
  kDispatch = 4,   // v1 relic: one unit per frame; v2 peers never send it
  kResult = 5,     // v1 relic: one result per frame; v2 peers never send it
  kHeartbeat = 6,  // agent -> coord: empty payload; renews every lease
  kShutdown = 7,   // coord -> agent: campaign over, send stats and exit
  kStats = 8,      // agent -> coord: cache counters, sent once at shutdown
  // --- v2 data plane ---------------------------------------------------------
  kDispatchBatch = 9,   // coord -> agent: snapshot epoch section + N units
  kResultBatch = 10,    // agent -> coord: N completed results in one frame
  kSnapshotNack = 11,   // agent -> coord: epoch mismatch; units need redispatch
  // --- v3 ----------------------------------------------------------------------
  kConfirm = 12,  // agent -> coord: one confirmation a running lease just made
};

enum class FabricRead {
  kOk,               // *type / *payload filled, checksum verified
  kEof,              // clean EOF on a frame boundary (peer closed)
  kGarbled,          // bad magic/size/checksum, or EOF mid-frame
  kVersionMismatch,  // intact magic, different protocol version — an old (or
                     // future) peer; refuse at the handshake, retire elsewhere
  kError,            // read(2) failed
};

// Writes one frame (header + payload) with a single writev(2) call where the
// kernel allows, retrying EINTR and short writes. Returns false on any write
// error (EPIPE after the peer died, typically).
bool WriteFabricFrame(int fd, FabricMsg type, const std::string& payload);

// Reads one frame. On kOk fills *type and *payload (zero-length payloads are
// valid — heartbeats are empty). Any other status means the connection is
// unusable and must be retired (kVersionMismatch additionally names the
// reason so the handshake can send a kReject first).
FabricRead ReadFabricFrame(int fd, FabricMsg* type, std::string* payload);

// --- Batch record framing ---------------------------------------------------
//
// kDispatchBatch / kResultBatch payloads are a sequence of length-prefixed
// records ("<decimal length>\n<bytes>"), so records may contain newlines,
// NULs, or anything else — the outer frame checksum already proves the bytes
// intact, the length prefix only delimits. An empty payload is a valid
// zero-record batch.

// Appends one record to a batch payload under construction.
void AppendBatchRecord(std::string* payload, const std::string& record);

// Splits a batch payload back into records. Returns false on a malformed
// payload (bad length prefix, truncated record, trailing junk); *records
// holds nothing useful on failure. The caller treats false exactly like a
// garbled frame: the peer is broken.
bool DecodeBatchRecords(const std::string& payload,
                        std::vector<std::string>* records);

// --- Confirmation record ----------------------------------------------------
//
// A kConfirm payload is "<unit> <attempt>\n<param>": the lease (unit index
// and attempt, in decimal) and one parameter it confirmed unsafe. An agent
// sends one per confirmation, in confirmation order, before the unit's
// result record.

std::string EncodeConfirm(size_t unit, int attempt, const std::string& param);

// Parses a kConfirm payload. Returns false unless the head is exactly two
// decimal numbers (no sign, no spaces around them) and the parameter is
// non-empty and free of newlines; the caller then treats the peer as broken.
bool DecodeConfirm(const std::string& payload, size_t* unit, int* attempt,
                   std::string* param);

// --- TCP plumbing -----------------------------------------------------------

// Binds and listens on host:port (port 0 = ephemeral; *bound_port receives
// the actual port). Returns the listening fd, or -1 on failure.
int ListenTcp(const std::string& host, uint16_t port, uint16_t* bound_port);

// Accepts one connection (EINTR-safe, TCP_NODELAY set — dispatch/result
// frames are latency-bound). Returns -1 on failure.
int AcceptTcp(int listen_fd);

// Connects to host:port, retrying until `timeout_seconds` elapses (an agent
// may race the coordinator's listen in --connect mode). Returns -1 on
// timeout or unresolvable address. TCP_NODELAY is set on success.
int ConnectTcp(const std::string& host, uint16_t port, double timeout_seconds);

// Disables Nagle on a connected TCP socket. Every live fabric socket —
// accepted and connected alike — must have this set: the protocol
// interleaves small latency-bound frames (heartbeats, nacks) with batches,
// and a 40 ms Nagle/delayed-ACK stall per dispatch would dwarf the per-frame
// cost the batching work removed. Returns false when setsockopt fails (e.g.
// the fd is not a TCP socket); callers on the fabric paths treat that as
// best-effort. Exposed so tests can assert the option on live fds.
bool SetTcpNoDelay(int fd);

// Parses "host:port" ("127.0.0.1:9009", ":9009" = INADDR_ANY — the empty
// host is the one meaningful empty field). Strict: an empty port, a
// non-numeric port, digits followed by trailing garbage, embedded
// whitespace, or a port outside [1, 65535] are all rejected, and *error (if
// non-null) receives a one-line reason naming the offending part.
bool ParseHostPort(const std::string& address, std::string* host,
                   uint16_t* port, std::string* error = nullptr);

}  // namespace zebra

#endif  // SRC_CORE_FABRIC_WIRE_H_
