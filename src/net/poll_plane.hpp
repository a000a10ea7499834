// net::poll_plane — how the endpoint's socket bytes cross the kernel.
//
// net::endpoint owns every protocol decision (framing, seq order, staged
// delivery, aggregation watermarks, quiescence accounting); the poll plane
// owns only the syscalls: a synchronous send(2) loop per peer write that
// stops at EAGAIN (the residue stays in the endpoint's queue), a recv(2)
// drain of every peer socket per progress tick, and a bounded poll(2) park
// for idle waiters. Per-peer byte-stream order is the kernel's: bytes are
// written in queue order and fed to the sink in arrival order.
//
// Threading: flush may be called from any thread holding the peer's send
// lock. pump/idle_park/attach/detach are master-thread only; the sink
// callbacks run on the master thread.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <vector>

namespace aspen::net {

class poll_plane {
 public:
  explicit poll_plane(int nranks)
      : fds_(static_cast<std::size_t>(nranks), -1) {}

  /// Watch a connected, non-blocking peer socket. The fd stays owned by
  /// the caller.
  void attach(int rank, int fd) { fds_[static_cast<std::size_t>(rank)] = fd; }
  /// Forget a departed peer's socket.
  void detach(int rank) { fds_[static_cast<std::size_t>(rank)] = -1; }

  /// Send queued wire bytes (`out[off..]`) without blocking, advancing
  /// `off` past whatever the kernel accepted; the EAGAIN residue stays in
  /// `out`. A detached peer's queue is dropped.
  void flush(int rank, std::vector<std::byte>& out, std::size_t& off);

  /// One progress tick: drain every readable peer socket, feeding inbound
  /// bytes to `sink.on_bytes(rank, data, len)` (torn frames are fine — the
  /// sink decodes incrementally) and stream ends to `sink.on_eof(rank)`.
  /// Returns units of work done.
  template <class Sink>
  std::size_t pump(Sink& sink) {
    std::size_t work = 0;
    std::byte buf[kRecvChunk];
    for (int r = 0; r < static_cast<int>(fds_.size()); ++r) {
      for (;;) {
        const ssize_t n = recv_chunk(r, buf);
        if (n < 0) break;
        ++work;
        if (n == 0) {
          sink.on_eof(r);
          break;
        }
        sink.on_bytes(r, buf, static_cast<std::size_t>(n));
        // Short read: the kernel buffer is drained for now.
        if (static_cast<std::size_t>(n) < kRecvChunk) break;
      }
    }
    return work;
  }

  /// Park for up to ~1 ms in poll(2) on the peer sockets, rotating the
  /// watched window when the mesh exceeds the fd cap.
  void idle_park();

 private:
  static constexpr std::size_t kRecvChunk = 64 * 1024;

  /// recv(2) one chunk from `rank`'s socket: the byte count (counted into
  /// telemetry), 0 on EOF, or -1 when the peer is detached or has nothing
  /// buffered. Retries EINTR; any other error is fatal.
  ssize_t recv_chunk(int rank, std::byte (&buf)[kRecvChunk]);

  std::vector<int> fds_;   ///< peer fd by rank, -1 when absent
  std::size_t rotate_ = 0; ///< idle-park window start (fd-cap rotation)
};

}  // namespace aspen::net
