// Wire framing for serialized estimator state shipped from worker
// processes to the coordinator (src/dist/process_tree.h): one
// util/envelope.h envelope (magic 'SKF1', version 2) whose body is the
// sender's u64 MergeFingerprint — for the coordinator's majority vote —
// followed by the payload, one util/serialize.h blob.
//
// The decoder is incremental: pipes deliver frames in arbitrary chunks, so
// the coordinator feeds whatever read() returned and polls for complete
// frames. Any malformed envelope is reported as kCorrupt, never
// CHECK-failed — a corrupted worker must degrade the run (quarantine), not
// kill the coordinator.

#ifndef STREAMKC_DIST_FRAME_H_
#define STREAMKC_DIST_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace streamkc {

struct Frame {
  uint64_t fingerprint = 0;
  std::string payload;
};

// Serializes `frame` (envelope + fingerprint + payload) into a byte string.
std::string EncodeFrame(const Frame& frame);

// Writes all of `bytes` to `fd`, looping over partial writes and EINTR.
// Returns false on a write error (e.g. the reader died and the pipe broke).
bool WriteAllToFd(int fd, std::string_view bytes);

// Reassembles frames from a byte stream arriving in arbitrary chunks.
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // *out holds the next frame
    kCorrupt,   // envelope violated; the stream is poisoned from here on
  };

  void Feed(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  // Extracts the next complete frame. After kCorrupt every later call
  // returns kCorrupt again (a framed stream cannot resynchronize).
  Status Next(Frame* out, std::string* error);

  // Bytes fed but not yet consumed by a returned frame.
  size_t buffered_bytes() const { return buf_.size(); }

  // Flips one payload-region bit of the buffered bytes — the coordinator's
  // corrupt-frame fault hook (simulated transport corruption; lands past
  // the magic/version so the CRC, not the envelope sanity checks, must
  // catch it). No-op when nothing is buffered.
  void CorruptForTest() {
    if (!buf_.empty()) buf_[buf_.size() / 2] ^= 0x10;
  }

 private:
  std::string buf_;  // bytes fed, minus the frames already returned
  bool poisoned_ = false;
};

}  // namespace streamkc

#endif  // STREAMKC_DIST_FRAME_H_
