// The one checksummed envelope for every blob that crosses a process, file
// or publish boundary: dist frames, worker checkpoints and serving
// snapshots differ only in magic, version and body. Layout (fixed-width
// fields in host byte order, as util/serialize.h):
//
//   u32 magic      per blob type
//   u32 version    per blob type; bumped whenever the type's bytes change,
//                  so an old blob is rejected, never misread
//   u64 body_len   <= kMaxEnvelopeBody
//   u32 crc        CRC-32 over body_len and the body
//   u8  body[body_len]
//
// CRC-32 catches every single-bit flip and every burst of up to 32 bits in
// the bytes it covers; magic and version are compared exactly.

#ifndef STREAMKC_UTIL_ENVELOPE_H_
#define STREAMKC_UTIL_ENVELOPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace streamkc {

// Incremental CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
// Chain calls by passing the previous return value as `crc` (start at 0).
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

inline constexpr size_t kEnvelopeHeaderBytes = 4 + 4 + 8 + 4;
// Far above any blob this system writes, small enough that a corrupted
// length cannot drive a giant allocation or an endless wait.
inline constexpr uint64_t kMaxEnvelopeBody = uint64_t{1} << 30;

// Wraps `body`; CHECK-fails if it exceeds kMaxEnvelopeBody.
std::string EncodeEnvelope(uint32_t magic, uint32_t version,
                           std::string_view body);

struct EnvelopeParse {
  enum class Status { kNeedMore, kOk, kCorrupt };
  Status status = Status::kNeedMore;
  std::string_view body;   // kOk: aliases the parsed bytes
  size_t size = 0;         // kOk: header + body bytes the envelope spans
  const char* error = "";  // kCorrupt: one-line reason
};

// Parses the envelope at the front of `bytes`, which may be a stream
// prefix: kNeedMore until the whole envelope is there (for a complete blob
// that means truncated). Bytes past the envelope are left to the caller.
EnvelopeParse ParseEnvelope(std::string_view bytes, uint32_t magic,
                            uint32_t version);

}  // namespace streamkc

#endif  // STREAMKC_UTIL_ENVELOPE_H_
