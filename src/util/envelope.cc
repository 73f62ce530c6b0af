#include "util/envelope.h"

#include <cstring>

#include "util/check.h"

namespace streamkc {
namespace {

struct Crc32Table {
  uint32_t entry[256] = {};
  constexpr Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = c & 1 ? 0xEDB88320u ^ c >> 1 : c >> 1;
      entry[i] = c;
    }
  }
};
constexpr Crc32Table kCrc32Table;

template <typename T>
T Field(std::string_view bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// Covers body_len (offset 8 of `envelope`) and the body that follows the
// header.
uint32_t EnvelopeCrc(const char* envelope, size_t body_len) {
  return Crc32(envelope + kEnvelopeHeaderBytes, body_len,
               Crc32(envelope + 8, sizeof(uint64_t)));
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = kCrc32Table.entry[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

std::string EncodeEnvelope(uint32_t magic, uint32_t version,
                           std::string_view body) {
  const uint64_t body_len = body.size();
  CHECK_LE(body_len, kMaxEnvelopeBody);
  std::string out(kEnvelopeHeaderBytes, '\0');
  out.append(body);
  std::memcpy(out.data(), &magic, 4);
  std::memcpy(out.data() + 4, &version, 4);
  std::memcpy(out.data() + 8, &body_len, 8);
  const uint32_t crc = EnvelopeCrc(out.data(), body.size());
  std::memcpy(out.data() + 16, &crc, 4);
  return out;
}

EnvelopeParse ParseEnvelope(std::string_view bytes, uint32_t magic,
                            uint32_t version) {
  using Status = EnvelopeParse::Status;
  EnvelopeParse r;
  auto corrupt = [&r](const char* why) {
    r.status = Status::kCorrupt;
    r.error = why;
    return r;
  };
  if (bytes.size() < kEnvelopeHeaderBytes) return r;
  if (Field<uint32_t>(bytes, 0) != magic) return corrupt("bad magic");
  if (Field<uint32_t>(bytes, 4) != version) {
    return corrupt("unsupported version");
  }
  const uint64_t body_len = Field<uint64_t>(bytes, 8);
  if (body_len > kMaxEnvelopeBody) return corrupt("body length too large");
  if (bytes.size() - kEnvelopeHeaderBytes < body_len) return r;
  if (EnvelopeCrc(bytes.data(), body_len) != Field<uint32_t>(bytes, 16)) {
    return corrupt("crc mismatch");
  }
  r.status = Status::kOk;
  r.body = bytes.substr(kEnvelopeHeaderBytes, body_len);
  r.size = kEnvelopeHeaderBytes + body_len;
  return r;
}

}  // namespace streamkc
