#include "dist/frame.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/envelope.h"

namespace streamkc {
namespace {

constexpr uint32_t kFrameMagic = 0x534b4631;  // "SKF1"
constexpr uint32_t kFrameVersion = 2;

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  std::string body(sizeof(frame.fingerprint), '\0');
  std::memcpy(body.data(), &frame.fingerprint, sizeof(frame.fingerprint));
  body.append(frame.payload);
  return EncodeEnvelope(kFrameMagic, kFrameVersion, body);
}

bool WriteAllToFd(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

FrameDecoder::Status FrameDecoder::Next(Frame* out, std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = "frame stream already corrupt";
    return Status::kCorrupt;
  }
  auto corrupt = [&](const char* why) {
    poisoned_ = true;
    if (error != nullptr) *error = why;
    return Status::kCorrupt;
  };
  const EnvelopeParse env = ParseEnvelope(buf_, kFrameMagic, kFrameVersion);
  if (env.status == EnvelopeParse::Status::kNeedMore) return Status::kNeedMore;
  if (env.status == EnvelopeParse::Status::kCorrupt) return corrupt(env.error);
  if (env.body.size() < sizeof(out->fingerprint)) {
    return corrupt("frame body too short");
  }
  std::memcpy(&out->fingerprint, env.body.data(), sizeof(out->fingerprint));
  out->payload.assign(env.body.substr(sizeof(out->fingerprint)));
  // One frame per worker connection: erasing the consumed prefix is cheap.
  buf_.erase(0, env.size);
  return Status::kFrame;
}

}  // namespace streamkc
