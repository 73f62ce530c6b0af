#include "dist/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "dist/frame.h"
#include "util/check.h"
#include "util/envelope.h"
#include "util/serialize.h"

namespace streamkc {
namespace {

constexpr uint32_t kCkptMagic = 0x534b4331;  // "SKC1"
// Version 2: the CRC covers body_len too, so version 1 blobs are rejected.
constexpr uint32_t kCkptVersion = 2;
// Fixed-width body prefix: u32 worker + u64 segments_done + counters +
// u64 fingerprint + u64 state_len. Everything past it is the state blob.
constexpr uint64_t kCkptFixedBodyBytes =
    4 + 8 + WorkerCounters::kSerializedBytes + 8 + 8;

bool Fail(std::string* error, const char* reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint32_t worker) {
  return dir + "/ckpt_w" + std::to_string(worker) + ".bin";
}

std::string EncodeCheckpoint(const Checkpoint& ckpt) {
  std::ostringstream body;
  WriteU32(body, ckpt.worker);
  WriteU64(body, ckpt.segments_done);
  ckpt.counters.Save(body);
  WriteU64(body, ckpt.fingerprint);
  WriteU64(body, ckpt.state_blob.size());
  body.write(ckpt.state_blob.data(),
             static_cast<std::streamsize>(ckpt.state_blob.size()));
  return EncodeEnvelope(kCkptMagic, kCkptVersion, body.str());
}

bool TryDecodeCheckpoint(const std::string& bytes, Checkpoint* out,
                         std::string* error) {
  const EnvelopeParse env = ParseEnvelope(bytes, kCkptMagic, kCkptVersion);
  if (env.status == EnvelopeParse::Status::kNeedMore) {
    return Fail(error, "truncated");
  }
  if (env.status == EnvelopeParse::Status::kCorrupt) {
    return Fail(error, env.error);
  }
  // A checkpoint file is exactly one envelope: trailing slack is corruption
  // (a concatenated or overwritten file must not load).
  if (env.size != bytes.size()) return Fail(error, "trailing garbage");
  const uint64_t body_len = env.body.size();
  if (body_len < kCkptFixedBodyBytes) return Fail(error, "body too short");

  // Lengths are fully validated, so the CHECK-hard stream readers below
  // cannot fire: the stream always has the bytes they ask for.
  std::istringstream bs{std::string(env.body)};
  Checkpoint ckpt;
  ckpt.worker = ReadU32(bs);
  ckpt.segments_done = ReadU64(bs);
  ckpt.counters = WorkerCounters::Load(bs);
  ckpt.fingerprint = ReadU64(bs);
  const uint64_t state_len = ReadU64(bs);
  if (state_len != body_len - kCkptFixedBodyBytes) {
    return Fail(error, "state length mismatch");
  }
  ckpt.state_blob.resize(static_cast<size_t>(state_len));
  bs.read(ckpt.state_blob.data(),
          static_cast<std::streamsize>(ckpt.state_blob.size()));
  *out = std::move(ckpt);
  return true;
}

Checkpoint DecodeCheckpoint(const std::string& bytes) {
  Checkpoint ckpt;
  std::string err;
  if (!TryDecodeCheckpoint(bytes, &ckpt, &err)) {
    std::fprintf(stderr, "checkpoint decode failed: %s\n", err.c_str());
    CHECK(false);
  }
  return ckpt;
}

void WriteCheckpointFile(const std::string& path, const Checkpoint& ckpt) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  CHECK_GE(fd, 0);
  CHECK(WriteAllToFd(fd, EncodeCheckpoint(ckpt)));
  // fsync the data BEFORE the rename and the directory AFTER it: the
  // rename is only atomic against this process crashing. Against a host
  // crash, the filesystem may persist the rename ahead of the data blocks
  // (or lose the directory entry), resurrecting a zero-length or torn file
  // at the final path — which the Try-loader then rejects, but which must
  // stay a recoverable rarity rather than the normal post-crash state.
  CHECK_EQ(::fsync(fd), 0);
  CHECK_EQ(::close(fd), 0);
  CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  CHECK_GE(dfd, 0);
  CHECK_EQ(::fsync(dfd), 0);
  CHECK_EQ(::close(dfd), 0);
}

bool CheckpointFileExists(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return is.is_open();
}

bool TryLoadCheckpointFile(const std::string& path, Checkpoint* out,
                           std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return Fail(error, "cannot open checkpoint file");
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is.good() && !is.eof()) return Fail(error, "read error");
  return TryDecodeCheckpoint(buf.str(), out, error);
}

Checkpoint LoadCheckpointFile(const std::string& path) {
  Checkpoint ckpt;
  std::string err;
  if (!TryLoadCheckpointFile(path, &ckpt, &err)) {
    std::fprintf(stderr, "checkpoint load failed (%s): %s\n", path.c_str(),
                 err.c_str());
    CHECK(false);
  }
  return ckpt;
}

}  // namespace streamkc
