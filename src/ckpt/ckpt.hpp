// Checkpoint container format: a versioned, CRC-checksummed byte stream
// written with an atomic write-rename protocol (DESIGN.md §12).
//
// The format is deliberately dumb: a fixed header (magic, format version,
// payload size, CRC32 of the payload) followed by a flat little-endian
// payload that the kernel/emulator serialize into section-tagged fields.
// Writer buffers the whole payload in memory and commits it in one shot:
// write to `<path>.tmp`, flush, fsync, then rename(2) over `<path>` — so a
// crash at any point during checkpointing leaves either the previous
// snapshot or a complete new one, never a torn file. Reader validates the
// header and CRC up front and then hands out bounds-checked fields; every
// failure throws CkptError with an actionable message naming the file and
// the offending section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace massf::ckpt {

/// Any checkpoint failure: unreadable/corrupt/truncated file, version
/// mismatch, or a payload that does not match the expected section layout.
class CkptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by the default chaos-test crash hooks (see set_crash_hook) to
/// simulate a process kill at a checkpoint phase boundary.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// "MSCK" little-endian.
constexpr std::uint32_t kMagic = 0x4b43534du;
/// Bump on any payload layout change; Reader rejects mismatches.
constexpr std::uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `size` bytes.
std::uint32_t crc32(const void* data, std::size_t size);

/// Test-only crash injection. When set, maybe_crash(phase) invokes the hook
/// with the phase name ("before-checkpoint", "mid-write",
/// "after-checkpoint"); a hook that throws simulates a kill at that point.
/// Install/clear strictly outside run_until — the hook is read without
/// synchronization from whichever thread drives the safepoint.
using CrashHook = std::function<void(const char* phase)>;
void set_crash_hook(CrashHook hook);
void maybe_crash(const char* phase);

/// Append-only payload buffer plus the atomic commit step.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void str(const std::string& s);
  /// Section marker; Reader::expect_tag verifies layout drift loudly.
  void tag(std::uint32_t t) { u32(t); }

  std::size_t size() const { return buf_.size(); }
  const std::vector<unsigned char>& payload() const { return buf_; }

  /// Atomically publish header+payload at `path` (tmp write, flush, fsync,
  /// rename). Calls maybe_crash("mid-write") after the tmp file is durable
  /// but before the rename — the window where a kill must not destroy the
  /// previous snapshot.
  void commit(const std::string& path) const;

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked cursor over a validated payload.
class Reader {
 public:
  /// Read and validate a checkpoint file: header magic, format version,
  /// payload size (truncation) and CRC32 (corruption) — each rejection
  /// names the file and what disagreed.
  static Reader from_file(const std::string& path);

  explicit Reader(std::vector<unsigned char> payload, std::string source = "")
      : buf_(std::move(payload)), source_(std::move(source)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  void expect_tag(std::uint32_t t, const char* what);
  /// A u64 element count for elements of at least `min_bytes` each; throws
  /// CkptError when the rest of the payload cannot hold that many, so a
  /// corrupt count never sizes an allocation.
  std::uint64_t bounded_count(std::size_t min_bytes, const char* what);

  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n, const char* what);

  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::string source_;
};

/// "ckpt_000000000042.bin" — fixed width so lexical order == numeric order.
std::string checkpoint_filename(std::uint64_t seq);
/// Parse the sequence number out of a checkpoint_filename-shaped name.
bool parse_checkpoint_seq(const std::string& filename, std::uint64_t& seq);
/// All checkpoint files directly under `dir`, sorted ascending by sequence
/// number; each entry is (seq, full path). Missing dir → empty list.
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir);

}  // namespace massf::ckpt
