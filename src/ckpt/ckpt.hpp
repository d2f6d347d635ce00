// Checkpoint container format: a versioned, CRC-checksummed byte stream
// written with an atomic write-rename protocol (DESIGN.md §12).
//
// The format is deliberately dumb: a fixed header (magic, format version,
// payload size, CRC32 of the payload) followed by a flat little-endian
// payload that the kernel/emulator serialize into section-tagged fields.
// Each checkpointed type lists its fields once, in a walk over an Io that
// either writes them (wrapping a Writer) or reads them back (wrapping a
// Reader), so the save and restore layouts cannot drift apart.
// Writer buffers the whole payload in memory and commits it in one shot:
// write to `<path>.tmp`, flush, fsync, then rename(2) over `<path>` — so a
// crash at any point during checkpointing leaves either the previous
// snapshot or a complete new one, never a torn file. Reader validates the
// header and CRC up front and then hands out bounds-checked fields; every
// failure throws CkptError with an actionable message naming the file and
// the offending section.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace massf {
class Rng;
}  // namespace massf

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
constexpr std::uint32_t kFormatVersion = 2;

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
  friend class Io;
  /// Overwrite the u64 written at byte offset `at` (a back-patched count).
  void patch_u64(std::size_t at, std::uint64_t v);

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
      : buf_(std::move(payload)),
        end_(buf_.size()),
        source_(std::move(source)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  void expect_tag(std::uint32_t t, const char* what);

  /// Bytes left before the end of the payload, or of the enclosing block.
  std::size_t remaining() const { return end_ - pos_; }

 private:
  friend class Io;
  /// A u64 element count for elements of at least `min_bytes` each; throws
  /// CkptError when the bytes left cannot hold that many, so a corrupt
  /// count never sizes an allocation.
  std::uint64_t bounded_count(std::size_t min_bytes, const char* what);
  /// Confine reads to the next `bytes` bytes, which the caller has bounded
  /// by remaining(); returns the enclosing end for leave().
  std::size_t enter(std::size_t bytes) {
    const std::size_t outer = end_;
    end_ = pos_ + bytes;
    return outer;
  }
  /// Close a block opened by enter(): throws CkptError naming `what` unless
  /// its body consumed every byte, then restores the enclosing end.
  void leave(std::size_t outer, const char* what);

  void need(std::size_t n, const char* what);
  void fail(std::size_t at, const std::string& what) const;

  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_;  // reads stop here: the payload end, or a block's
  std::string source_;
};

/// One field walk for both directions. Wrapping a Writer, `io.u64(x)`
/// appends x; wrapping a Reader, it reads the next field into x. A
/// checkpointed type therefore lists its fields once, in one
/// `checkpoint(Io&)` walk, and the few steps that really differ by
/// direction (validating live state, rebuilding derived structures) test
/// reading(). Counts go through bounded_count, so a corrupt count raises
/// CkptError before it can size an allocation.
class Io {
 public:
  explicit Io(Writer& w) : w_(&w) {}
  explicit Io(Reader& r) : r_(&r) {}

  bool reading() const { return r_ != nullptr; }

  void u8(std::uint8_t& v) {
    if (r_)
      v = r_->u8();
    else
      w_->u8(v);
  }
  void u32(std::uint32_t& v) {
    if (r_)
      v = r_->u32();
    else
      w_->u32(v);
  }
  /// A double, stored by bit pattern.
  void f64(double& v) {
    if (r_)
      v = r_->f64();
    else
      w_->f64(v);
  }
  /// One byte: 1 for true, 0 for false (any nonzero byte reads as true).
  void flag(bool& v);
  /// Any unsigned integer as 8 bytes: narrower types widen on write and
  /// narrow back on read.
  template <typename UInt>
  void u64(UInt& v) {
    static_assert(std::is_unsigned_v<UInt> && !std::is_same_v<UInt, bool>);
    if (r_)
      v = static_cast<UInt>(r_->u64());
    else
      w_->u64(v);
  }
  /// Any signed integer as 8 bytes of two's complement, widened the same
  /// way.
  template <typename Int>
  void i64(Int& v) {
    static_assert(std::is_signed_v<Int> && std::is_integral_v<Int>);
    if (r_)
      v = static_cast<Int>(r_->i64());
    else
      w_->i64(v);
  }
  /// Section marker: written, or checked against the snapshot.
  void tag(std::uint32_t t, const char* what) {
    if (r_)
      r_->expect_tag(t, what);
    else
      w_->tag(t);
  }

  /// An element count: `n` is written as is; reading returns the stored
  /// count, rejected with CkptError when the bytes left cannot hold that
  /// many elements of at least `min_bytes` each.
  std::uint64_t bounded_count(std::uint64_t n, std::size_t min_bytes,
                              const char* what) {
    if (r_) return r_->bounded_count(min_bytes, what);
    w_->u64(n);
    return n;
  }

  /// A vector of doubles behind its count.
  void f64s(std::vector<double>& v, const char* what);
  /// A random stream's full state (four words).
  void rng(Rng& rng);

  /// A hash map walked in ascending key order, so the bytes never depend
  /// on the table layout: its count, then each key followed by
  /// `value(mapped&)`. Reading replaces the map's contents. Each entry
  /// occupies at least `min_bytes`.
  template <typename Map, typename Value>
  void sorted_map(Map& map, std::size_t min_bytes, const char* what,
                  Value&& value) {
    std::vector<std::pair<std::uint64_t, typename Map::mapped_type>> entries;
    if (!reading()) {
      entries.assign(map.begin(), map.end());
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    entries.resize(bounded_count(entries.size(), min_bytes, what));
    for (auto& [key, mapped] : entries) {
      u64(key);
      value(mapped);
    }
    if (reading()) {
      map.clear();
      map.insert(entries.begin(), entries.end());
    }
  }

  /// A block prefixed by the number of 8-byte words `body()` walks (the
  /// count is back-patched when writing). Reading confines the body to
  /// exactly those words: it can neither read past them nor stop short
  /// without a CkptError naming `what`.
  template <typename Body>
  void block(const char* what, Body&& body) {
    const std::size_t mark = open_block(what);
    body();
    close_block(mark, what);
  }

 private:
  std::size_t open_block(const char* what);
  void close_block(std::size_t mark, const char* what);

  Writer* w_ = nullptr;
  Reader* r_ = nullptr;
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
