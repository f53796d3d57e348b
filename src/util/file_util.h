#ifndef TDG_UTIL_FILE_UTIL_H_
#define TDG_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/statusor.h"

namespace tdg::util {

/// Crash-safety primitives for the sweep checkpoint layer (DESIGN.md §8).
/// Everything here is POSIX; the library targets linux.

/// Returns true if `path` names an existing file system entry.
bool FileExists(const std::string& path);

/// Reads the whole file into a string (binary, no newline translation).
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Returns the file's size in bytes.
StatusOr<uint64_t> FileSize(const std::string& path);

/// Shrinks (or grows, zero-filled) the file to exactly `length` bytes.
Status TruncateFile(const std::string& path, uint64_t length);

/// Atomic whole-file replace: writes `content` to a temporary sibling
/// (`path.tmp.<pid>`), fsyncs it, renames it over `path`, then fsyncs the
/// containing directory so the rename itself survives a crash. Readers
/// never observe a partially written `path`.
Status WriteFileAtomic(const std::string& path, std::string_view content);

/// Append-only line writer with per-line durability: every AppendLine
/// issues one write() of "line\n" followed by fdatasync, so after a crash
/// the file is a well-formed JSONL prefix plus at most one torn final line.
/// Opens with O_APPEND — concurrent appends from multiple writers land
/// whole (callers still serialize lines under their own mutex so *ordering*
/// is deterministic where it matters).
class DurableAppendFile {
 public:
  DurableAppendFile() = default;
  ~DurableAppendFile() { Close(); }

  DurableAppendFile(DurableAppendFile&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  DurableAppendFile& operator=(DurableAppendFile&& other) noexcept;
  DurableAppendFile(const DurableAppendFile&) = delete;
  DurableAppendFile& operator=(const DurableAppendFile&) = delete;

  /// Opens (creating if absent, never truncating) `path` for appends.
  static StatusOr<DurableAppendFile> Open(const std::string& path);

  /// Creates `path` for appends with O_CREAT|O_EXCL: FailedPrecondition if
  /// an entry of that name already exists, so of several racing creators
  /// exactly one gets the file.
  static StatusOr<DurableAppendFile> Create(const std::string& path);

  bool is_open() const { return fd_ >= 0; }

  /// Appends `line` plus a trailing '\n' in a single write and syncs it to
  /// disk before returning. `line` must not itself contain '\n'.
  Status AppendLine(std::string_view line);

  /// Closes the descriptor. Idempotent.
  void Close();

 private:
  explicit DurableAppendFile(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace tdg::util

#endif  // TDG_UTIL_FILE_UTIL_H_
