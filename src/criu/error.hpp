// Typed restore failures.
//
// The resilient restore path needs to tell *why* a restore failed: a
// truncated persist heals by re-baking the snapshot, a transient device
// error heals by retrying, a permission error heals by neither. RestoreError
// derives from std::runtime_error so pre-existing callers (and tests) that
// catch the base type keep working; new callers switch on kind().
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace prebake::criu {

enum class RestoreErrorKind : std::uint8_t {
  kMissingImage,    // a required image file is absent from the directory
  kCorruptImage,    // CRC / digest mismatch in an image record
  kTruncatedImage,  // on-disk copy shorter than the record's nominal size
  kIoError,         // storage read failed (transient device error)
  kFetchFailed,     // remote registry fetch exhausted its retry budget
  kUnsupported,     // image content the engine cannot rebuild (digest-mode
                    // buffer memory, thread-count mismatch, unknown vma)
  kPermission,      // missing capability (original-pid restore)
  kConfig,          // contradictory RestoreOptions (caller bug, never
                    // retryable): e.g. a non-eager paging mode combined
                    // with a page-store template key
};

constexpr const char* restore_error_name(RestoreErrorKind kind) {
  switch (kind) {
    case RestoreErrorKind::kMissingImage: return "missing-image";
    case RestoreErrorKind::kCorruptImage: return "corrupt-image";
    case RestoreErrorKind::kTruncatedImage: return "truncated-image";
    case RestoreErrorKind::kIoError: return "io-error";
    case RestoreErrorKind::kFetchFailed: return "fetch-failed";
    case RestoreErrorKind::kUnsupported: return "unsupported";
    case RestoreErrorKind::kPermission: return "permission";
    case RestoreErrorKind::kConfig: return "config";
  }
  return "unknown";
}

class RestoreError : public std::runtime_error {
 public:
  RestoreError(RestoreErrorKind kind, const std::string& what)
      : std::runtime_error{what}, kind_{kind} {}
  RestoreError(RestoreErrorKind kind, const std::string& what, int chain_link)
      : std::runtime_error{what}, kind_{kind}, chain_link_{chain_link} {}

  RestoreErrorKind kind() const { return kind_; }
  // Depth of the pre-dump chain link the failure was detected in: 0 is the
  // newest link, increasing toward the base image. -1 when the failure is
  // not attributable to a specific link (single-image restores, fetch-level
  // faults).
  int chain_link() const { return chain_link_; }
  // Transient faults are worth retrying against the same snapshot: device
  // errors, aborted transfers, and CRCs tripped by a corrupted *copy* (the
  // registry's master bytes are fine; a re-read can succeed). The rest fail
  // every attempt identically (bad image on disk, bad caller).
  bool transient() const {
    return kind_ == RestoreErrorKind::kIoError ||
           kind_ == RestoreErrorKind::kFetchFailed ||
           kind_ == RestoreErrorKind::kCorruptImage;
  }

 private:
  RestoreErrorKind kind_;
  int chain_link_ = -1;
};

}  // namespace prebake::criu
