// The diagd wire protocol: length-prefixed frames over a byte stream.
//
// A frame is `magic u32 | type u8 | payload_len u32 | payload`, with the
// payload encoded through service/serialize.h's writers.  The same framing
// runs over an AF_UNIX socket or a stdin/stdout pipe pair (diagd's pipe
// mode, which is what the CI smoke test drives), so one client
// implementation covers both transports.
//
// Requests carry a JobRequest — the serializable image of a SessionSpec —
// and responses carry either an encoded Report ("FDRP" blob), a JSON stats
// string, or an error message.  Frames are bounded (kMaxFramePayload) so a
// corrupt length prefix cannot drive an unbounded allocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/expected.h"
#include "core/spec.h"
#include "service/serialize.h"
#include "sram/config.h"

namespace fastdiag::service {

inline constexpr std::uint32_t kFrameMagic = 0x504A4446;  // "FDJP"

/// Upper bound on one frame's payload; larger prefixes are a protocol
/// error, not an allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Upper bound on one job's cells (words x bits summed over its memories):
/// JobRequest::to_spec() refuses a larger job before anything is allocated.
inline constexpr std::uint64_t kMaxJobCells = std::uint64_t{1} << 24;

enum class MessageType : std::uint8_t {
  // requests
  ping = 0,
  submit_job = 1,    ///< payload: encoded JobRequest
  get_stats = 2,     ///< payload: empty
  save_cache = 3,  ///< payload: str bare file name, confined to the
                   ///< server's cache dir (never a path)
  load_cache = 4,  ///< payload: str bare file name, same confinement
  shutdown = 5,      ///< graceful drain: finish in-flight jobs, then exit

  // responses
  ok = 100,
  job_report = 101,  ///< payload: "FDRP" Report blob
  stats_json = 102,  ///< payload: str JSON object
  error = 103,       ///< payload: str message
};

[[nodiscard]] bool is_request(MessageType type);

struct Frame {
  MessageType type = MessageType::ping;
  std::vector<std::uint8_t> payload;
};

/// Blocking full-frame read from @p fd.  Returns false on EOF, I/O error,
/// bad magic, unknown type, or an oversized length prefix.
[[nodiscard]] bool read_frame(int fd, Frame& frame);

/// Blocking full-frame write; false on I/O error.
[[nodiscard]] bool write_frame(int fd, MessageType type,
                               const std::uint8_t* payload, std::size_t size);
[[nodiscard]] bool write_frame(int fd, MessageType type,
                               const std::vector<std::uint8_t>& payload);
[[nodiscard]] bool write_frame(int fd, MessageType type,
                               const std::string& text);

/// The serializable image of one diagnosis job — every SessionSpec::Builder
/// input a remote client can set.  to_spec() funnels through the normal
/// builder validation, so a malformed request fails with the same
/// ConfigError vocabulary a local caller would see; a job over
/// kMaxJobCells fails with invalid_memory.
struct JobRequest {
  std::vector<sram::SramConfig> configs;
  std::string scheme = "fast";
  double defect_rate = 0.01;
  std::uint64_t seed = 1;
  std::uint64_t clock_ns = 10;
  bool classify = false;
  bool repair = false;
  bool column_spares = false;
  bool include_retention_faults = true;
  double retention_fraction = 0.1;

  [[nodiscard]] core::Expected<core::SessionSpec, core::ConfigError> to_spec(
      const core::SchemeRegistry& registry =
          core::SchemeRegistry::global()) const;
};

[[nodiscard]] std::vector<std::uint8_t> encode_job_request(
    const JobRequest& request);
[[nodiscard]] core::Expected<JobRequest, DecodeError> decode_job_request(
    const std::uint8_t* data, std::size_t size);

}  // namespace fastdiag::service
