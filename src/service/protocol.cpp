#include "service/protocol.h"

#include <cerrno>
#include <unistd.h>

namespace fastdiag::service {

namespace {

using core::make_unexpected;

/// read() until @p size bytes arrive; false on EOF or error.  A signal
/// mid-read restarts the syscall instead of tearing the frame.
bool full_read(int fd, std::uint8_t* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;  // EOF mid-frame
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool full_write(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool known_type(std::uint8_t raw) {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::ping:
    case MessageType::submit_job:
    case MessageType::get_stats:
    case MessageType::save_cache:
    case MessageType::load_cache:
    case MessageType::shutdown:
    case MessageType::ok:
    case MessageType::job_report:
    case MessageType::stats_json:
    case MessageType::error:
      return true;
  }
  return false;
}

}  // namespace

bool is_request(MessageType type) {
  return static_cast<std::uint8_t>(type) <
         static_cast<std::uint8_t>(MessageType::ok);
}

bool read_frame(int fd, Frame& frame) {
  std::uint8_t header[9];
  if (!full_read(fd, header, sizeof header)) {
    return false;
  }
  ByteReader reader(header, sizeof header);
  if (reader.u32() != kFrameMagic) {
    return false;
  }
  const std::uint8_t raw_type = reader.u8();
  const std::uint32_t length = reader.u32();
  if (!known_type(raw_type) || length > kMaxFramePayload) {
    return false;
  }
  frame.type = static_cast<MessageType>(raw_type);
  frame.payload.resize(length);
  return length == 0 || full_read(fd, frame.payload.data(), length);
}

bool write_frame(int fd, MessageType type, const std::uint8_t* payload,
                 std::size_t size) {
  ByteWriter header;
  header.u32(kFrameMagic);
  header.u8(static_cast<std::uint8_t>(type));
  header.u32(static_cast<std::uint32_t>(size));
  if (!full_write(fd, header.data().data(), header.size())) {
    return false;
  }
  return size == 0 || full_write(fd, payload, size);
}

bool write_frame(int fd, MessageType type,
                 const std::vector<std::uint8_t>& payload) {
  return write_frame(fd, type, payload.data(), payload.size());
}

bool write_frame(int fd, MessageType type, const std::string& text) {
  return write_frame(fd, type,
                     reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size());
}

core::Expected<core::SessionSpec, core::ConfigError> JobRequest::to_spec(
    const core::SchemeRegistry& registry) const {
  std::uint64_t cells = 0;
  for (const auto& config : configs) {
    cells += std::uint64_t{config.words} * config.bits;
    if (cells > kMaxJobCells) {
      return make_unexpected(core::ConfigError{
          core::ConfigErrorCode::invalid_memory,
          "job exceeds " + std::to_string(kMaxJobCells) +
              " cells (words x bits summed over its memories)"});
    }
  }
  auto builder = core::SessionSpec::builder();
  builder.add_srams(configs)
      .scheme(scheme)
      .defect_rate(defect_rate)
      .seed(seed)
      .clock_ns(clock_ns)
      .classify(classify)
      .with_repair(repair)
      .use_column_spares(column_spares)
      .include_retention_faults(include_retention_faults)
      .retention_fraction(retention_fraction);
  return builder.build(registry);
}

std::vector<std::uint8_t> encode_job_request(const JobRequest& request) {
  ByteWriter writer;
  writer.u64(request.configs.size());
  for (const auto& config : request.configs) {
    encode_sram_config(writer, config);
  }
  writer.str(request.scheme);
  writer.f64(request.defect_rate);
  writer.u64(request.seed);
  writer.u64(request.clock_ns);
  writer.boolean(request.classify);
  writer.boolean(request.repair);
  writer.boolean(request.column_spares);
  writer.boolean(request.include_retention_faults);
  writer.f64(request.retention_fraction);
  return std::move(writer).take();
}

core::Expected<JobRequest, DecodeError> decode_job_request(
    const std::uint8_t* data, std::size_t size) {
  ByteReader reader(data, size);
  JobRequest request;
  const std::size_t config_count = reader.count(sizeof(std::uint32_t));
  request.configs.reserve(config_count);
  for (std::size_t i = 0; i < config_count && reader.ok(); ++i) {
    sram::SramConfig config;
    if (!decode_sram_config(reader, config)) {
      break;
    }
    request.configs.push_back(std::move(config));
  }
  request.scheme = reader.str();
  request.defect_rate = reader.f64();
  request.seed = reader.u64();
  request.clock_ns = reader.u64();
  request.classify = reader.boolean();
  request.repair = reader.boolean();
  request.column_spares = reader.boolean();
  request.include_retention_faults = reader.boolean();
  request.retention_fraction = reader.f64();
  if (!reader.finished()) {
    return make_unexpected(DecodeError{"job request: truncated or corrupt"});
  }
  return request;
}

}  // namespace fastdiag::service
