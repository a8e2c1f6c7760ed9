#include "replicate/wire.h"

#include "io/snapshot.h"
#include "util/binary.h"

namespace falcc::replicate {

namespace {

uint8_t EncodeKind(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kDelta:
      return 1;
    case ArtifactKind::kFull:
      return 2;
    case ArtifactKind::kUnreadable:
      return 0;
  }
  return 0;
}

/// Every rule DecodeFrame enforces beyond the checksum, shared with
/// EncodeFrame's assertions so the two sides cannot drift.
Status ValidateFrame(const WireFrame& frame) {
  if (frame.payload.size() > kWireMaxPayload) {
    return Status::InvalidArgument("wire: payload exceeds 64 MiB cap");
  }
  switch (frame.type) {
    case FrameType::kArtifact:
      if (frame.kind != ArtifactKind::kDelta &&
          frame.kind != ArtifactKind::kFull) {
        return Status::InvalidArgument("wire: ARTIFACT without a kind");
      }
      if (frame.payload.empty()) {
        return Status::InvalidArgument("wire: empty ARTIFACT payload");
      }
      if (frame.kind != ArtifactKind::kDelta && frame.base_hash != 0) {
        return Status::InvalidArgument(
            "wire: base_hash on a non-delta artifact");
      }
      return Status::OK();
    case FrameType::kHello:
      if (frame.payload != kWireGreeting) {
        return Status::InvalidArgument("wire: HELLO greeting mismatch");
      }
      break;
    case FrameType::kSubscribe:
    case FrameType::kHeartbeat:
    case FrameType::kEof:
      if (!frame.payload.empty()) {
        return Status::InvalidArgument("wire: control frame with payload");
      }
      break;
    default:
      return Status::InvalidArgument("wire: unknown frame type");
  }
  if (frame.kind != ArtifactKind::kUnreadable) {
    return Status::InvalidArgument("wire: kind on a control frame");
  }
  if (frame.base_hash != 0) {
    return Status::InvalidArgument("wire: base_hash on a control frame");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(const WireFrame& frame) {
  const Status valid = ValidateFrame(frame);
  FALCC_CHECK(valid.ok(), ("EncodeFrame: " + valid.ToString()).c_str());
  std::string out;
  out.reserve(kWireHeaderBytes + frame.payload.size());
  io::BinaryWriter writer(&out);
  writer.U32(kWireMagic);
  writer.U8(static_cast<uint8_t>(frame.type));
  writer.U8(EncodeKind(frame.kind));
  writer.U16(0);  // reserved
  writer.U64(frame.sequence);
  writer.U64(frame.base_hash);
  writer.U32(static_cast<uint32_t>(frame.payload.size()));
  writer.U64(io::Fnv1a(frame.payload));
  writer.Bytes(frame.payload);
  return out;
}

Result<FrameDecode> DecodeFrame(std::string_view data) {
  FrameDecode decode;
  if (data.size() < kWireHeaderBytes) return decode;  // need more
  // The header is all there, so every fixed-width read below succeeds.
  io::BinaryReader header(data.substr(0, kWireHeaderBytes));
  uint32_t magic = 0, payload_len = 0;
  uint8_t type = 0, kind = 0;
  uint16_t reserved = 0;
  uint64_t sequence = 0, base_hash = 0, checksum = 0;
  header.U32(&magic);
  header.U8(&type);
  header.U8(&kind);
  header.U16(&reserved);
  header.U64(&sequence);
  header.U64(&base_hash);
  header.U32(&payload_len);
  header.U64(&checksum);
  if (magic != kWireMagic) {
    return Status::InvalidArgument("wire: bad magic");
  }
  if (type < 1 || type > 5) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(type));
  }
  if (kind > 2) {
    return Status::InvalidArgument("wire: unknown artifact kind " +
                                   std::to_string(kind));
  }
  if (reserved != 0) {
    return Status::InvalidArgument("wire: nonzero reserved bits");
  }
  if (payload_len > kWireMaxPayload) {
    return Status::InvalidArgument("wire: payload length " +
                                   std::to_string(payload_len) +
                                   " exceeds 64 MiB cap");
  }
  const size_t total = kWireHeaderBytes + payload_len;
  if (data.size() < total) return decode;  // need more
  WireFrame& frame = decode.frame;
  frame.type = static_cast<FrameType>(type);
  frame.kind = kind == 1   ? ArtifactKind::kDelta
               : kind == 2 ? ArtifactKind::kFull
                           : ArtifactKind::kUnreadable;
  frame.sequence = sequence;
  frame.base_hash = base_hash;
  frame.payload.assign(data.substr(kWireHeaderBytes, payload_len));
  if (io::Fnv1a(frame.payload) != checksum) {
    return Status::InvalidArgument("wire: payload checksum mismatch");
  }
  FALCC_RETURN_IF_ERROR(ValidateFrame(frame));
  decode.complete = true;
  decode.consumed = total;
  return decode;
}

Result<std::optional<WireFrame>> FrameDecoder::Next() {
  if (!error_.ok()) return error_;
  Result<FrameDecode> decoded = DecodeFrame(buffer_);
  if (!decoded.ok()) {
    error_ = decoded.status();
    return error_;
  }
  if (!decoded.value().complete) return std::optional<WireFrame>();
  buffer_.erase(0, decoded.value().consumed);
  return std::optional<WireFrame>(std::move(decoded.value().frame));
}

}  // namespace falcc::replicate
