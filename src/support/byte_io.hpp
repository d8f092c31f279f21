// Little/big-endian byte buffer primitives used by the ELF writer and
// parser. ELF files for the ISAs we model (x86, x86-64, ppc64) appear in
// both endiannesses, so both are supported and round-trip tested.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace feam::support {

enum class Endian : std::uint8_t { kLittle, kBig };

using Bytes = std::vector<std::uint8_t>;

// Appends integers/strings to a growing byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(Endian endian) : endian_(endian) {}

  // Allocates room for `size` bytes up front. A writer that then writes
  // exactly `size` bytes never reallocates, and take() returns a vector
  // with no spare capacity.
  void reserve(std::size_t size) { out_.reserve(size); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(const Bytes& data);
  void bytes(std::string_view data);
  // NUL-terminated string.
  void cstr(std::string_view text);
  void zeros(std::size_t count);
  void pad_to(std::size_t offset);  // zero-fill up to an absolute offset

  std::size_t size() const { return out_.size(); }
  const Bytes& data() const { return out_; }
  Bytes take() { return std::move(out_); }

  // Overwrites an already-written u32/u64 at an absolute offset (for
  // back-patching header fields once layout is known).
  void patch_u32(std::size_t offset, std::uint32_t v);
  void patch_u64(std::size_t offset, std::uint64_t v);

 private:
  Endian endian_;
  Bytes out_;
};

// Bounds-checked reads from a byte span; every accessor returns nullopt on
// overrun so the ELF parser can reject truncated files without UB.
class ByteReader {
 public:
  ByteReader(const Bytes& data, Endian endian)
      : data_(&data), endian_(endian) {}

  std::optional<std::uint8_t> u8(std::size_t offset) const;
  std::optional<std::uint16_t> u16(std::size_t offset) const;
  std::optional<std::uint32_t> u32(std::size_t offset) const;
  std::optional<std::uint64_t> u64(std::size_t offset) const;
  // NUL-terminated string starting at offset; nullopt if unterminated.
  std::optional<std::string> cstr(std::size_t offset) const;
  // Zero-copy variant: a view into the underlying buffer, valid exactly
  // as long as the Bytes the reader wraps stays alive and unmodified.
  std::optional<std::string_view> cstr_view(std::size_t offset) const;

  std::size_t size() const { return data_->size(); }

 private:
  const Bytes* data_;
  Endian endian_;
};

}  // namespace feam::support
