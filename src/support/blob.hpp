// Immutable, reference-counted file content, one copy per distinct bytes.
//
// Every regular file in a site's Vfs, every source-phase bundle payload
// and every memo entry that needs a file's bytes holds a Blob. Copying a
// file between sites, packing it into a bundle or memoizing its parse
// shares the blob instead of duplicating the bytes, so a binary surveyed
// at 500 sites exists once in memory.
//
// Fresh bytes enter through intern(), which folds them into the live blob
// holding equal bytes when there is one. The intern table holds no strong
// references: a blob is freed with its last holder and leaves the table
// then, so equal bytes written after that start a new blob.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "support/byte_io.hpp"

namespace feam::support {

using Blob = std::shared_ptr<const Bytes>;

// Constant-work sampled hash: the size plus the head, tail, and a few
// evenly spaced interior windows, about 9 KiB read for any size. Inputs
// up to 8 KiB are hashed whole. Equal hashes do not imply equal bytes.
std::uint64_t content_hash(const Bytes& bytes);

// The live blob whose bytes equal `bytes`, or a new blob holding them.
// Candidates are found by content_hash and confirmed by a full compare, so
// a hash collision yields two blobs, never a wrong one. Thread-safe.
Blob intern(Bytes bytes);

// Live blobs in the intern table (for tests and diagnostics).
std::size_t interned_blobs();

}  // namespace feam::support
