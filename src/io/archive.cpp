#include "io/archive.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "util/checksum.hpp"

namespace ipcomp {

namespace {

const char* layer_name(IntegrityError::Layer layer) {
  switch (layer) {
    case IntegrityError::Layer::kStorage:
      return "storage";
    case IntegrityError::Layer::kCache:
      return "cache";
    case IntegrityError::Layer::kWire:
      return "wire";
  }
  return "?";
}

std::string integrity_message(SegmentId id, std::uint64_t expected,
                              std::uint64_t actual,
                              IntegrityError::Layer layer) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "integrity: segment (kind=%u level=%u plane=%u block=%u) "
                "checksum mismatch at %s layer: expected %016llx, got %016llx",
                unsigned{id.kind}, unsigned{id.level}, unsigned{id.plane},
                unsigned{id.block}, layer_name(layer),
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(actual));
  return buf;
}

/// One stderr note per process when a pre-v4 container is opened; the data
/// still reads, it just cannot be verified.
void warn_integrity_unavailable(std::uint32_t version) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "ipcomp: archive container v%u predates per-segment "
                 "checksums; integrity verification is unavailable "
                 "(recompress with integrity enabled to upgrade)\n",
                 version);
  }
}

}  // namespace

IntegrityError::IntegrityError(SegmentId segment, std::uint64_t expected,
                               std::uint64_t actual, Layer layer)
    : std::runtime_error(integrity_message(segment, expected, actual, layer)),
      segment_(segment),
      expected_(expected),
      actual_(actual),
      layer_(layer) {}

Bytes SegmentSource::read_segment(SegmentId id) {
  std::vector<Bytes> one = read_many({&id, 1});
  return std::move(one.front());
}

namespace {
constexpr std::uint32_t kMagic = 0x41435049u;  // "IPCA" little-endian
}  // namespace

std::uint64_t SegmentId::key(std::uint32_t version) const {
  if (version >= kArchiveV2) {
    // block is 32-bit and the v2 key gives it 36, so it always fits.
    if (kind > 0xFF || level > 0xFF || plane > 0xFFF) {
      throw std::runtime_error("archive: segment id out of range for v2 key");
    }
    return (static_cast<std::uint64_t>(kind) << 56) |
           (static_cast<std::uint64_t>(level) << 48) |
           (static_cast<std::uint64_t>(plane) << 36) | block;
  }
  if (block != 0) {
    throw std::runtime_error("archive: v1 keys cannot address blocks");
  }
  return (static_cast<std::uint64_t>(kind) << 48) |
         (static_cast<std::uint64_t>(level) << 32) | plane;
}

Bytes ArchiveBuilder::finish() const {
  ByteWriter w;
  w.u32(kMagic);
  if (integrity_) {
    w.u32(kArchiveV4);
    w.u32(version_);  // base version: key packing + header format
    w.u8(kChecksumXXH64);
  } else {
    w.u32(version_);
  }
  w.varint(header_.size());
  w.bytes(header_);
  w.varint(order_.size());
  for (std::uint64_t key : order_) {
    const Bytes& payload = segments_.at(key);
    w.u64(key);
    w.varint(payload.size());
    if (integrity_) w.u64(checksum64(payload.data(), payload.size()));
  }
  for (std::uint64_t key : order_) {
    w.bytes(segments_.at(key));
  }
  return w.take();
}

ArchiveIndex ArchiveIndex::parse(std::size_t total_size,
                                 const RangeReader& read) {
  // Fixed words (magic, container[, base, algo]) and the header_len varint.
  constexpr std::size_t kMaxFixed = 4 + 4 + 4 + 1;
  constexpr std::size_t kMaxVarint = 10;
  ByteReader r(read(0, std::min(total_size, kMaxFixed + kMaxVarint)));
  if (r.u32() != kMagic) throw std::runtime_error("archive: bad magic");
  ArchiveIndex idx;
  idx.container = r.u32();
  if (idx.container == kArchiveV4) {
    // Integrity wrapper: the base version follows, then the checksum algo.
    idx.version = r.u32();
    idx.has_checksums = true;
    if (r.u8() != kChecksumXXH64) {
      throw std::runtime_error("archive: unknown checksum algorithm");
    }
  } else {
    idx.version = idx.container;
  }
  if (idx.version < kArchiveV1 || idx.version > kArchiveV3) {
    throw std::runtime_error("archive: bad version");
  }
  if (!idx.has_checksums) warn_integrity_unavailable(idx.version);
  idx.total_size = total_size;
  idx.header_length = r.varint();
  idx.header_offset = r.position();
  if (idx.header_length > total_size - idx.header_offset) {
    throw std::runtime_error("archive: truncated");
  }

  // The segment count, just past the (skipped) header payload.
  std::size_t pos = idx.header_offset + idx.header_length;
  ByteReader rc(read(pos, std::min(total_size, pos + kMaxVarint)));
  const std::size_t count = rc.varint();
  pos += rc.position();
  // Each table row encodes to at least 9 bytes (u64 key + 1-byte varint;
  // +8 for the v4 checksum column); a forged count must not drive the
  // reserve() allocation below.
  const std::size_t tail = idx.has_checksums ? 8 : 0;
  const std::size_t min_row = 9 + tail;
  if (count > (total_size - pos) / min_row) {
    throw std::runtime_error("archive: bad segment count");
  }

  // Rows are variable-length, but every unread row is at least min_row
  // bytes: read that lower bound, decode the rows it holds whole, and read
  // again from the first partial row.  No read passes the table's end.
  struct Row {
    std::uint64_t key;
    std::size_t len;
    std::uint64_t checksum;
  };
  std::vector<Row> rows;
  rows.reserve(count);
  std::size_t partial = 0;  // bytes of a row the previous read cut short
  while (rows.size() < count) {
    const std::size_t want =
        std::max((count - rows.size()) * min_row, partial + 1);
    if (want > total_size - pos) throw std::runtime_error("archive: truncated");
    const std::span<const std::uint8_t> chunk = read(pos, pos + want);
    std::size_t used = 0;
    while (rows.size() < count) {
      // Row length once its varint's last byte is in view (a varint longer
      // than kMaxVarint is cut there and rejected by the decode below).
      std::size_t n = 8;
      while (used + n < chunk.size() && n < 8 + kMaxVarint - 1 &&
             (chunk[used + n] & 0x80) != 0) {
        ++n;
      }
      n += 1 + tail;
      if (n > chunk.size() - used) break;
      ByteReader row_reader(chunk.subspan(used, n));
      Row row{};
      row.key = row_reader.u64();
      row.len = row_reader.varint();
      if (idx.has_checksums) row.checksum = row_reader.u64();
      rows.push_back(row);
      used += n;
    }
    partial = chunk.size() - used;
    pos += used;
  }

  std::size_t offset = pos;
  for (const Row& row : rows) {
    // Checked per entry so a huge forged len cannot wrap offset += len.
    if (row.len > total_size - offset) throw std::runtime_error("archive: truncated");
    // Duplicate keys would silently alias two payload ranges to one id.
    if (!idx.entries
             .emplace(row.key, Entry{row.key, offset, row.len, row.checksum})
             .second) {
      throw std::runtime_error("archive: duplicate segment key");
    }
    offset += row.len;
  }
  return idx;
}

ArchiveIndex ArchiveIndex::parse(std::span<const std::uint8_t> archive,
                                 std::size_t total_size) {
  return parse(total_size, [archive](std::size_t begin, std::size_t end) {
    if (end > archive.size()) throw std::runtime_error("archive: truncated");
    return archive.subspan(begin, end - begin);
  });
}

void ArchiveIndex::verify(const Entry& entry,
                          std::span<const std::uint8_t> payload) const {
  if (!has_checksums) return;
  const std::uint64_t actual = checksum64(payload.data(), payload.size());
  if (actual != entry.checksum) {
    throw IntegrityError(SegmentId::from_key(entry.key, version),
                         entry.checksum, actual,
                         IntegrityError::Layer::kStorage);
  }
}

IndexedSource::IndexedSource(Bytes blob)
    : blob_(std::move(blob)), size_(blob_.size()) {
  index_ = ArchiveIndex::parse({blob_.data(), blob_.size()}, size_);
}

IndexedSource::IndexedSource(const std::string& path)
    : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
  if (fd_ < 0) throw std::runtime_error("cannot open file: " + path);
  try {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      throw std::runtime_error("cannot stat file: " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    Bytes buf;
    index_ = ArchiveIndex::parse(
        size_, [&](std::size_t begin, std::size_t end) {
          return bytes(begin, end, buf);
        });
  } catch (...) {
    // The destructor does not run for a throwing constructor.
    ::close(fd_);
    throw;
  }
}

IndexedSource::~IndexedSource() {
  if (fd_ >= 0) ::close(fd_);
}

std::span<const std::uint8_t> IndexedSource::bytes(std::size_t begin,
                                                   std::size_t end,
                                                   Bytes& buf) const {
  if (fd_ < 0) return {blob_.data() + begin, end - begin};
  buf.resize(end - begin);
  for (std::size_t got = 0; got < buf.size();) {
    const ssize_t n = ::pread(fd_, buf.data() + got, buf.size() - got,
                              static_cast<off_t>(begin + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("archive: short read");
    got += static_cast<std::size_t>(n);
  }
  return buf;
}

const ArchiveIndex::Entry& IndexedSource::entry(SegmentId id) const {
  auto it = index_.entries.find(id.key(index_.version));
  if (it == index_.entries.end()) throw std::runtime_error("archive: missing segment");
  return it->second;
}

const Bytes& IndexedSource::header() {
  if (!header_loaded_) {
    Bytes buf;
    const std::span<const std::uint8_t> h = bytes(
        index_.header_offset, index_.header_offset + index_.header_length, buf);
    header_cache_.assign(h.begin(), h.end());
    // The fixed words and header are the one-time cost of opening.
    charge_bytes(index_.header_offset + index_.header_length);
    count_read_call();
    header_loaded_ = true;
  }
  return header_cache_;
}

std::vector<Bytes> IndexedSource::read_many(std::span<const SegmentId> ids) {
  // Resolve every id up front (so a missing segment throws before any read),
  // then visit the batch in offset order: requests usually arrive in table
  // order already, but plane segments of one level are planned MSB-first
  // while the archive stores them LSB-first.
  struct Item {
    std::size_t idx;  // position in the request (and output) order
    const ArchiveIndex::Entry* entry;
  };
  std::vector<Item> items;
  items.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    items.push_back({i, &entry(ids[i])});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.entry->offset < b.entry->offset;
  });

  std::vector<Bytes> out(ids.size());
  std::size_t charged = 0;
  Bytes buf;
  for (std::size_t i = 0; i < items.size();) {
    // Coalesce the run of segments whose ranges start within
    // kCoalesceGapBytes of the current range's end into one read; the gap
    // bytes are read through but never charged to bytes_read.
    const std::size_t begin = items[i].entry->offset;
    std::size_t end = begin + items[i].entry->length;
    std::size_t j = i + 1;
    while (j < items.size() &&
           items[j].entry->offset <= end + kCoalesceGapBytes) {
      end = std::max(end, items[j].entry->offset + items[j].entry->length);
      ++j;
    }
    const std::span<const std::uint8_t> run = bytes(begin, end, buf);
    count_read_call();
    count_coalesced_range();
    for (; i < j; ++i) {
      const ArchiveIndex::Entry& e = *items[i].entry;
      const std::span<const std::uint8_t> slice =
          run.subspan(e.offset - begin, e.length);
      // Verified before it is handed out: a corrupt segment throws here.
      index_.verify(e, slice);
      out[items[i].idx].assign(slice.begin(), slice.end());
      charged += e.length;
    }
  }
  // Charged only once the whole batch delivered: a throw mid-batch (missing
  // id, short read, checksum mismatch) must not inflate bytes_read with
  // payloads that were never handed out, or the retrieved-volume metric —
  // and the reader's sum(bytes_new) == bytes_total invariant across a
  // retried execute() — drifts.
  charge_bytes(charged);
  return out;
}

namespace {

class File {
 public:
  File(const std::string& path, const char* mode) : f_(std::fopen(path.c_str(), mode)) {
    if (!f_) throw std::runtime_error("cannot open file: " + path);
  }
  ~File() {
    if (f_) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* get() const { return f_; }

 private:
  std::FILE* f_;
};

}  // namespace

void write_file(const std::string& path, const Bytes& data) {
  File f(path, "wb");
  if (!data.empty() && std::fwrite(data.data(), 1, data.size(), f.get()) != data.size()) {
    throw std::runtime_error("cannot write file: " + path);
  }
}

Bytes read_file(const std::string& path) {
  File f(path, "rb");
  std::fseek(f.get(), 0, SEEK_END);
  std::size_t n = static_cast<std::size_t>(std::ftell(f.get()));
  std::fseek(f.get(), 0, SEEK_SET);
  Bytes out(n);
  if (n > 0 && std::fread(out.data(), 1, n, f.get()) != n) {
    throw std::runtime_error("cannot read file: " + path);
  }
  return out;
}

}  // namespace ipcomp
