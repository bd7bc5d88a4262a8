#include "storage/block_directory.h"

#include <cstring>

#include "storage/row_batch.h"

namespace idf {

BlockDirectory::BlockDirectory(const Schema& schema)
    : stat_of_col_(static_cast<size_t>(schema.num_fields()), -1) {
  const size_t bitmap_bytes = EncodedBitmapBytes(schema.num_fields());
  for (int col = 0; col < schema.num_fields(); ++col) {
    const TypeId type = schema.field(col).type;
    if (type != TypeId::kBool && type != TypeId::kInt32 &&
        type != TypeId::kInt64 && type != TypeId::kTimestamp) {
      continue;
    }
    if (static_cast<int>(tracked_.size()) == kMaxTracked) break;
    stat_of_col_[static_cast<size_t>(col)] =
        static_cast<int16_t>(tracked_.size());
    tracked_.push_back(Tracked{
        col, type == TypeId::kInt32,
        static_cast<uint32_t>(bitmap_bytes + static_cast<size_t>(col) * 8),
        static_cast<uint32_t>((col / 64) * 8 + ((col % 64) / 8)),
        static_cast<uint8_t>(1u << (col % 8))});
  }
  open_ranges_.resize(tracked_.size());
}

void BlockDirectory::Add(const uint8_t* payload, PackedPointer ptr,
                         uint32_t size) {
  if (open_rows_ == 0) open_.first = Location{ptr.batch(), ptr.offset()};
  for (size_t t = 0; t < tracked_.size(); ++t) {
    const Tracked& tr = tracked_[t];
    if (payload[tr.null_byte] & tr.null_mask) {
      open_.null_bits |= uint64_t{1} << t;
      continue;
    }
    int64_t v;
    if (tr.int32) {
      int32_t x;
      std::memcpy(&x, payload + tr.slot_off, 4);
      v = x;
    } else {
      std::memcpy(&v, payload + tr.slot_off, 8);
    }
    open_ranges_[t].Add(v);
  }
  if (++open_rows_ < kBlockRows) return;
  // Rows are 8-byte aligned behind an 8-byte header (RowBatch::AppendEncoded).
  const uint32_t end = (ptr.offset() + 8 + size + 7) & ~uint32_t{7};
  Seal(Location{ptr.batch(), end});
}

void BlockDirectory::Seal(Location end) {
  const Slot s = Locate(sealed_);
  Chunk& c = chunks_[s.chunk];
  if (c.entries == nullptr) {
    const uint64_t n = kBaseBlocks << s.chunk;
    c.entries.reset(new Entry[n]);
    if (!tracked_.empty()) c.ranges.reset(new ColumnRange[n * tracked_.size()]);
    memory_bytes_.fetch_add(
        n * (sizeof(Entry) + tracked_.size() * sizeof(ColumnRange)),
        std::memory_order_relaxed);
  }
  open_.end = end;
  c.entries[s.index] = open_;
  for (size_t t = 0; t < tracked_.size(); ++t) {
    c.ranges[s.index * tracked_.size() + t] = open_ranges_[t];
    open_ranges_[t] = ColumnRange{};
  }
  open_ = Entry{};
  open_rows_ = 0;
  ++sealed_;
}

}  // namespace idf
