// BlockDirectory: the block-granular map of one partition generation's row
// store. Every kBlockRows committed rows form one block; a sealed block's
// entry records where its first row starts, where its last row ends, and a
// zone map — min, max and a saw-a-null bit for each integer-backed column
// (bool, int32, int64, timestamp). Scans hand out runs of blocks as morsels
// (a walk starts at the entry's recorded location, so one partition splits
// across workers) and skip a block whose zone map proves a filter cannot be
// TRUE on any of its rows (CompiledPredicate::MayMatch).
//
// Concurrency: one appender (the partition write lock) fills the open
// block privately and seals it by copying it into a chunk on the block's
// kBlockRows-th Add, inside the commit that adds that row. The commit's
// record (indexed/indexed_partition.h) publishes the entries with its
// release store, so a reader derives the sealed count from the record's
// watermark — num_rows / kBlockRows — and touches only entries below it;
// the open tail block — the rows past the last sealed block — has no entry
// yet and is always scanned. Chunks grow geometrically (chunk c holds
// kBaseBlocks << c entries) inside a fixed slot array, so no published
// entry ever moves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "storage/packed_pointer.h"
#include "types/schema.h"

namespace idf {

/// Bounds of the non-null values one column took inside a block, read the
/// way the compiled-predicate VM reads them (int32 sign-extended from the
/// low word; bool, int64 and timestamp as the 8-byte slot). Empty (min >
/// max) when every row of the block was null in that column.
struct ColumnRange {
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;

  bool has_value() const { return min <= max; }
  void Add(int64_t v) {
    if (v < min) min = v;
    if (v > max) max = v;
  }
};

/// Read-only view of one sealed block's zone map (the input of
/// CompiledPredicate::MayMatch). Columns without statistics (float,
/// string, or past the 64 tracked columns) report no range.
struct BlockZoneMap {
  const int16_t* stat_of_col = nullptr;  ///< column -> tracked slot, or -1
  const ColumnRange* ranges = nullptr;   ///< one per tracked slot
  uint64_t null_bits = 0;                ///< bit t: tracked slot t saw a null

  /// Range of column `col`, or null when the column is untracked.
  const ColumnRange* Range(int col) const {
    const int16_t t = stat_of_col[col];
    return t < 0 ? nullptr : &ranges[t];
  }
  /// Whether some row of the block is null in tracked column `col`.
  bool SawNull(int col) const { return (null_bits >> stat_of_col[col]) & 1; }
};

class BlockDirectory {
 public:
  /// Rows per block: one vectorized filter batch
  /// (VectorizedPredicate::kBatchRows), so a block filters in one pass.
  static constexpr uint32_t kBlockRows = 256;
  /// Integer-backed columns with statistics, at most (one null bit each).
  static constexpr int kMaxTracked = 64;

  /// Row location inside a RowBatchStore: batch index plus the byte offset
  /// of a row header. An `end` location is the aligned offset just past a
  /// block's last row, which may lie past its batch's committed bytes (the
  /// next row then starts at offset 0 of the following batch).
  struct Location {
    uint32_t batch = 0;
    uint32_t offset = 0;
  };
  struct Entry {
    Location first;  ///< header of the block's first row
    Location end;    ///< just past the block's last row
    uint64_t null_bits = 0;
  };

  explicit BlockDirectory(const Schema& schema);
  IDF_DISALLOW_COPY_AND_ASSIGN(BlockDirectory);

  /// Appender-only: registers one committed row (`ptr` addresses it in the
  /// generation's store, `size` is its encoded payload size). Seals and
  /// publishes the open block when it reaches kBlockRows rows.
  void Add(const uint8_t* payload, PackedPointer ptr, uint32_t size);

  /// Sealed blocks, appender-side: they cover exactly the first
  /// sealed() * kBlockRows rows of the store.
  uint64_t sealed() const { return sealed_; }

  /// Entry of sealed block `b` (b below a commit record's sealed count).
  const Entry& entry(uint64_t b) const {
    const Slot s = Locate(b);
    return chunks_[s.chunk].entries[s.index];
  }

  /// Zone map of sealed block `b` (b below a commit record's sealed count).
  BlockZoneMap ZoneMap(uint64_t b) const {
    const Slot s = Locate(b);
    const Chunk& c = chunks_[s.chunk];
    return BlockZoneMap{stat_of_col_.data(),
                        c.ranges.get() + s.index * tracked_.size(),
                        c.entries[s.index].null_bits};
  }

  /// Bytes held by entries and zone maps (allocated chunk capacity).
  size_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kBaseBlocks = 16;  ///< entries in chunk 0
  static constexpr int kMaxChunks = 40;        ///< ~1.7e13 blocks

  struct Tracked {
    int column;
    bool int32;  ///< sign-extend the low word instead of reading 8 bytes
    uint32_t slot_off;
    uint32_t null_byte;
    uint8_t null_mask;
  };
  struct Chunk {
    std::unique_ptr<Entry[]> entries;
    std::unique_ptr<ColumnRange[]> ranges;  ///< entries x tracked, row-major
  };
  struct Slot {
    int chunk;
    uint64_t index;
  };

  static Slot Locate(uint64_t b) {
    const uint64_t q = b / kBaseBlocks + 1;
    const int c = 63 - __builtin_clzll(q);
    return Slot{c, b - kBaseBlocks * ((uint64_t{1} << c) - 1)};
  }

  void Seal(Location end);

  std::vector<Tracked> tracked_;
  std::vector<int16_t> stat_of_col_;
  Chunk chunks_[kMaxChunks];
  uint64_t sealed_ = 0;
  std::atomic<size_t> memory_bytes_{0};  // read by storage accounting
  // The open block (appender-private until Seal copies it out).
  uint32_t open_rows_ = 0;
  Entry open_;
  std::vector<ColumnRange> open_ranges_;
};

}  // namespace idf
