// Replays up to 64 packed dictionary probes at once: the instance-sliced
// dictionary build's fault engine (diagnosis::FaultClassifier, driven by
// march::MarchRunner::run_group_per_cell).
//
// The dictionary-style classifier (src/diagnosis) needs the March signature
// of every candidate (kind, placement); probing them one at a time costs a
// full replay per candidate.  Candidates whose cell sets are disjoint cannot
// interact — every fault model in src/faults is keyed on its own victim (and,
// for couplings, its own aggressor) cell — so one probe lane can carry one
// candidate per victim cell, and a single replay yields every candidate's
// signature at once, demultiplexed per victim cell.  The oracle is the
// per_candidate probe: each candidate alone in a plain sram::Sram holding
// FaultSet{candidate}, replayed by MarchRunner::run_per_cell.  A lane's
// result must equal the merge of its candidates' oracle results.
//
// Packing contract, per lane (the constructor checks all of it and throws
// std::logic_error on a violation):
//  * candidates' victim and aggressor cells are pairwise disjoint;
//  * no address faults (decode rewrites affect whole rows and cannot be
//    isolated per cell);
//  * an SOF victim is the only victim in its column.  A stuck-open read
//    falls back to the column's sense-amplifier latch, whose history is the
//    previous read value of the *column*; healthy aggressor cells are fine
//    there, since they always read their nominal value.
// The batch itself holds 1..64 lanes.
#pragma once

#include <cstdint>
#include <vector>

#include "faults/fault.h"
#include "sram/fault_behavior.h"
#include "sram/instance_slab.h"

namespace fastdiag::faults {

/// Up to 64 packed probe memories replayed as bit-lanes of one
/// sram::InstanceSlab — the instance-sliced dictionary build.
///
/// Each lane is the exact equivalent of its candidates' single-fault probe
/// memories, merged: the slab arena holds every lane's stored image
/// column-wise, uniform March data advances all clean (lane, cell) slots
/// with one masked broadcast per cell-column, and the candidate-bearing
/// slots — marked in the slab's exactness bitmaps — are advanced by small
/// per-candidate records that replicate the single-fault FaultSet
/// semantics bit-for-bit:
///
///  * SAF victims normalize to their forced value at construction; writes
///    preserve the slot (write-exact), so reads ride the packed compare.
///  * TF victims commit new = old AND/OR data per write (write-exact).
///  * DRF victims keep a per-record value_since timestamp, settle lazily at
///    every access of their row, and refuse NWRC writes toward the weak
///    state (write-exact).
///  * SOF victims never accept writes (write-exact) and read back a
///    per-record sense-latch bit (read-exact) that tracks the column's
///    previous driven value, exactly like Sram's sense_latch_ blend.
///  * CFin/CFid aggressors store normally; a fire record captures the
///    pre-broadcast value and applies the disturb to the victim slot after
///    every commit of the word op (end_word_op ordering).
///  * CFst victims are pinned at write and read (write-exact + read-exact),
///    seeing the aggressor's new value only when it commits earlier in the
///    same word (ascending-bit order); enter-state fires land with the
///    other disturbs.
///
/// Candidates must satisfy the packing contract above per lane (disjoint
/// cells, no address faults, an SOF victim alone among the victims of its
/// column); the constructor validates all of it.
class SlicedProbeBatch {
 public:
  /// One mismatching (lane, column) slot of a packed read compare.
  struct LaneBitMismatch {
    std::uint32_t lane = 0;
    std::uint32_t bit = 0;
  };

  /// @p lanes: @p lane_count (1..64) candidate lists, one per lane, against
  /// geometry @p config (words x bits; retention_ns feeds the DRF records).
  SlicedProbeBatch(const sram::SramConfig& config,
                   const std::vector<FaultInstance>* lanes,
                   std::size_t lane_count);

  [[nodiscard]] std::size_t lane_count() const { return lane_count_; }

  /// One uniform word write of the broadcast image @p bcast (bits entries,
  /// all-ones/all-zeros per column) into @p row at simulated time @p now_ns.
  void write_row(std::uint32_t row, const std::uint64_t* bcast,
                 sram::WriteStyle style, std::uint64_t now_ns);

  /// One uniform word read of @p row compared against @p expect_bcast;
  /// clears @p out and appends every mismatching (lane, bit) slot.
  void read_row(std::uint32_t row, const std::uint64_t* expect_bcast,
                std::uint64_t now_ns, std::vector<LaneBitMismatch>& out);

 private:
  /// Transition-fault victim: new = old AND data (tf_up) / old OR data.
  struct TfRec {
    std::uint32_t bit = 0;
    std::uint32_t lane = 0;
    bool up = false;
  };

  /// Retention victim: lazy decay away from the weak stored value.
  struct DrfRec {
    std::uint32_t bit = 0;
    std::uint32_t lane = 0;
    bool weak_one = false;  ///< drf1: the weak stored value is 1
    std::uint64_t since_ns = 0;
  };

  /// State-coupling victim (indexed on the victim's row): pins writes and
  /// reads to @p v while the aggressor holds @p s.
  struct PinRec {
    std::uint32_t vbit = 0;
    std::uint32_t arow = 0;
    std::uint32_t abit = 0;
    std::uint32_t lane = 0;
    bool s = false;
    bool v = false;
    bool same_row = false;  ///< aggressor shares the victim's row
    bool agg_old = false;   ///< pre-broadcast aggressor value (same_row only)
  };

  /// Coupling aggressor (indexed on the aggressor's row): fires when a
  /// write transitions the aggressor to @p trigger.
  struct FireRec {
    std::uint32_t abit = 0;
    std::uint32_t vrow = 0;
    std::uint32_t vbit = 0;
    std::uint32_t lane = 0;
    bool trigger = false;
    bool invert = false;  ///< CFin flips the victim; otherwise force @p forced
    bool forced = false;
    bool old_value = false;  ///< pre-broadcast aggressor value
  };

  /// Stuck-open victim: per-record sense-amplifier latch.
  struct SofRec {
    std::uint32_t row = 0;
    std::uint32_t bit = 0;
    std::uint32_t lane = 0;
    bool latch = false;
  };

  struct RowRecords {
    std::vector<TfRec> tf;
    std::vector<DrfRec> drf;
    std::vector<PinRec> pins;
    std::vector<FireRec> fires;
  };

  [[nodiscard]] bool lane_bit(std::uint64_t limb, std::uint32_t lane) const {
    return (limb >> lane) & 1;
  }
  static void set_lane_bit(std::uint64_t& limb, std::uint32_t lane,
                           bool value) {
    limb = (limb & ~(std::uint64_t{1} << lane)) |
           (static_cast<std::uint64_t>(value) << lane);
  }
  void settle(DrfRec& rec, std::uint64_t* arena_row, std::uint64_t now_ns);

  std::uint32_t words_ = 0;
  std::uint32_t bits_ = 0;
  std::size_t lane_count_ = 0;
  std::uint64_t retention_ns_ = 0;
  sram::InstanceSlab slab_;
  std::vector<RowRecords> rows_;
  std::vector<SofRec> sofs_;  ///< touched on every read (latch tracking)
};

}  // namespace fastdiag::faults
