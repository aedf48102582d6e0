// Packs many *independent* single-fault candidates into ONE probe memory.
//
// The dictionary-style classifier (src/diagnosis) needs the March signature
// of every candidate (kind, placement); probing them one at a time costs a
// full replay per candidate.  Candidates whose cell sets are disjoint cannot
// interact — every fault model in src/faults is keyed on its own victim (and,
// for couplings, its own aggressor) cell — so one probe memory can carry one
// candidate per victim cell and a single replay yields every signature at
// once (demultiplexed per victim by MarchRunner::run_per_cell).  The
// classifier's instance_sliced build replays such packed probes 64 at a time
// through SlicedProbeBatch (below); this one-memory-at-a-time form is the
// reference that batched replay is tested against.
//
// Isolation is structural, not assumed: each candidate owns a private
// FaultSet holding exactly its one fault, and every access to a cell is
// routed to the candidate owning that cell (unowned cells take plain packed
// storage).  A candidate literally cannot observe another candidate's state.
// add_candidate() enforces the disjointness contract — overlapping victim or
// aggressor cells throw — and rejects address faults (decode rewrites affect
// whole rows and cannot be isolated per cell).
//
// The caller must additionally keep the per-column sense-amplifier latch
// clean for stuck-open candidates: an SOF read falls back to the latch,
// whose history is the previous read value of the *column*, so a column
// hosting an SOF victim must host no other victim (healthy aggressor cells
// are fine — they always read their nominal value).  The dictionary
// builder's packing planner honours that rule; this class cannot check it
// (the latch lives in sram::Sram).
//
// Word-level hooks follow the PR 2 defect-bitmap pattern: rows without any
// owned cell take packed limb copies, rows carrying candidate state run the
// exact per-cell routed loops.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault.h"
#include "faults/fault_set.h"
#include "sram/fault_behavior.h"
#include "sram/instance_slab.h"

namespace fastdiag::faults {

class CompositeProbeBehavior final : public sram::FaultBehavior {
 public:
  CompositeProbeBehavior() = default;

  /// Adds one candidate (before attach()).  Throws std::logic_error when
  /// the candidate is an address fault or its cells overlap a previously
  /// added candidate's cells.  Returns the candidate's index.
  std::size_t add_candidate(const FaultInstance& fault);

  [[nodiscard]] std::size_t candidate_count() const {
    return candidates_.size();
  }

  // sram::FaultBehavior --------------------------------------------------
  void attach(const sram::SramConfig& config) override;
  void decode(std::uint32_t addr, std::vector<std::uint32_t>& rows) override;
  void write_cell(sram::CellArray& cells, sram::CellCoord cell, bool value,
                  sram::WriteStyle style, std::uint64_t now_ns) override;
  bool read_cell(sram::CellArray& cells, sram::CellCoord cell,
                 std::uint64_t now_ns, bool& drives) override;
  void begin_word_op() override;
  void end_word_op(sram::CellArray& cells, std::uint64_t now_ns) override;

  /// Word-level hooks: rows without any candidate cell take packed limb
  /// copies; rows carrying candidate state run the per-cell routed loops.
  void write_row(sram::CellArray& cells, std::uint32_t row,
                 const BitVector& value, sram::WriteStyle style,
                 std::uint64_t now_ns) override;
  bool read_row(sram::CellArray& cells, std::uint32_t row, BitVector& out,
                BitVector& drives, std::uint64_t now_ns) override;

  /// True when no candidate owns a cell of physical @p row.
  [[nodiscard]] bool row_is_transparent(std::uint32_t row) const {
    return row >= row_has_owner_.size() || !row_has_owner_[row];
  }

 private:
  struct Candidate {
    FaultInstance fault;
    std::unique_ptr<FaultSet> set;  ///< holds exactly this one fault
  };

  /// The candidate owning @p cell, or -1.  Valid after attach().
  [[nodiscard]] std::int32_t owner_of(sram::CellCoord cell) const {
    return owner_[static_cast<std::size_t>(cell.row) * config_.bits +
                  cell.bit];
  }
  void claim(sram::CellCoord cell, std::size_t candidate);

  sram::SramConfig config_;
  bool attached_ = false;
  std::vector<Candidate> candidates_;

  /// Flat (row * bits + bit) -> owning candidate index, -1 when unowned.
  std::vector<std::int32_t> owner_;
  std::vector<bool> row_has_owner_;

  /// Word-op bracketing: candidate sets begun during the in-flight word
  /// write, so their queued coupling disturbs flush in end_word_op.
  bool in_word_op_ = false;
  std::vector<std::uint32_t> active_sets_;
  std::vector<bool> set_active_;
};

// ---------------------------------------------------------------------------

/// Up to 64 packed probe memories replayed as bit-lanes of one
/// sram::InstanceSlab — the instance-sliced dictionary build.
///
/// Each lane is the exact equivalent of one Sram carrying a
/// CompositeProbeBehavior with the lane's candidate list: the slab arena
/// holds every lane's stored image column-wise, uniform March data advances
/// all clean (lane, cell) slots with one masked broadcast per cell-column,
/// and the candidate-bearing slots — marked in the slab's exactness bitmaps —
/// are advanced by small per-candidate records that replicate the
/// single-fault FaultSet semantics bit-for-bit:
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
/// Candidates must satisfy the CompositeProbeBehavior packing contract per
/// lane (disjoint cells, no address faults, an SOF victim alone among the
/// victims of its column); the constructor re-validates all of it.
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
