#include "faults/composite_probe.h"

#include <bit>
#include <string>

#include "faults/fault_kind.h"
#include "util/require.h"

namespace fastdiag::faults {

SlicedProbeBatch::SlicedProbeBatch(const sram::SramConfig& config,
                                   const std::vector<FaultInstance>* lanes,
                                   std::size_t lane_count)
    : words_(config.words),
      bits_(config.bits),
      lane_count_(lane_count),
      retention_ns_(config.retention_ns),
      slab_(config.words, config.bits, lane_count) {
  require(lanes != nullptr && lane_count_ >= 1 && lane_count_ <= 64,
          "SlicedProbeBatch: 1..64 lanes required");
  rows_.resize(words_);

  // Per-lane packing contract (see the header).
  std::vector<std::int32_t> owner;
  std::vector<std::uint8_t> victims_in_col;
  std::vector<std::uint8_t> sof_in_col;
  for (std::uint32_t k = 0; k < lane_count_; ++k) {
    owner.assign(static_cast<std::size_t>(words_) * bits_, -1);
    victims_in_col.assign(bits_, 0);
    sof_in_col.assign(bits_, 0);
    const auto claim = [&](sram::CellCoord cell, std::size_t candidate) {
      auto& slot =
          owner[static_cast<std::size_t>(cell.row) * bits_ + cell.bit];
      require(slot < 0, [&] {
        return "SlicedProbeBatch: lane " + std::to_string(k) +
               " candidates overlap at cell (" + std::to_string(cell.row) +
               "," + std::to_string(cell.bit) + ")";
      });
      slot = static_cast<std::int32_t>(candidate);
    };

    for (std::size_t i = 0; i < lanes[k].size(); ++i) {
      const FaultInstance& fault = lanes[k][i];
      fault.validate(config);
      require(!is_address_fault(fault.kind),
              "SlicedProbeBatch: address faults cannot be packed");
      claim(fault.victim, i);
      ++victims_in_col[fault.victim.bit];
      if (needs_aggressor(fault.kind)) {
        claim(fault.aggressor, i);
      }

      const std::uint32_t vrow = fault.victim.row;
      const std::uint32_t vbit = fault.victim.bit;
      switch (fault.kind) {
        case FaultKind::sa0:
        case FaultKind::sa1:
          // Normalize the slot to the forced value up front: writes
          // preserve it and reads return it, so the record needs no
          // per-op work at all.
          set_lane_bit(slab_.row_mut(vrow)[vbit], k,
                       fault.kind == FaultKind::sa1);
          slab_.mark_write_exact(k, vrow, vbit);
          break;
        case FaultKind::tf_up:
        case FaultKind::tf_down:
          rows_[vrow].tf.push_back(
              TfRec{vbit, k, fault.kind == FaultKind::tf_up});
          slab_.mark_write_exact(k, vrow, vbit);
          break;
        case FaultKind::sof:
          sofs_.push_back(SofRec{vrow, vbit, k, false});
          sof_in_col[vbit] = 1;
          slab_.mark_write_exact(k, vrow, vbit);
          slab_.mark_read_exact(k, vrow, vbit);
          break;
        case FaultKind::drf0:
        case FaultKind::drf1:
          rows_[vrow].drf.push_back(
              DrfRec{vbit, k, fault.kind == FaultKind::drf1, 0});
          slab_.mark_write_exact(k, vrow, vbit);
          break;
        case FaultKind::cf_in_up:
        case FaultKind::cf_in_down:
          rows_[fault.aggressor.row].fires.push_back(
              FireRec{fault.aggressor.bit, vrow, vbit, k,
                      /*trigger=*/fault.kind == FaultKind::cf_in_up,
                      /*invert=*/true, /*forced=*/false, false});
          break;
        case FaultKind::cf_id_up0:
        case FaultKind::cf_id_up1:
        case FaultKind::cf_id_down0:
        case FaultKind::cf_id_down1: {
          const bool rising = fault.kind == FaultKind::cf_id_up0 ||
                              fault.kind == FaultKind::cf_id_up1;
          const bool forced = fault.kind == FaultKind::cf_id_up1 ||
                              fault.kind == FaultKind::cf_id_down1;
          rows_[fault.aggressor.row].fires.push_back(
              FireRec{fault.aggressor.bit, vrow, vbit, k, rising,
                      /*invert=*/false, forced, false});
          break;
        }
        case FaultKind::cf_st_00:
        case FaultKind::cf_st_01:
        case FaultKind::cf_st_10:
        case FaultKind::cf_st_11: {
          const bool s = fault.kind == FaultKind::cf_st_10 ||
                         fault.kind == FaultKind::cf_st_11;
          const bool v = fault.kind == FaultKind::cf_st_01 ||
                         fault.kind == FaultKind::cf_st_11;
          rows_[vrow].pins.push_back(
              PinRec{vbit, fault.aggressor.row, fault.aggressor.bit, k, s, v,
                     fault.aggressor.row == vrow, false});
          // Entering state s also fires a disturb toward v.
          rows_[fault.aggressor.row].fires.push_back(
              FireRec{fault.aggressor.bit, vrow, vbit, k, /*trigger=*/s,
                      /*invert=*/false, /*forced=*/v, false});
          slab_.mark_write_exact(k, vrow, vbit);
          slab_.mark_read_exact(k, vrow, vbit);
          break;
        }
        case FaultKind::af_no_access:
        case FaultKind::af_wrong_row:
        case FaultKind::af_extra_row:
          ensure(false, "SlicedProbeBatch: unreachable address kind");
      }
    }
    for (std::uint32_t b = 0; b < bits_; ++b) {
      require(sof_in_col[b] == 0 || victims_in_col[b] == 1, [&] {
        return "SlicedProbeBatch: lane " + std::to_string(k) +
               " packs an SOF victim with another victim in column " +
               std::to_string(b);
      });
    }
  }
}

void SlicedProbeBatch::settle(DrfRec& rec, std::uint64_t* arena_row,
                              std::uint64_t now_ns) {
  const bool stored = lane_bit(arena_row[rec.bit], rec.lane);
  if (stored == rec.weak_one && now_ns >= rec.since_ns &&
      now_ns - rec.since_ns >= retention_ns_) {
    set_lane_bit(arena_row[rec.bit], rec.lane, !stored);
    rec.since_ns = now_ns;
  }
}

void SlicedProbeBatch::write_row(std::uint32_t row, const std::uint64_t* bcast,
                                 sram::WriteStyle style,
                                 std::uint64_t now_ns) {
  require_in_range(row < words_,
                   "SlicedProbeBatch::write_row: row out of range");
  RowRecords& recs = rows_[row];
  std::uint64_t* arena = slab_.row_mut(row);

  // Retention victims settle at every access of their row, before the
  // incoming value is considered (FaultSet::write_cell's settled old).
  for (DrfRec& rec : recs.drf) {
    settle(rec, arena, now_ns);
  }
  // Pre-broadcast captures: aggressor transitions compare old vs new, and
  // a same-row state pin whose aggressor commits later in the word
  // (higher bit, ascending commit order) must see the old value.
  for (FireRec& rec : recs.fires) {
    rec.old_value = lane_bit(arena[rec.abit], rec.lane);
  }
  for (PinRec& rec : recs.pins) {
    if (rec.same_row && rec.abit > rec.vbit) {
      rec.agg_old = lane_bit(arena[rec.abit], rec.lane);
    }
  }

  // The uniform word pulse: every clean slot takes the broadcast,
  // write-exact slots keep their value for the records below.
  slab_.write_row_masked(row, bcast);

  for (TfRec& rec : recs.tf) {
    const bool value = bcast[rec.bit] & 1;
    const bool old = lane_bit(arena[rec.bit], rec.lane);
    // tf_up refuses 0->1 (new = old AND data), tf_down refuses 1->0.
    set_lane_bit(arena[rec.bit], rec.lane,
                 rec.up ? (old && value) : (old || value));
  }
  for (DrfRec& rec : recs.drf) {
    const bool value = bcast[rec.bit] & 1;
    const bool old = lane_bit(arena[rec.bit], rec.lane);
    if (style == sram::WriteStyle::nwrc && old != value &&
        value == rec.weak_one) {
      continue;  // NWRC cannot flip the cell toward its weak state
    }
    set_lane_bit(arena[rec.bit], rec.lane, value);
    rec.since_ns = now_ns;  // every commit refreshes the retention clock
  }
  for (PinRec& rec : recs.pins) {
    const bool value = bcast[rec.vbit] & 1;
    const bool agg =
        rec.same_row
            ? (rec.abit < rec.vbit ? static_cast<bool>(bcast[rec.abit] & 1)
                                   : rec.agg_old)
            : lane_bit(slab_.column(rec.arow, rec.abit), rec.lane);
    set_lane_bit(arena[rec.vbit], rec.lane, agg == rec.s ? rec.v : value);
  }
  // Aggressor transition disturbs land after every commit of the word op —
  // FaultSet's end_word_op ordering.
  for (const FireRec& rec : recs.fires) {
    const bool new_value = bcast[rec.abit] & 1;
    if (new_value == rec.old_value || new_value != rec.trigger) {
      continue;
    }
    std::uint64_t* victim_row = slab_.row_mut(rec.vrow);
    const bool victim_old = lane_bit(victim_row[rec.vbit], rec.lane);
    set_lane_bit(victim_row[rec.vbit], rec.lane,
                 rec.invert ? !victim_old : rec.forced);
  }
}

void SlicedProbeBatch::read_row(std::uint32_t row,
                                const std::uint64_t* expect_bcast,
                                std::uint64_t now_ns,
                                std::vector<LaneBitMismatch>& out) {
  require_in_range(row < words_,
                   "SlicedProbeBatch::read_row: row out of range");
  out.clear();
  RowRecords& recs = rows_[row];
  std::uint64_t* arena = slab_.row_mut(row);

  for (DrfRec& rec : recs.drf) {
    settle(rec, arena, now_ns);
  }
  // SOF sense latches: a read of any other row latches the column's driven
  // value; a read of the victim row replays the latch (and leaves it
  // unchanged — the latch re-latches its own output).
  for (SofRec& rec : sofs_) {
    if (rec.row == row) {
      if (rec.latch != static_cast<bool>(expect_bcast[rec.bit] & 1)) {
        out.push_back({rec.lane, rec.bit});
      }
    } else {
      rec.latch = lane_bit(arena[rec.bit], rec.lane);
    }
  }
  // CFst victims: the pin applies at read time without touching storage.
  for (const PinRec& rec : recs.pins) {
    const bool agg = lane_bit(slab_.column(rec.arow, rec.abit), rec.lane);
    const bool stored = lane_bit(arena[rec.vbit], rec.lane);
    const bool value = agg == rec.s ? rec.v : stored;
    if (value != static_cast<bool>(expect_bcast[rec.vbit] & 1)) {
      out.push_back({rec.lane, rec.vbit});
    }
  }
  // Packed compare over every broadcast-visible slot (read-exact slots were
  // handled above); only flagged columns are demuxed.
  if (slab_.compare_columns_masked(row, expect_bcast, 0, bits_) == 0) {
    return;
  }
  for (std::uint32_t base = 0; base < bits_; base += 64) {
    std::uint64_t cols = slab_.mismatch_columns(row, expect_bcast, base);
    while (cols != 0) {
      const std::uint32_t bit =
          base + static_cast<std::uint32_t>(std::countr_zero(cols));
      cols &= cols - 1;
      std::uint64_t lanes_mask = (slab_.column(row, bit) ^ expect_bcast[bit]) &
                                 ~slab_.read_exact_mask(row, bit) &
                                 slab_.lane_mask();
      while (lanes_mask != 0) {
        out.push_back(
            {static_cast<std::uint32_t>(std::countr_zero(lanes_mask)), bit});
        lanes_mask &= lanes_mask - 1;
      }
    }
  }
}

}  // namespace fastdiag::faults
