// Differential tests for the instance-sliced kernel and the SIMD dispatch
// facade.
//
// The instance_sliced access kernel (up to 64 identical-geometry fault-free
// memories as bit-lanes of one packed InstanceSlab) must be observably
// indistinguishable from word_parallel and from the per_cell reference —
// record for record, cycle for cycle, counter for counter — for every group
// size around the 64-lane boundary, for wrap emulation, for the full defect
// corpus on the non-sliced lanes, and at every SIMD dispatch level this CPU
// can run (simd::force walks scalar -> avx2 -> avx512).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fastdiag.h"
#include "faults/composite_probe.h"

namespace fastdiag {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::AccessKernel;
using sram::CellCoord;
using sram::SramConfig;

SramConfig cfg(const std::string& name, std::uint32_t words,
               std::uint32_t bits) {
  SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = 4;
  return config;
}

CellCoord random_cell(const SramConfig& config, Rng& rng) {
  return {static_cast<std::uint32_t>(rng.uniform(config.words)),
          static_cast<std::uint32_t>(rng.uniform(config.bits))};
}

/// The full defect corpus of the kernel differential suite: cell, coupling
/// and address fault families, including the time- and latch-dependent kinds.
std::vector<FaultInstance> random_fault_mix(const SramConfig& config,
                                            std::size_t count, Rng& rng) {
  std::vector<FaultInstance> out;
  static const FaultKind cell_kinds[] = {
      FaultKind::sa0,     FaultKind::sa1, FaultKind::tf_up,
      FaultKind::tf_down, FaultKind::sof, FaultKind::drf0,
      FaultKind::drf1,
  };
  static const FaultKind coupling_kinds[] = {
      FaultKind::cf_in_up,    FaultKind::cf_in_down, FaultKind::cf_id_up0,
      FaultKind::cf_id_up1,   FaultKind::cf_id_down0,
      FaultKind::cf_id_down1, FaultKind::cf_st_00,   FaultKind::cf_st_01,
      FaultKind::cf_st_10,    FaultKind::cf_st_11,
  };
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.uniform(3)) {
      case 0:
        out.push_back(faults::make_cell_fault(
            cell_kinds[rng.uniform(std::size(cell_kinds))],
            random_cell(config, rng)));
        break;
      case 1: {
        const auto aggressor = random_cell(config, rng);
        auto victim = random_cell(config, rng);
        if (rng.bernoulli(0.5)) {
          victim.row = aggressor.row;
        }
        if (victim == aggressor) {
          victim.bit = (victim.bit + 1) % config.bits;
          if (victim == aggressor) {
            victim.row = (victim.row + 1) % config.words;
          }
        }
        out.push_back(faults::make_coupling_fault(
            coupling_kinds[rng.uniform(std::size(coupling_kinds))], aggressor,
            victim));
        break;
      }
      default: {
        const auto addr =
            static_cast<std::uint32_t>(rng.uniform(config.words));
        if (config.words < 2 || rng.bernoulli(0.34)) {
          out.push_back(
              faults::make_address_fault(FaultKind::af_no_access, addr));
          break;
        }
        std::uint32_t other =
            static_cast<std::uint32_t>(rng.uniform(config.words - 1));
        if (other >= addr) {
          ++other;
        }
        out.push_back(faults::make_address_fault(
            rng.bernoulli(0.5) ? FaultKind::af_wrong_row
                               : FaultKind::af_extra_row,
            addr, other));
        break;
      }
    }
  }
  return out;
}

// ---- dispatch-level sweep helpers -----------------------------------------

std::vector<simd::IsaLevel> available_levels() {
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::scalar};
  if (simd::detected_level() >= simd::IsaLevel::avx2) {
    levels.push_back(simd::IsaLevel::avx2);
  }
  if (simd::detected_level() >= simd::IsaLevel::avx512) {
    levels.push_back(simd::IsaLevel::avx512);
  }
  return levels;
}

/// Restores the pre-test dispatch level when a level sweep exits.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::active_level()) {}
  ~LevelGuard() { simd::force(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::IsaLevel saved_;
};

// ---- simd facade -----------------------------------------------------------

TEST(SimdDispatch, ParseAndNames) {
  EXPECT_EQ(simd::parse_isa("scalar"), simd::IsaLevel::scalar);
  EXPECT_EQ(simd::parse_isa("avx2"), simd::IsaLevel::avx2);
  EXPECT_EQ(simd::parse_isa("avx512"), simd::IsaLevel::avx512);
  EXPECT_FALSE(simd::parse_isa("sse9").has_value());
  for (const auto level : available_levels()) {
    EXPECT_EQ(simd::parse_isa(simd::isa_name(level)), level);
  }
}

TEST(SimdDispatch, ForceAboveDetectedIsRejected) {
  LevelGuard guard;
  if (simd::detected_level() < simd::IsaLevel::avx512) {
    EXPECT_FALSE(simd::force(simd::IsaLevel::avx512));
  }
  if (simd::detected_level() < simd::IsaLevel::avx2) {
    EXPECT_FALSE(simd::force(simd::IsaLevel::avx2));
  }
  // Every supported level must be selectable and visible via active_level().
  for (const auto level : available_levels()) {
    EXPECT_TRUE(simd::force(level));
    EXPECT_EQ(simd::active_level(), level);
    EXPECT_EQ(simd::dispatch().level, level);
  }
}

TEST(SimdDispatch, KernelsMatchScalarReferenceAtEveryLevel) {
  LevelGuard guard;
  Rng rng(404);
  for (const std::size_t n : {0ull, 1ull, 3ull, 4ull, 7ull, 8ull, 64ull,
                              130ull}) {
    std::vector<std::uint64_t> a(n), b(n), mask(n), fallback(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.next_u64();
      b[i] = rng.next_u64();
      mask[i] = rng.next_u64();
      fallback[i] = rng.next_u64();
    }
    // Plain-loop references, computed once.
    std::vector<std::uint64_t> xor_ref = a;
    std::vector<std::uint64_t> blend_ref = a;
    std::uint64_t diff_ref = 0;
    for (std::size_t i = 0; i < n; ++i) {
      xor_ref[i] ^= b[i];
      blend_ref[i] = (a[i] & mask[i]) | (fallback[i] & ~mask[i]);
      diff_ref |= a[i] ^ b[i];
    }
    const std::uint64_t lane_mask = rng.next_u64();
    for (const auto level : available_levels()) {
      ASSERT_TRUE(simd::force(level));
      const auto& ops = simd::dispatch();
      const std::string label =
          std::string(simd::isa_name(level)) + " n=" + std::to_string(n);

      std::vector<std::uint64_t> out(n, 0);
      ops.copy_limbs(out.data(), a.data(), n);
      EXPECT_EQ(out, a) << "copy " << label;

      out = a;
      ops.xor_limbs(out.data(), b.data(), n);
      EXPECT_EQ(out, xor_ref) << "xor " << label;

      EXPECT_EQ(ops.diff_or(a.data(), b.data(), n), diff_ref)
          << "diff_or " << label;
      EXPECT_EQ(ops.diff_or(a.data(), a.data(), n), 0u)
          << "diff_or self " << label;

      out = a;
      ops.blend_limbs(out.data(), mask.data(), fallback.data(), n);
      EXPECT_EQ(out, blend_ref) << "blend " << label;

      EXPECT_EQ(ops.lane_diff_or(a.data(), b.data(), lane_mask, n),
                diff_ref & lane_mask)
          << "lane_diff_or " << label;

      // masked_lane_diff_or: like lane_diff_or but with a per-limb skip
      // mask (the read-exact bitmap of the probe slabs).
      std::uint64_t masked_ref = 0;
      for (std::size_t i = 0; i < n; ++i) {
        masked_ref |= (a[i] ^ b[i]) & ~mask[i];
      }
      masked_ref &= lane_mask;
      EXPECT_EQ(ops.masked_lane_diff_or(a.data(), b.data(), mask.data(),
                                        lane_mask, n),
                masked_ref)
          << "masked_lane_diff_or " << label;
      EXPECT_EQ(ops.masked_lane_diff_or(a.data(), a.data(), mask.data(),
                                        lane_mask, n),
                0u)
          << "masked_lane_diff_or self " << label;

      // diff_column_mask: per-limb (not folded) disagreement flags for a
      // chunk of <= 64 columns.
      const std::size_t chunk = std::min<std::size_t>(n, 64);
      std::uint64_t cols_ref = 0;
      for (std::size_t i = 0; i < chunk; ++i) {
        if (((a[i] ^ b[i]) & lane_mask) != 0) {
          cols_ref |= std::uint64_t{1} << i;
        }
      }
      EXPECT_EQ(ops.diff_column_mask(a.data(), b.data(), lane_mask, chunk),
                cols_ref)
          << "diff_column_mask " << label;
      EXPECT_EQ(ops.diff_column_mask(a.data(), a.data(), lane_mask, chunk),
                0u)
          << "diff_column_mask self " << label;
    }
  }
}

TEST(SimdDispatch, ExpandBitsMatchesScalarAtEveryLevel) {
  LevelGuard guard;
  Rng rng(405);
  for (const std::size_t n_bits : {1ull, 21ull, 63ull, 64ull, 65ull, 100ull,
                                   130ull}) {
    std::vector<std::uint64_t> packed((n_bits + 63) / 64);
    for (auto& limb : packed) {
      limb = rng.next_u64();
    }
    std::vector<std::uint64_t> reference(n_bits);
    for (std::size_t j = 0; j < n_bits; ++j) {
      reference[j] =
          ((packed[j >> 6] >> (j & 63)) & 1u) != 0 ? ~std::uint64_t{0} : 0;
    }
    for (const auto level : available_levels()) {
      ASSERT_TRUE(simd::force(level));
      std::vector<std::uint64_t> masks(n_bits, 0x5555);
      simd::dispatch().expand_bits(packed.data(), masks.data(), n_bits);
      EXPECT_EQ(masks, reference)
          << simd::isa_name(level) << " n_bits=" << n_bits;
    }
  }
}

TEST(SimdDispatch, TransposeMatchesNaiveAndIsAnInvolution) {
  Rng rng(406);
  std::uint64_t a[64];
  for (auto& row : a) {
    row = rng.next_u64();
  }
  std::uint64_t original[64];
  std::uint64_t naive[64] = {};
  for (int r = 0; r < 64; ++r) {
    original[r] = a[r];
    for (int c = 0; c < 64; ++c) {
      if ((a[r] >> c) & 1u) {
        naive[c] |= std::uint64_t{1} << r;
      }
    }
  }
  simd::transpose_64x64(a);
  for (int r = 0; r < 64; ++r) {
    EXPECT_EQ(a[r], naive[r]) << "row " << r;
  }
  simd::transpose_64x64(a);
  for (int r = 0; r < 64; ++r) {
    EXPECT_EQ(a[r], original[r]) << "involution row " << r;
  }
}

// ---- InstanceSlab ----------------------------------------------------------

TEST(InstanceSlab, GatherScatterRoundTripAndColumnDemux) {
  LevelGuard guard;
  Rng rng(500);
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    for (const std::size_t lane_count : {1ull, 5ull, 64ull}) {
      const auto config = cfg("slab", 6, 70);
      std::vector<std::unique_ptr<sram::Sram>> memories;
      std::vector<sram::Sram*> lanes;
      for (std::size_t k = 0; k < lane_count; ++k) {
        memories.push_back(std::make_unique<sram::Sram>(config));
        for (int pokes = 0; pokes < 40; ++pokes) {
          memories.back()->poke(random_cell(config, rng),
                                rng.bernoulli(0.5));
        }
        lanes.push_back(memories.back().get());
      }
      sram::InstanceSlab slab(lanes);
      slab.gather();
      // column(row, bit) demuxes exactly lane k's cell (row, bit).
      for (std::uint32_t row = 0; row < config.words; ++row) {
        for (std::uint32_t bit = 0; bit < config.bits; ++bit) {
          const std::uint64_t column = slab.column(row, bit);
          for (std::size_t k = 0; k < lane_count; ++k) {
            EXPECT_EQ(((column >> k) & 1u) != 0,
                      memories[k]->peek({row, bit}))
                << "lane " << k << " row " << row << " bit " << bit;
          }
          EXPECT_EQ(column & ~slab.lane_mask(), 0u)
              << "unregistered lane bits must stay zero";
        }
      }
      // scatter() restores every lane bit for bit.
      std::vector<std::string> before;
      for (const auto& memory : memories) {
        before.push_back(memory->read(0).to_string());
      }
      slab.scatter();
      for (std::size_t k = 0; k < lane_count; ++k) {
        EXPECT_EQ(memories[k]->read(0).to_string(), before[k]);
        for (std::uint32_t row = 0; row < config.words; ++row) {
          for (std::uint32_t bit = 0; bit < config.bits; ++bit) {
            const std::uint64_t column = slab.column(row, bit);
            EXPECT_EQ(memories[k]->peek({row, bit}),
                      ((column >> k) & 1u) != 0);
          }
        }
      }
    }
  }
}

TEST(InstanceSlab, WriteRowAndCompareColumns) {
  LevelGuard guard;
  const auto config = cfg("wr", 4, 66);
  std::vector<std::unique_ptr<sram::Sram>> memories;
  std::vector<sram::Sram*> lanes;
  for (std::size_t k = 0; k < 3; ++k) {
    memories.push_back(std::make_unique<sram::Sram>(config));
    lanes.push_back(memories.back().get());
  }
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    sram::InstanceSlab slab(lanes);
    slab.gather();

    BitVector word(config.bits);
    word.set(0, true);
    word.set(65, true);
    std::vector<std::uint64_t> bcast(config.bits);
    simd::dispatch().expand_bits(word.word_data(), bcast.data(), config.bits);
    slab.write_row(2, bcast.data());
    EXPECT_EQ(slab.compare_columns(2, bcast.data(), 0, config.bits), 0u);

    // Poke lane 1's bit 65 through the arena: flip exactly one lane bit.
    std::vector<std::uint64_t> expect = bcast;
    expect[65] ^= std::uint64_t{1} << 1;
    EXPECT_EQ(slab.compare_columns(2, expect.data(), 0, config.bits),
              std::uint64_t{1} << 1);
    EXPECT_EQ(slab.compare_columns(2, expect.data(), 0, 65), 0u)
        << "mismatch outside the compared column range must not register";
    slab.scatter();
    EXPECT_TRUE(memories[0]->peek({2, 0}));
    EXPECT_TRUE(memories[1]->peek({2, 65}));
    EXPECT_FALSE(memories[2]->peek({2, 33}));
  }
}

TEST(InstanceSlab, RejectsUnsliceableAndMismatchedLanes) {
  const auto config = cfg("bad", 4, 9);
  sram::Sram clean(config);
  sram::Sram faulty(config,
                    std::make_unique<faults::FaultSet>(
                        std::vector<FaultInstance>{faults::make_cell_fault(
                            FaultKind::sa0, CellCoord{1, 2})}));
  EXPECT_FALSE(faulty.sliceable());
  EXPECT_THROW(sram::InstanceSlab({&clean, &faulty}), std::exception);
  sram::Sram other(cfg("other", 4, 10));
  EXPECT_THROW(sram::InstanceSlab({&clean, &other}), std::exception);
  EXPECT_THROW(sram::InstanceSlab(std::vector<sram::Sram*>{}),
               std::exception);
}

// ---- InstanceSlab exactness bitmaps (probe-slab support) -------------------

TEST(InstanceSlab, ExactnessBitmapsMaskWritesAndCompares) {
  LevelGuard guard;
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    sram::InstanceSlab slab(/*rows=*/3, /*bits=*/70, /*lane_count=*/5);
    EXPECT_EQ(slab.lane_count(), 5u);
    EXPECT_EQ(slab.lane_mask(), 0x1Fu);
    // Standalone slabs have no lane memories to gather from / scatter to.
    EXPECT_THROW(slab.gather(), std::exception);
    EXPECT_THROW(slab.scatter(), std::exception);

    // Seed lane 3's cell (1, 66) and pin it write-exact; the broadcast
    // write must preserve exactly that slot and overwrite every other.
    slab.row_mut(1)[66] |= std::uint64_t{1} << 3;
    slab.mark_write_exact(3, 1, 66);
    EXPECT_TRUE(slab.row_has_write_exact(1));
    EXPECT_FALSE(slab.row_has_write_exact(0));

    std::vector<std::uint64_t> zeros(70, 0);
    std::vector<std::uint64_t> ones(70, ~std::uint64_t{0});
    slab.write_row_masked(1, zeros.data());
    EXPECT_EQ(slab.column(1, 66), std::uint64_t{1} << 3)
        << "write-exact slot must survive the broadcast";
    EXPECT_EQ(slab.column(1, 65), 0u);
    slab.write_row_masked(0, ones.data());
    EXPECT_EQ(slab.column(0, 7) & slab.lane_mask(), 0x1Fu)
        << "clean rows take the plain copy";

    // The packed compare sees the preserved slot as a mismatch against the
    // all-zero expectation — unless the slot is also marked read-exact.
    EXPECT_EQ(slab.compare_columns_masked(1, zeros.data(), 0, 70),
              std::uint64_t{1} << 3);
    EXPECT_EQ(slab.mismatch_columns(1, zeros.data(), 64),
              std::uint64_t{1} << (66 - 64));
    EXPECT_EQ(slab.mismatch_columns(1, zeros.data(), 0), 0u);
    slab.mark_read_exact(3, 1, 66);
    EXPECT_TRUE(slab.row_has_read_exact(1));
    EXPECT_EQ(slab.read_exact_mask(1, 66), std::uint64_t{1} << 3);
    EXPECT_EQ(slab.compare_columns_masked(1, zeros.data(), 0, 70), 0u)
        << "read-exact slots never contribute a packed mismatch";
    // The unmasked compare and the raw column demux stay oblivious: the
    // probe-batch read path subtracts the read-exact mask per column.
    EXPECT_EQ(slab.compare_columns(1, zeros.data(), 0, 70),
              std::uint64_t{1} << 3);
  }
}

// ---- MarchRunner::run_group_per_cell vs single-fault probes ----------------

/// Deterministic candidate list for probe lane @p i against @p config:
/// cycles through every packable fault kind, alternates same-word and
/// distinct-row aggressors, and gives every third lane a second disjoint
/// candidate.  Geometry must have >= 4 words and >= 5 bits so the cells
/// stay pairwise disjoint (the SlicedProbeBatch packing contract).
std::vector<FaultInstance> probe_lane_candidates(std::size_t i,
                                                 const SramConfig& config) {
  static const FaultKind kinds[] = {
      FaultKind::sa0,        FaultKind::sa1,        FaultKind::tf_up,
      FaultKind::tf_down,    FaultKind::sof,        FaultKind::drf0,
      FaultKind::drf1,       FaultKind::cf_in_up,   FaultKind::cf_in_down,
      FaultKind::cf_id_up0,  FaultKind::cf_id_up1,  FaultKind::cf_id_down0,
      FaultKind::cf_id_down1, FaultKind::cf_st_00,  FaultKind::cf_st_01,
      FaultKind::cf_st_10,   FaultKind::cf_st_11,
  };
  const auto make = [&](std::size_t kind_index, std::uint32_t row,
                        std::uint32_t bit, bool same_row) {
    const auto kind = kinds[kind_index % std::size(kinds)];
    const CellCoord victim{row % config.words, bit % config.bits};
    if (!faults::needs_aggressor(kind)) {
      return faults::make_cell_fault(kind, victim);
    }
    const CellCoord aggressor{
        same_row ? victim.row : (victim.row + 1) % config.words,
        (victim.bit + 1) % config.bits};
    return faults::make_coupling_fault(kind, aggressor, victim);
  };
  std::vector<FaultInstance> lane;
  const auto row = static_cast<std::uint32_t>(i);
  const auto bit = static_cast<std::uint32_t>(i * 3);
  lane.push_back(make(i, row, bit, i % 2 == 0));
  if (i % 3 == 0) {
    lane.push_back(make(i + 7, row + 2, bit + 3, i % 2 == 1));
  }
  return lane;
}

using CellReads = std::map<CellCoord, std::vector<march::ReadEvent>>;

/// The oracle for one probe lane: each candidate replayed alone in a plain
/// memory holding FaultSet{candidate} (the per_candidate dictionary probe),
/// and the per-cell maps merged.  Packed candidates own disjoint cells, so
/// their failing cells must be disjoint too; a collision fails the test.
CellReads merged_single_fault_probes(const march::MarchRunner& runner,
                                     const SramConfig& probe_config,
                                     const std::vector<FaultInstance>& lane,
                                     const march::MarchTest& test,
                                     std::uint32_t sweep = 0) {
  CellReads merged;
  for (const auto& fault : lane) {
    sram::Sram memory(probe_config,
                      std::make_unique<faults::FaultSet>(
                          std::vector<FaultInstance>{fault}));
    for (auto& [cell, reads] : runner.run_per_cell(memory, test, sweep)) {
      const bool fresh = merged.emplace(cell, std::move(reads)).second;
      EXPECT_TRUE(fresh) << "candidates' failing cells overlap at ("
                         << cell.row << "," << cell.bit << ")";
    }
  }
  return merged;
}

TEST(RunGroupPerCell, MatchesPerProbeRunAcrossSizesAndLevels) {
  LevelGuard guard;
  auto probe_config = cfg("probe", 5, 7);
  probe_config.spare_rows = 0;
  const auto test = march::march_cw_nwrtm(probe_config.bits);
  const march::MarchRunner runner;

  for (const std::size_t count : {1ull, 5ull, 63ull, 64ull, 65ull}) {
    std::vector<std::vector<FaultInstance>> lanes;
    for (std::size_t i = 0; i < count; ++i) {
      lanes.push_back(probe_lane_candidates(i, probe_config));
    }
    std::vector<CellReads> expected;
    for (const auto& lane : lanes) {
      expected.push_back(
          merged_single_fault_probes(runner, probe_config, lane, test));
    }
    for (const auto level : available_levels()) {
      ASSERT_TRUE(simd::force(level));
      const auto results =
          runner.run_group_per_cell(probe_config, lanes, test);
      ASSERT_EQ(results.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_TRUE(results[i] == expected[i])
            << simd::isa_name(level) << " count=" << count << " lane " << i
            << " (" << results[i].size() << " vs " << expected[i].size()
            << " failing cells)";
      }
    }
  }
}

TEST(RunGroupPerCell, WrapEmulationMatchesPerProbeRun) {
  LevelGuard guard;
  auto probe_config = cfg("probe", 5, 7);
  probe_config.spare_rows = 0;
  const auto test = march::march_cw_nwrtm(probe_config.bits);
  const march::MarchRunner runner;
  // global_words above the capacity: revisit expectations come from the
  // golden shadow, exercising the wrap demux of the probe batches.
  const std::uint32_t sweep = 12;

  std::vector<std::vector<FaultInstance>> lanes;
  for (std::size_t i = 0; i < 21; ++i) {
    lanes.push_back(probe_lane_candidates(i, probe_config));
  }
  std::vector<CellReads> expected;
  for (const auto& lane : lanes) {
    expected.push_back(
        merged_single_fault_probes(runner, probe_config, lane, test, sweep));
  }
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    const auto results =
        runner.run_group_per_cell(probe_config, lanes, test, sweep);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_TRUE(results[i] == expected[i])
          << simd::isa_name(level) << " lane " << i;
    }
  }
}

// ---- SlicedProbeBatch packing contract --------------------------------------

/// Builds a batch of the given lanes against a 5x7 probe geometry.
void make_batch(const std::vector<std::vector<FaultInstance>>& lanes) {
  auto probe_config = cfg("probe", 5, 7);
  probe_config.spare_rows = 0;
  const faults::SlicedProbeBatch batch(probe_config, lanes.data(),
                                       lanes.size());
  EXPECT_EQ(batch.lane_count(), lanes.size());
}

TEST(SlicedProbeBatch, RefusesOverlappingCandidateCells) {
  const auto sa0 = faults::make_cell_fault(FaultKind::sa0, CellCoord{1, 2});
  const auto tf = faults::make_cell_fault(FaultKind::tf_up, CellCoord{1, 3});
  EXPECT_NO_THROW(make_batch({{sa0, tf}}));
  // Two victims on one cell.
  EXPECT_THROW(
      make_batch({{sa0, faults::make_cell_fault(FaultKind::sa1, {1, 2})}}),
      std::logic_error);
  // A coupling aggressor on another candidate's victim, in a later lane.
  EXPECT_THROW(make_batch({{sa0},
                           {tf, faults::make_coupling_fault(
                                    FaultKind::cf_in_up, CellCoord{1, 3},
                                    CellCoord{4, 0})}}),
               std::logic_error);
  // The same cells in different lanes do not interact.
  EXPECT_NO_THROW(make_batch({{sa0}, {faults::make_cell_fault(
                                         FaultKind::sa1, CellCoord{1, 2})}}));
}

TEST(SlicedProbeBatch, RefusesAddressFaults) {
  EXPECT_THROW(make_batch({{faults::make_address_fault(
                   FaultKind::af_no_access, 2)}}),
               std::logic_error);
  EXPECT_THROW(make_batch({{}, {faults::make_address_fault(
                                   FaultKind::af_wrong_row, 1, 3)}}),
               std::logic_error);
}

TEST(SlicedProbeBatch, RefusesSofVictimSharingItsColumn) {
  const auto sof = faults::make_cell_fault(FaultKind::sof, CellCoord{0, 4});
  // Another victim in column 4 would disturb the SOF's sense latch.
  EXPECT_THROW(
      make_batch({{sof, faults::make_cell_fault(FaultKind::sa1, {3, 4})}}),
      std::logic_error);
  EXPECT_THROW(make_batch({{faults::make_coupling_fault(
                                FaultKind::cf_id_up1, CellCoord{2, 1},
                                CellCoord{2, 4}),
                            sof}}),
               std::logic_error);
  // A healthy aggressor cell in the column always reads its nominal value.
  EXPECT_NO_THROW(make_batch({{sof, faults::make_coupling_fault(
                                        FaultKind::cf_in_up, CellCoord{3, 4},
                                        CellCoord{3, 5})}}));
}

TEST(SlicedProbeBatch, RefusesZeroAndMoreThan64Lanes) {
  EXPECT_THROW(make_batch({}), std::logic_error);
  EXPECT_NO_THROW(make_batch(std::vector<std::vector<FaultInstance>>(64)));
  EXPECT_THROW(make_batch(std::vector<std::vector<FaultInstance>>(65)),
               std::logic_error);
}

// ---- FastScheme / engine: instance_sliced vs the reference kernels --------

/// A SoC whose fleet mixes clean identical-geometry lanes (sliceable), a few
/// faulty lanes of the same geometry, and one odd-geometry memory.
bisd::SocUnderTest make_sliced_soc(std::size_t clean_count,
                                   AccessKernel kernel, std::uint64_t seed,
                                   bool idle_everywhere = true,
                                   bool with_odd = true) {
  Rng rng(seed);
  bisd::SocUnderTest soc;
  for (std::size_t i = 0; i < clean_count; ++i) {
    auto config = cfg("lane" + std::to_string(i), 8, 21);
    std::vector<FaultInstance> truth;
    if (i % 7 == 3) {
      // Heterogeneous defect rates: some lanes carry 1..4 faults, the rest
      // are clean — only the clean ones slice.
      truth = random_fault_mix(config, 1 + rng.uniform(4), rng);
    }
    soc.add_memory(config, std::move(truth));
  }
  if (with_odd) {
    auto odd = cfg("odd", 12, 33);
    odd.has_idle_mode = idle_everywhere;
    soc.add_memory(odd, random_fault_mix(odd, 3, rng));
  }
  soc.set_access_kernel(kernel);
  return soc;
}

void expect_scheme_identical(bisd::SocUnderTest& sliced_soc,
                             bisd::SocUnderTest& ref_soc,
                             const std::string& label,
                             const bisd::FastSchemeOptions& options = {}) {
  bisd::FastScheme sliced_scheme(options);
  bisd::FastScheme ref_scheme(options);
  const auto sliced = sliced_scheme.diagnose(sliced_soc);
  const auto reference = ref_scheme.diagnose(ref_soc);
  EXPECT_EQ(sliced.time.cycles, reference.time.cycles) << label;
  EXPECT_EQ(sliced.log.to_csv(), reference.log.to_csv()) << label;
  ASSERT_EQ(sliced_soc.memory_count(), ref_soc.memory_count()) << label;
  for (std::size_t i = 0; i < sliced_soc.memory_count(); ++i) {
    auto& a = sliced_soc.memory(i);
    auto& b = ref_soc.memory(i);
    EXPECT_EQ(a.now_ns(), b.now_ns()) << label << " memory " << i;
    EXPECT_EQ(a.counters().reads, b.counters().reads)
        << label << " memory " << i;
    EXPECT_EQ(a.counters().writes, b.counters().writes)
        << label << " memory " << i;
    EXPECT_EQ(a.counters().nwrc_writes, b.counters().nwrc_writes)
        << label << " memory " << i;
    for (std::uint32_t row = 0; row < a.words(); ++row) {
      ASSERT_EQ(a.read(row), b.read(row))
          << label << " memory " << i << " row " << row;
    }
  }
}

TEST(InstanceSliced, FastSchemeMatchesWordParallelAcrossGroupSizes) {
  LevelGuard guard;
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    for (const std::size_t count : {1ull, 63ull, 64ull, 65ull}) {
      auto sliced_soc =
          make_sliced_soc(count, AccessKernel::instance_sliced, 42);
      auto ref_soc = make_sliced_soc(count, AccessKernel::word_parallel, 42);
      expect_scheme_identical(sliced_soc, ref_soc,
                              std::string(simd::isa_name(level)) +
                                  " count=" + std::to_string(count));
    }
  }
}

TEST(InstanceSliced, FastSchemeMatchesPerCellReference) {
  LevelGuard guard;
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    auto sliced_soc = make_sliced_soc(17, AccessKernel::instance_sliced, 9);
    auto ref_soc = make_sliced_soc(17, AccessKernel::per_cell, 9);
    expect_scheme_identical(sliced_soc, ref_soc, simd::isa_name(level));
  }
}

TEST(InstanceSliced, PerClockSerializationPathMatchesReference) {
  // One memory without idle mode forces the per-clock serialization loop
  // while the clean lanes still advance through the packed slab.
  LevelGuard guard;
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    auto sliced_soc = make_sliced_soc(12, AccessKernel::instance_sliced, 21,
                                      /*idle_everywhere=*/false);
    auto ref_soc = make_sliced_soc(12, AccessKernel::word_parallel, 21,
                                   /*idle_everywhere=*/false);
    expect_scheme_identical(sliced_soc, ref_soc, simd::isa_name(level));
  }
}

TEST(InstanceSliced, RetentionPausesMatchWordParallel) {
  // The sliced path defers the clean lanes' clock (deferred_ns) and lands
  // it once at the end, while the faulty lanes advance per tick.  A test
  // whose `once` elements carry retention pauses must still leave every
  // memory's clock, counters and log exactly as word_parallel does; DRF
  // decay is evaluated against that clock, so a skewed pause would show up
  // as divergent records.
  const auto make_soc = [](AccessKernel kernel) {
    bisd::SocUnderTest soc;
    for (std::size_t i = 0; i < 10; ++i) {
      std::vector<FaultInstance> truth;
      if (i == 2) {
        truth.push_back(faults::make_cell_fault(FaultKind::drf0, {3, 1}));
      }
      if (i == 7) {
        truth.push_back(faults::make_cell_fault(FaultKind::drf1, {5, 20}));
      }
      soc.add_memory(cfg("lane" + std::to_string(i), 8, 21), truth);
    }
    soc.set_access_kernel(kernel);
    return soc;
  };
  bisd::FastSchemeOptions options;
  options.test = march::with_retention_pause(march::march_c_minus(21),
                                             100'000'000);

  LevelGuard guard;
  for (const auto level : available_levels()) {
    ASSERT_TRUE(simd::force(level));
    auto sliced_soc = make_soc(AccessKernel::instance_sliced);
    auto ref_soc = make_soc(AccessKernel::word_parallel);
    const auto groups = sliced_soc.slice_groups();
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].members.size(), 8u) << "the clean lanes slice";
    expect_scheme_identical(sliced_soc, ref_soc, simd::isa_name(level),
                            options);

    // The pause is what exposes the DRF lanes at all, and only them.
    bisd::FastScheme scheme(options);
    auto soc = make_soc(AccessKernel::instance_sliced);
    const auto result = scheme.diagnose(soc);
    std::vector<std::size_t> flagged;
    for (const auto& record : result.log.records()) {
      flagged.push_back(record.memory_index);
    }
    std::sort(flagged.begin(), flagged.end());
    flagged.erase(std::unique(flagged.begin(), flagged.end()), flagged.end());
    EXPECT_EQ(flagged, (std::vector<std::size_t>{2, 7}));
  }
}

TEST(InstanceSliced, SliceGroupsChunkAt64InIndexOrder) {
  bisd::SocUnderTest soc;
  for (int i = 0; i < 65; ++i) {
    soc.add_memory(cfg("c" + std::to_string(i), 8, 21));
  }
  soc.add_memory(cfg("odd", 12, 33));       // different geometry: own group
  auto no_idle = cfg("busy", 8, 21);
  no_idle.has_idle_mode = false;
  soc.add_memory(no_idle);                  // idle-less: never grouped
  soc.set_access_kernel(AccessKernel::instance_sliced);

  const auto groups = soc.slice_groups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members.size(), 64u);  // the 65th opens a new group
  EXPECT_EQ(groups[1].members.size(), 1u);
  EXPECT_EQ(groups[2].members.size(), 1u);
  EXPECT_EQ(groups[2].members.front(), 65u);  // the odd-geometry memory
  for (const auto& group : groups) {
    EXPECT_TRUE(std::is_sorted(group.members.begin(), group.members.end()));
    for (const auto m : group.members) {
      EXPECT_TRUE(soc.memory(m).sliceable());
      EXPECT_NE(m, 66u) << "idle-less memories must stay ungrouped";
    }
  }
}

TEST(InstanceSliced, BaselineSchemeTreatsSlicedAsWordParallel) {
  // BaselineScheme has no group path: under instance_sliced every memory
  // simply runs its word-parallel port, bit-identical to word_parallel.
  auto sliced_soc = make_sliced_soc(6, AccessKernel::instance_sliced, 8);
  auto ref_soc = make_sliced_soc(6, AccessKernel::word_parallel, 8);
  bisd::BaselineScheme sliced_scheme;
  bisd::BaselineScheme ref_scheme;
  const auto sliced = sliced_scheme.diagnose(sliced_soc);
  const auto reference = ref_scheme.diagnose(ref_soc);
  EXPECT_EQ(sliced.time.cycles, reference.time.cycles);
  EXPECT_EQ(sliced.log.to_csv(), reference.log.to_csv());
}

TEST(InstanceSliced, EngineSpecSelectionIsBitIdentical) {
  const auto make_spec = [](AccessKernel kernel) {
    auto builder = core::SessionSpec::builder();
    for (int i = 0; i < 6; ++i) {
      builder.add_sram(cfg("f" + std::to_string(i), 16, 24));
    }
    return builder.add_sram(cfg("wide", 12, 40))
        .defect_rate(0.004)
        .seed(13)
        .access_kernel(kernel)
        .build();
  };
  auto sliced_spec = make_spec(AccessKernel::instance_sliced);
  auto ref_spec = make_spec(AccessKernel::word_parallel);
  ASSERT_TRUE(sliced_spec.has_value());
  ASSERT_TRUE(ref_spec.has_value());

  const core::DiagnosisEngine engine({.workers = 1});
  const auto sliced = engine.run_batch({sliced_spec.value()});
  const auto reference = engine.run_batch({ref_spec.value()});
  ASSERT_EQ(sliced.run_count(), 1u);
  ASSERT_EQ(reference.run_count(), 1u);
  EXPECT_EQ(sliced.runs[0].result.log.to_csv(),
            reference.runs[0].result.log.to_csv());
  EXPECT_EQ(sliced.runs[0].result.time.cycles,
            reference.runs[0].result.time.cycles);
  EXPECT_EQ(sliced.runs[0].injected_faults, reference.runs[0].injected_faults);
}

}  // namespace
}  // namespace fastdiag
