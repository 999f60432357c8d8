#include "amr/gridding_algorithm.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "pdat/cuda/cuda_data.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"

namespace ramr::amr {

using hier::GlobalPatch;
using hier::PatchHierarchy;
using hier::PatchLevel;
using mesh::Box;
using mesh::BoxList;
using mesh::IntVector;

namespace {

/// The device that a patch's (GPU-resident) data lives on.
vgpu::Device& device_of(hier::Patch& patch) {
  auto* cd = dynamic_cast<pdat::cuda::CudaData*>(&patch.data(0));
  RAMR_REQUIRE(cd != nullptr, "tagging requires device-resident patch data");
  return cd->device();
}

}  // namespace

void GriddingAlgorithm::charge_host_work(std::int64_t cells, double passes) {
  if (host_clock_ != nullptr) {
    // Sustained host rate for bitmap sweeps / signature sums on one core
    // (the clustering in SAMRAI is not GPU-accelerated).
    constexpr double kHostCellsPerSecond = 2.0e9;
    host_clock_->charge(passes * static_cast<double>(cells) /
                        kHostCellsPerSecond);
  }
}

TagBitmap GriddingAlgorithm::collect_tags(PatchHierarchy& hierarchy,
                                          int level_number, double time) {
  PatchLevel& level = hierarchy.level(level_number);
  TagBitmap bitmap(level.domain_box());

  // Local tagging: device kernel per patch, then the paper's compressed
  // transfer — a per-patch "any tagged" flag, and bits instead of ints.
  // All of it is regrid-path device work: attribute the launches to the
  // kRegrid tag so benches can split clustering from the hydro stages.
  pdat::MessageStream local;
  for (const auto& patch : level.local_patches()) {
    vgpu::LaunchTagScope regrid_tag(&device_of(*patch),
                                    vgpu::LaunchTag::kRegrid);
    DeviceTagData tags(device_of(*patch), patch->box());
    strategy_->tag_cells(*patch, level, hierarchy.geometry(), tags, time);
    if (!tags.any_tagged()) {
      continue;  // nothing to transfer for this patch
    }
    const std::vector<std::uint32_t> words = tags.download_compressed();
    local.write<int>(patch->global_id());
    local.write<std::uint64_t>(words.size());
    local.write_bytes(words.data(), words.size() * sizeof(std::uint32_t));
  }

  // Merge, exchanging compressed tags across ranks when distributed.
  std::unordered_map<int, const Box*> box_of;
  box_of.reserve(level.global_patches().size());
  for (const GlobalPatch& gp : level.global_patches()) {
    box_of.emplace(gp.global_id, &gp.box);
  }
  const auto merge_stream = [&](pdat::MessageStream& ms) {
    while (!ms.fully_consumed()) {
      const int gid = ms.read<int>();
      const auto nwords = ms.read<std::uint64_t>();
      std::vector<std::uint32_t> words(nwords);
      ms.read_bytes(words.data(), nwords * sizeof(std::uint32_t));
      const auto it = box_of.find(gid);
      RAMR_REQUIRE(it != box_of.end(),
                   "tag stream references unknown patch " << gid);
      bitmap.merge_compressed(*it->second, words);
    }
  };

  if (ctx_->is_serial()) {
    merge_stream(local);
  } else {
    const auto all = ctx_->comm->allgather(local.data(), local.size());
    for (const auto& bytes : all) {
      pdat::MessageStream ms(bytes);
      merge_stream(ms);
    }
  }
  return bitmap;
}

std::vector<Box> GriddingAlgorithm::build_candidate_boxes(
    PatchHierarchy& hierarchy, int tag_level, double time) {
  PatchLevel& level = hierarchy.level(tag_level);
  TagBitmap tags = collect_tags(hierarchy, tag_level, time);
  stats_.cells_tagged += tags.count_tags();

  // Keep cells under the already-rebuilt level tag_level+2 flagged so the
  // new level tag_level+1 still covers it (proper nesting from above).
  if (hierarchy.has_level(tag_level + 2)) {
    const PatchLevel& upper = hierarchy.level(tag_level + 2);
    const IntVector r2 = upper.ratio_to_coarser() * level.ratio_to_coarser()
                             ;  // to tag_level index space
    for (const Box& b : upper.boxes().boxes()) {
      const Box cb = b.coarsen(IntVector(r2.i, r2.j)).grow(params_.nesting_buffer);
      tags.set_box(cb.intersect(tags.region()));
    }
  }

  tags.buffer(params_.tag_buffer);
  if (tags.count_tags() == 0) {
    return {};
  }
  // Host cost: tag merge + buffer sweep + count (~2 full-bitmap passes;
  // the buffer only expands around the small tagged fraction).
  charge_host_work(tags.region().size(), 2.0);

  // Cluster on the tag level.
  std::vector<Box> clustered =
      berger_rigoutsos(tags, level.domain_box(), params_.cluster);
  // Host cost: signature computation revisits the tagged bounding boxes
  // during recursion.
  charge_host_work(tags.region().size(), 1.5);

  // Proper nesting inside the tag level: stay nesting_buffer cells away
  // from the tag level's own coarse-fine boundaries (the physical domain
  // boundary is exempt).
  BoxList allowed = level.boxes();
  BoxList complement(level.domain_box().grow(params_.nesting_buffer));
  complement.remove_intersections(allowed);
  BoxList nested_allowed(level.domain_box());
  for (const Box& c : complement.boxes()) {
    nested_allowed.remove_intersections(c.grow(params_.nesting_buffer));
  }

  BoxList candidates;
  for (const Box& b : clustered) {
    BoxList piece(b);
    piece.intersect(nested_allowed);
    piece.coalesce();
    for (const Box& p : piece.boxes()) {
      candidates.push_back(p);
    }
  }

  // Refine to the new level's index space.
  std::vector<Box> fine_boxes;
  fine_boxes.reserve(candidates.count());
  for (const Box& b : candidates.boxes()) {
    fine_boxes.push_back(b.refine(hierarchy.ratio()));
  }
  return fine_boxes;
}

std::shared_ptr<PatchLevel> GriddingAlgorithm::make_level(
    PatchHierarchy& hierarchy, int level_number,
    const std::vector<Box>& boxes) {
  std::vector<GlobalPatch> balanced =
      balance_boxes(boxes, hierarchy.world_size(), params_.balance);
  assign_devices(balanced, hierarchy.my_rank(), params_.balance,
                 measured_costs_.empty() ? nullptr : &measured_costs_);
  stats_.imbalance_history.push_back(
      load_imbalance(balanced, hierarchy.world_size()));
  const IntVector ratio_to_coarser =
      level_number == 0 ? IntVector(1, 1) : hierarchy.ratio();
  auto level = std::make_shared<PatchLevel>(
      level_number, ratio_to_coarser, hierarchy.ratio_to_zero(level_number),
      balanced, hierarchy.my_rank(), hierarchy.geometry());
  level->allocate_data(hierarchy.variables(), topology_);
  ++stats_.levels_built;
  return level;
}

void GriddingAlgorithm::make_initial_hierarchy(PatchHierarchy& hierarchy,
                                               double time) {
  RAMR_REQUIRE(hierarchy.num_levels() == 0, "hierarchy already initialised");
  ++stats_.initial_builds;

  // Level 0: the base grid chopped into patches and balanced.
  const std::vector<Box> base = {hierarchy.geometry().domain_box()};
  auto level0 = make_level(hierarchy, 0, base);
  hierarchy.set_level(0, level0);
  for (const auto& patch : level0->local_patches()) {
    strategy_->initialize_level_data(*patch, *level0, hierarchy.geometry(),
                                     time);
  }

  // Finer levels: tag, cluster, create, initialise analytically.
  for (int l = 0; l < hierarchy.max_levels() - 1; ++l) {
    const std::vector<Box> boxes = build_candidate_boxes(hierarchy, l, time);
    if (boxes.empty()) {
      break;
    }
    auto fine = make_level(hierarchy, l + 1, boxes);
    hierarchy.set_level(l + 1, fine);
    for (const auto& patch : fine->local_patches()) {
      strategy_->initialize_level_data(*patch, *fine, hierarchy.geometry(),
                                       time);
    }
    RAMR_LOG_DEBUG("initial hierarchy: level " << (l + 1) << " with "
                   << fine->patch_count() << " patches, "
                   << fine->total_cells() << " cells");
  }
}

void GriddingAlgorithm::regrid(PatchHierarchy& hierarchy, double time) {
  RAMR_REQUIRE(hierarchy.num_levels() >= 1, "cannot regrid an empty hierarchy");
  ++stats_.regrids;

  // Recursively from the second-finest regriddable level to the coarsest
  // (paper §II). Note new finer levels are in place when coarser ones are
  // rebuilt, so tag injection keeps nesting.
  const int top_tag_level =
      std::min(hierarchy.num_levels() - 1, hierarchy.max_levels() - 2);
  for (int l = top_tag_level; l >= 0; --l) {
    const std::vector<Box> boxes = build_candidate_boxes(hierarchy, l, time);
    if (boxes.empty()) {
      // No tags: drop the finer level (nothing above it can exist, since
      // injected tags would have been present otherwise).
      if (hierarchy.has_level(l + 1)) {
        hierarchy.remove_levels_from(l + 1);
      }
      continue;
    }
    auto new_level = make_level(hierarchy, l + 1, boxes);

    // Freshly allocated patch data is raw device memory. Only the state
    // variables listed in `transfer_` are moved by the solution-transfer
    // schedule below; every other field (work arrays, EOS outputs) must
    // still hold *defined* values, because the next step's kernels read
    // some of them (e.g. advec_mom's node masses) before rewriting them.
    // Analytic initialisation first gives them the same defined start as
    // make_initial_hierarchy; the schedule then overwrites the state.
    // Attribute the regrid-path launches (analytic init, the solution
    // transfer's interpolation + scratch clamp fills) to kRegrid; the
    // engine's own pack/unpack/local-copy scopes override within.
    vgpu::LaunchTagScope regrid_tag(ctx_->device, vgpu::LaunchTag::kRegrid);
    for (const auto& patch : new_level->local_patches()) {
      strategy_->initialize_level_data(*patch, *new_level,
                                       hierarchy.geometry(), time);
    }

    // Solution transfer: copy from the old level where it overlapped,
    // interpolate from level l elsewhere, then physical boundaries.
    std::shared_ptr<PatchLevel> old_level =
        hierarchy.has_level(l + 1) ? hierarchy.level_ptr(l + 1) : nullptr;
    auto schedule = transfer_.create_schedule(
        new_level, old_level, hierarchy.level_ptr(l), hierarchy.variables(),
        *ctx_, bc_, xfer::FillMode::kInteriorAndGhosts);
    schedule->fill();
    new_level->set_time(time, hierarchy.variables());
    hierarchy.set_level(l + 1, new_level);
    RAMR_LOG_DEBUG("regrid: level " << (l + 1) << " now has "
                   << new_level->patch_count() << " patches, "
                   << new_level->total_cells() << " cells");
  }
}

}  // namespace ramr::amr
