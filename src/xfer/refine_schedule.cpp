#include "xfer/refine_schedule.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/logger.hpp"
#include "vgpu/topology.hpp"

namespace ramr::xfer {

using hier::GlobalPatch;
using hier::Patch;
using hier::PatchLevel;
using mesh::Box;
using mesh::BoxList;
using mesh::IntVector;

namespace {

/// Forks `dev`'s compute lane from the caller's active lane for a
/// per-device fan-out scope. Returns -1 — a no-op LaneScope — without a
/// timeline (single-device ranks pass tl == nullptr), so the launches
/// stay on the caller's lane exactly as before.
int fork_gpu_lane(vgpu::Timeline* tl, const vgpu::Device* dev) {
  if (tl == nullptr || dev == nullptr) {
    return -1;
  }
  const int lane = tl->lane(vgpu::Topology::gpu_lane_name(dev->ordinal()));
  tl->advance(lane, tl->now(tl->active_lane()));
  return lane;
}

/// Largest ghost width over the scheduled items.
IntVector max_ghosts(const std::vector<RefineItem>& items,
                     const hier::VariableDatabase& db) {
  IntVector g(0, 0);
  for (const RefineItem& item : items) {
    g = mesh::componentwise_max(g, db.variable(item.var_id).ghosts);
  }
  return g;
}

/// Smallest ghost width over items that interpolate (coarse sources must
/// provide at least this much BC-filled halo).
IntVector min_op_ghosts(const std::vector<RefineItem>& items,
                        const hier::VariableDatabase& db) {
  IntVector g(1 << 20, 1 << 20);
  bool any = false;
  for (const RefineItem& item : items) {
    if (item.op != nullptr) {
      g = mesh::componentwise_min(g, db.variable(item.var_id).ghosts);
      any = true;
    }
  }
  return any ? g : IntVector(0, 0);
}

/// Largest interpolation stencil over items.
IntVector max_stencil(const std::vector<RefineItem>& items) {
  IntVector s(0, 0);
  for (const RefineItem& item : items) {
    if (item.op != nullptr) {
      s = mesh::componentwise_max(s, item.op->stencil_width());
    }
  }
  return s;
}

/// Clips edge fill cells to the destination's per-variable ghost box and
/// converts to index-space overlap (identical on sender and receiver).
pdat::BoxOverlap item_overlap(const BoxList& fill_cells, const Box& dst_cell_box,
                              const hier::Variable& var) {
  BoxList cells = fill_cells;
  cells.intersect(dst_cell_box.grow(var.ghosts));
  return pdat::overlap_for_region(var.centering, cells);
}

/// L1 gap between two boxes (0 when they touch or overlap).
std::int64_t box_gap(const Box& a, const Box& b) {
  const int gi = std::max({0, a.lower().i - b.upper().i,
                           b.lower().i - a.upper().i});
  const int gj = std::max({0, a.lower().j - b.upper().j,
                           b.lower().j - a.upper().j});
  return gi + gj;
}

}  // namespace

std::unique_ptr<RefineSchedule> RefineAlgorithm::create_schedule(
    std::shared_ptr<PatchLevel> dst_level, std::shared_ptr<PatchLevel> src_level,
    std::shared_ptr<PatchLevel> coarse_level, const hier::VariableDatabase& db,
    ParallelContext& ctx, PhysicalBoundaryStrategy* bc, FillMode mode) const {
  RAMR_REQUIRE(dst_level != nullptr, "refine schedule needs a destination");
  RAMR_REQUIRE(!items_.empty(), "refine schedule with no items");

  auto sched = std::unique_ptr<RefineSchedule>(new RefineSchedule());
  sched->items_ = items_;
  for (const RefineItem& item : items_) {
    sched->var_ids_.push_back(item.var_id);
  }
  sched->dst_level_ = dst_level;
  sched->src_level_ = src_level;
  sched->coarse_level_ = coarse_level;
  sched->db_ = &db;
  sched->ctx_ = &ctx;
  sched->bc_ = bc;
  sched->mode_ = mode;
  sched->same_engine_.initialize(ctx);
  sched->coarse_engine_.initialize(ctx);
  sched->coarse_late_engine_.initialize(ctx);

  const IntVector ghosts = max_ghosts(items_, db);
  const IntVector stencil = max_stencil(items_);
  const IntVector coarse_avail = min_op_ghosts(items_, db);
  const bool any_op =
      std::any_of(items_.begin(), items_.end(),
                  [](const RefineItem& i) { return i.op != nullptr; });
  const Box dst_domain = dst_level->domain_box();

  // Expands one planned patch edge into per-variable transactions, all
  // carried by the same aggregated peer message. Only edges touching
  // this rank are recorded: the box calculus must walk the full
  // replicated metadata (the disjoint source assignment depends on every
  // earlier source), but a transaction between two other ranks is never
  // packed, applied or counted here, so storing it would make plan
  // memory and the per-fill scan scale with the global mesh instead of
  // this rank's partition. Relative plan order of the retained subset is
  // preserved, which is all both endpoints of a message rely on.
  const int me = ctx.my_rank;
  std::int64_t overlap_pieces = 0;
  const auto add_same_level = [&](const GlobalPatch& s, const GlobalPatch& d,
                                  const BoxList& provided) {
    overlap_pieces += 8 * provided.count();
    if (s.owner_rank != me && d.owner_rank != me) {
      return;
    }
    for (std::size_t n = 0; n < items_.size(); ++n) {
      pdat::BoxOverlap ov =
          item_overlap(provided, d.box, db.variable(items_[n].var_id));
      if (ov.empty()) {
        continue;
      }
      sched->xacts_.push_back(RefineSchedule::Xact{RefineSchedule::Xact::Kind::kSameLevel, s.global_id,
                                   d.global_id, n, 0, std::move(ov)});
      sched->same_engine_.add(Transaction{s.owner_rank, d.owner_rank,
                                          sched->xacts_.size() - 1});
    }
  };
  // Adds the gather transactions of one (coarse patch, destination)
  // pair, splitting each item between the EARLY engine (sources whose
  // values are provably stable from fill_begin to fill_finish, so a
  // wide-overlap split fill may pack and ship them at begin) and the
  // LATE engine (sources valid only once the coarse level's own exchange
  // finished). `stable` is the cell region of begin-stable sources:
  // for interior gathers the coarse patch box, clipped one cell inward
  // for node/side items — a cell variable's interior (shell included)
  // is never rewritten by the patch's own exchange, but a node/side
  // variable's shell maps onto the seam lines the exchange DOES rewrite.
  const auto add_gather = [&](const GlobalPatch& c, const GlobalPatch& d,
                              const BoxList& provided, const Box& stable,
                              std::size_t fill) {
    overlap_pieces += 16;
    if (c.owner_rank != me && d.owner_rank != me) {
      return;
    }
    for (std::size_t n = 0; n < items_.size(); ++n) {
      if (items_[n].op == nullptr) {
        continue;
      }
      const hier::Variable& var = db.variable(items_[n].var_id);
      const Box item_stable = var.centering == mesh::Centering::kCell
                                  ? stable
                                  : stable.shrink(1);
      BoxList early = provided;
      early.intersect(item_stable);
      BoxList late = provided;
      late.remove_intersections(item_stable);
      for (auto* part : {&early, &late}) {
        if (part->empty()) {
          continue;
        }
        part->coalesce();
        pdat::BoxOverlap ov = pdat::overlap_for_region(var.centering, *part);
        if (ov.empty()) {
          continue;
        }
        sched->xacts_.push_back(
            RefineSchedule::Xact{RefineSchedule::Xact::Kind::kCoarseGather,
                                 c.global_id, d.global_id, n, fill,
                                 std::move(ov)});
        TransferSchedule& engine = part == &early
                                       ? sched->coarse_engine_
                                       : sched->coarse_late_engine_;
        engine.add(Transaction{c.owner_rank, d.owner_rank,
                               sched->xacts_.size() - 1});
      }
    }
  };

  for (const GlobalPatch& d : dst_level->global_patches()) {
    const Box fill_box = d.box.grow(ghosts);
    BoxList remaining(fill_box);
    if (mode == FillMode::kGhostsOnly) {
      remaining.remove_intersections(d.box);
    }

    // (i) same-level sources, assigned disjointly in metadata order.
    if (src_level != nullptr) {
      const bool same_object = (src_level == dst_level);
      for (const GlobalPatch& s : src_level->global_patches()) {
        if (same_object && s.global_id == d.global_id) {
          continue;
        }
        if (remaining.empty()) {
          break;
        }
        BoxList provided = remaining;
        provided.intersect(s.box);
        if (provided.empty()) {
          continue;
        }
        provided.coalesce();
        add_same_level(s, d, provided);
        remaining.remove_intersections(s.box);
      }
    }

    // (ii) coarse interpolation for what is still unfilled inside the
    // domain.
    BoxList in_domain = remaining;
    in_domain.intersect(dst_domain);
    if (coarse_level != nullptr && any_op && !in_domain.empty()) {
      in_domain.coalesce();
      RefineSchedule::CoarseFill cf;
      cf.dst_gid = d.global_id;
      cf.dst_owner = d.owner_rank;
      cf.fine_fill_cells = in_domain;
      cf.scratch_cells =
          fill_box.coarsen(dst_level->ratio_to_coarser()).grow(stencil)
              .intersect(coarse_level->domain_box().grow(coarse_avail));
      const std::size_t fill = sched->coarse_fills_.size();

      BoxList scratch_remaining(cf.scratch_cells);
      // Pass 1: coarse patch interiors, split per item between the two
      // gather engines by add_gather: a cell item's whole interior ships
      // early; a node/side item keeps its depth-0 shell late (the seam
      // lines the coarse exchange rewrites).
      for (const GlobalPatch& c : coarse_level->global_patches()) {
        if (scratch_remaining.empty()) {
          break;
        }
        BoxList provided = scratch_remaining;
        provided.intersect(c.box);
        if (provided.empty()) {
          continue;
        }
        provided.coalesce();
        add_gather(c, d, provided, c.box, fill);
        scratch_remaining.remove_intersections(c.box);
      }
      // Pass 2: coarse patch ghost regions (carry BC-filled values needed
      // for stencils that poke past the domain or patch edges) — never
      // stable before the coarse level's finish, so entirely late (the
      // empty `stable` box routes every item there).
      for (const GlobalPatch& c : coarse_level->global_patches()) {
        if (scratch_remaining.empty()) {
          break;
        }
        const Box gbox = c.box.grow(coarse_avail);
        BoxList provided = scratch_remaining;
        provided.intersect(gbox);
        if (provided.empty()) {
          continue;
        }
        provided.coalesce();
        add_gather(c, d, provided, Box(), fill);
        scratch_remaining.remove_intersections(gbox);
      }
      if (!scratch_remaining.empty()) {
        // Scratch corners can fall outside the union of coarse patch +
        // ghost boxes: nesting bounds the fine INTERIOR, not the stencil
        // fringe of its ghost fill. Pair each uncovered piece with its
        // nearest covered box; fill() clamp-fills them after the gather,
        // so interpolation stencils never read the raw allocation.
        BoxList covered(cf.scratch_cells);
        for (const Box& u : scratch_remaining.boxes()) {
          covered.remove_intersections(u);
        }
        std::ostringstream pieces;
        for (const Box& u : scratch_remaining.boxes()) {
          pieces << " " << u;
          const Box* best = nullptr;
          std::int64_t best_gap = 0;
          for (const Box& c : covered.boxes()) {
            const std::int64_t gap = box_gap(u, c);
            if (best == nullptr || gap < best_gap) {
              best = &c;
              best_gap = gap;
            }
          }
          if (best != nullptr) {
            cf.uncovered_clamp.emplace_back(u, *best);
          }
        }
        cf.covered = covered;
        RAMR_LOG_DEBUG("refine schedule: " << scratch_remaining.count()
                       << " scratch pieces uncovered for patch "
                       << d.global_id << " (outside coarse coverage):"
                       << pieces.str() << " of scratch " << cf.scratch_cells
                       << "; clamp-filled from nearest covered data");
      }
      sched->coarse_fills_.push_back(std::move(cf));
    }
  }
  sched->same_engine_.finalize(*sched);
  sched->coarse_engine_.finalize(*sched);
  sched->coarse_late_engine_.finalize(*sched);

  // Host cost of building the plan: the pairwise box calculus over the
  // replicated metadata (dst x src patch enumeration plus per-edge box
  // difference work).
  double ops = static_cast<double>(dst_level->patch_count()) *
               (src_level != nullptr ? src_level->patch_count() : 0);
  if (coarse_level != nullptr) {
    ops += static_cast<double>(dst_level->patch_count()) *
           coarse_level->patch_count();
  }
  ops += static_cast<double>(overlap_pieces);
  ctx.charge_host_ops(4.0 * ops);
  return sched;
}

void RefineSchedule::fill() {
  fill_begin();
  fill_finish();
}

void RefineSchedule::fill_begin() {
  same_engine_.execute_begin(*this);
  if (ctx_->wide_overlap && !coarse_fills_.empty()) {
    // Wide window: ship the strictly-interior coarse sources now, so
    // the gather's wire time rides the comm/net lanes alongside the
    // same-level exchange. Their values cannot change before finish
    // (the coarse level's own exchange rewrites only ghost and seam
    // indices; the overlapped interior sweeps stay off the boundary
    // shell), so begin-time packs equal the synchronous gather's reads.
    allocate_scratch();
    coarse_engine_.execute_begin(*this);
    coarse_in_flight_ = true;
  }
}

void RefineSchedule::fill_finish() {
  same_engine_.execute_finish();
  if (!coarse_fills_.empty()) {
    if (coarse_in_flight_) {
      coarse_engine_.execute_finish();
      coarse_in_flight_ = false;
    } else {
      allocate_scratch();
      coarse_engine_.execute(*this);
    }
    // Boundary-shell and ghost sources read the coarse level's FINISHED
    // exchange (the integrator finishes coarse-to-fine), and execute
    // after the early engine's writes — the pre-split single-engine plan
    // order wherever their seam images overlap.
    coarse_late_engine_.execute(*this);
    clamp_fill_uncovered_scratch();
    interpolate_coarse_fills();
    scratch_.clear();
  }
  execute_physical_boundaries();
}

TransferGeometry RefineSchedule::geometry(std::size_t handle) const {
  const Xact& x = xacts_[handle];
  TransferGeometry g;
  g.overlap = &x.overlap;
  g.depth = db_->variable(items_[x.item].var_id).depth;
  // Destination-object id for the engine's write clipping: same-level
  // transactions write (dst patch, item) data; gathers write (fill, item)
  // scratch. The two kinds live in different engines, so the id spaces
  // cannot collide.
  const int n = static_cast<int>(items_.size());
  g.dst_slot = x.kind == Xact::Kind::kSameLevel
                   ? x.dst_gid * n + static_cast<int>(x.item)
                   : static_cast<int>(x.fill) * n + static_cast<int>(x.item);
  // When source and destination are the SAME level (halo exchange), the
  // source arrays are themselves ghost-fill targets of this exchange:
  // give them ids in the dst_slot space so the engine can snapshot seam
  // reads that alias writes. Regrid transfers (old level -> new level)
  // and gathers (coarse -> scratch) read arrays no transaction writes.
  if (x.kind == Xact::Kind::kSameLevel && src_level_ == dst_level_) {
    g.src_slot = x.src_gid * n + static_cast<int>(x.item);
  }
  return g;
}

TransferEndpoints RefineSchedule::endpoints(std::size_t handle) {
  const Xact& x = xacts_[handle];
  TransferEndpoints ep;
  const PatchLevel& src_level =
      x.kind == Xact::Kind::kSameLevel ? *src_level_ : *coarse_level_;
  if (const auto src = src_level.local_patch(x.src_gid)) {
    ep.src = &src->data(items_[x.item].var_id);
  }
  if (x.kind == Xact::Kind::kSameLevel) {
    if (const auto dst = dst_level_->local_patch(x.dst_gid)) {
      ep.dst = &dst->data(items_[x.item].var_id);
    }
  } else if (!scratch_[x.fill].empty()) {
    ep.dst = scratch_[x.fill][x.item].get();
  }
  return ep;
}

void RefineSchedule::allocate_scratch() {
  const int me = ctx_->my_rank;
  scratch_.clear();
  scratch_.resize(coarse_fills_.size());
  for (std::size_t f = 0; f < coarse_fills_.size(); ++f) {
    const CoarseFill& cf = coarse_fills_[f];
    if (cf.dst_owner != me) {
      continue;
    }
    // Scratch follows the destination patch's device so the coarse
    // gather's endpoint and the interpolation stay device-local on a
    // multi-device rank.
    vgpu::Device* dev = nullptr;
    if (ctx_->topology != nullptr) {
      if (const auto dst = dst_level_->local_patch(cf.dst_gid)) {
        dev = &ctx_->topology->device(dst->device_ordinal());
      }
    }
    scratch_[f].resize(items_.size());
    for (std::size_t n = 0; n < items_.size(); ++n) {
      if (items_[n].op != nullptr) {
        scratch_[f][n] = db_->factory(items_[n].var_id)
                             .allocate_with_ghosts_on(cf.scratch_cells,
                                                      IntVector::zero(), dev);
      }
    }
  }
}

void RefineSchedule::clamp_fill_uncovered_scratch() {
  // Constant-extrapolate the gathered data into the uncovered scratch
  // corners: scratch(p) = scratch(clamp(p into nearest covered box)).
  // The write regions exclude the source box, so reads and writes of the
  // in-place kernel never alias; planning is replicated and only the dst
  // owner executes, so every rank layout produces identical values.
  const int me = ctx_->my_rank;
  // Per-device fan-out as in interpolate_coarse_fills: each fill's clamp
  // launches ride its scratch's device lane; fills on different devices
  // extrapolate concurrently.
  vgpu::Timeline* tl =
      ctx_->topology != nullptr && ctx_->topology->device_count() > 1
          ? ctx_->timeline
          : nullptr;
  double join = tl != nullptr ? tl->now(tl->active_lane()) : 0.0;
  for (std::size_t f = 0; f < coarse_fills_.size(); ++f) {
    const CoarseFill& cf = coarse_fills_[f];
    if (cf.dst_owner != me || cf.uncovered_clamp.empty()) {
      continue;
    }
    for (std::size_t n = 0; n < items_.size(); ++n) {
      if (items_[n].op == nullptr) {
        continue;
      }
      pdat::PatchData* scratch = scratch_[f][n].get();
      vgpu::Device& dev = *scratch->transfer_device();
      vgpu::Stream stream(dev, "xfer");
      vgpu::LaneScope scope(tl, fork_gpu_lane(tl, &dev));
      const mesh::Centering centering = scratch->centering();
      const int ncomp = mesh::centering_components(centering);
      for (int k = 0; k < ncomp; ++k) {
        const mesh::Centering comp = mesh::component_centering(centering, k);
        for (const auto& [uncovered, source] : cf.uncovered_clamp) {
          const Box src = mesh::to_centering(source, comp);
          // Write only indices no covered box owns: mapping cells to the
          // component's index space widens the region onto seam
          // node/side lines shared with covered neighbours, which the
          // gather just filled with real data.
          BoxList pieces(mesh::to_centering(uncovered, comp));
          for (const Box& c : cf.covered.boxes()) {
            pieces.remove_intersections(mesh::to_centering(c, comp));
          }
          const int ilo_s = src.lower().i;
          const int ihi_s = src.upper().i;
          const int jlo_s = src.lower().j;
          const int jhi_s = src.upper().j;
          for (int d = 0; d < scratch->depth(); ++d) {
            for (const Box& piece : pieces.boxes()) {
              // The kernel reads clamped indices inside `src`, so request
              // the view over the union's bounding box, as the
              // transfer_view contract promises validity only there.
              const Box span(std::min(piece.lower().i, src.lower().i),
                             std::min(piece.lower().j, src.lower().j),
                             std::max(piece.upper().i, src.upper().i),
                             std::max(piece.upper().j, src.upper().j));
              util::View v = scratch->transfer_view(k, d, span);
              dev.launch2d(stream, piece.lower().i, piece.lower().j,
                           piece.width(), piece.height(),
                           vgpu::KernelCost{0.0, 16.0}, [=](int i, int j) {
                             v(i, j) = v(std::clamp(i, ilo_s, ihi_s),
                                         std::clamp(j, jlo_s, jhi_s));
                           });
            }
          }
        }
      }
      if (tl != nullptr) {
        join = std::max(join, tl->now(tl->active_lane()));
      }
    }
  }
  if (tl != nullptr) {
    tl->advance(tl->active_lane(), join);
  }
}

void RefineSchedule::interpolate_coarse_fills() {
  const int me = ctx_->my_rank;
  const IntVector ratio = dst_level_->ratio_to_coarser();
  // Fan the per-device groups onto the devices' compute lanes only on a
  // multi-device rank: with one device fork_gpu_lane yields a no-op
  // scope and the launches stay on the caller's lane, unchanged.
  vgpu::Timeline* tl =
      ctx_->topology != nullptr && ctx_->topology->device_count() > 1
          ? ctx_->timeline
          : nullptr;
  double join = tl != nullptr ? tl->now(tl->active_lane()) : 0.0;
  // Batched by operator: the interpolation of a whole level costs one
  // fused refine_batched call per item per round instead of one launch
  // per (fill, piece). Tasks of one fused launch must not write the same
  // element concurrently: pieces of DIFFERENT fills target different
  // destination patches, but adjacent pieces of ONE fill share boundary
  // nodes/faces once mapped to the variable's centring. So round r fuses
  // piece r of every fill — alias-free within a round, and fills rarely
  // have more than a couple of pieces.
  for (std::size_t n = 0; n < items_.size(); ++n) {
    if (items_[n].op == nullptr) {
      continue;
    }
    std::vector<RefineTask> tasks;
    for (std::size_t round = 0;; ++round) {
      tasks.clear();
      for (std::size_t f = 0; f < coarse_fills_.size(); ++f) {
        const CoarseFill& cf = coarse_fills_[f];
        if (cf.dst_owner != me ||
            round >= cf.fine_fill_cells.boxes().size()) {
          continue;
        }
        const auto dst = dst_level_->local_patch(cf.dst_gid);
        RAMR_REQUIRE(dst != nullptr, "missing local destination patch");
        tasks.push_back(RefineTask{&dst->data(items_[n].var_id),
                                   scratch_[f][n].get(),
                                   cf.fine_fill_cells.boxes()[round]});
      }
      if (tasks.empty()) {
        break;
      }
      // One fused call per destination device: the operator charges the
      // whole batch to its first task's device, and a multi-device
      // rank's round may target patches on several devices. Each group
      // rides its device's compute lane, forked from the caller's lane,
      // so the devices interpolate concurrently; the caller rejoins at
      // the slowest lane once every item and round has been issued.
      std::vector<const vgpu::Device*> seen;
      std::vector<RefineTask> group;
      for (const RefineTask& probe : tasks) {
        const vgpu::Device* key = probe.dst->transfer_device();
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
          continue;
        }
        seen.push_back(key);
        group.clear();
        for (const RefineTask& t : tasks) {
          if (t.dst->transfer_device() == key) {
            group.push_back(t);
          }
        }
        vgpu::LaneScope scope(tl, fork_gpu_lane(tl, key));
        items_[n].op->refine_batched(group, ratio);
        if (tl != nullptr) {
          join = std::max(join, tl->now(tl->active_lane()));
        }
      }
    }
  }
  if (tl != nullptr) {
    tl->advance(tl->active_lane(), join);
  }
}

void RefineSchedule::execute_physical_boundaries() {
  if (bc_ == nullptr) {
    return;
  }
  // Per-device fan-out: each patch's reflective fills ride its device's
  // compute lane, so a multi-device rank applies physical BCs on all
  // devices concurrently.
  vgpu::Timeline* tl =
      ctx_->topology != nullptr && ctx_->topology->device_count() > 1
          ? ctx_->timeline
          : nullptr;
  double join = tl != nullptr ? tl->now(tl->active_lane()) : 0.0;
  for (const auto& patch : dst_level_->local_patches()) {
    vgpu::LaneScope scope(
        tl, fork_gpu_lane(
                tl, tl != nullptr
                        ? &ctx_->topology->device(patch->device_ordinal())
                        : nullptr));
    bc_->fill_physical_boundaries(*patch, dst_level_->domain_box(), var_ids_);
    if (tl != nullptr) {
      join = std::max(join, tl->now(tl->active_lane()));
    }
  }
  if (tl != nullptr) {
    tl->advance(tl->active_lane(), join);
  }
}

}  // namespace ramr::xfer
