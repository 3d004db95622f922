// DesignDB: versioned stage artifacts for one design (paper Figure 4 as
// explicit state).
//
// The flow's pipeline — netlist -> placement -> routes -> timing -> power /
// PDN (-> test model) — used to live as hidden mutable members of DesignFlow
// with comment-enforced lifetimes ("valid after the first evaluate()",
// sta_.reset() as the ECO protocol). The DesignDB makes the hand-offs
// explicit: it owns the design and every downstream artifact, tags each
// stage with a monotonically increasing revision plus the upstream revision
// it was built from, and tracks a dirty-net set between routing commits.
//
// That buys two things:
//   * Staleness is decidable, not heuristic: a stage is fresh() iff its
//     whole upstream chain is unchanged since it was committed, and RT-005
//     becomes a revision comparison instead of an array-size guess.
//   * Incremental ECO: the dirty-net set (fed from the netlist's mutation
//     journal or touch_nets()) is exactly what Router::reroute_nets() needs
//     to rip up and repair only what changed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/access_audit.hpp"
#include "core/stage.hpp"
#include "dft/faults.hpp"
#include "netlist/generators.hpp"
#include "pdn/pdn.hpp"
#include "pdn/power.hpp"
#include "route/router.hpp"
#include "sta/graph.hpp"
#include "tech/tech.hpp"

namespace gnnmls::core {

struct StageTag {
  std::uint64_t revision = 0;    // 0 = artifact never built
  std::uint64_t built_from = 0;  // upstream revision at commit time
};

class DesignDB {
 public:
  // Takes ownership of the (prepared, placed) design. `tech` must outlive
  // the DB. Non-movable: the router/timing artifacts hold references into
  // design_.
  DesignDB(netlist::Design design, const tech::Tech3D& tech);
  DesignDB(const DesignDB&) = delete;
  DesignDB& operator=(const DesignDB&) = delete;

  // The non-const overload notes a *mutable* design access for the audit
  // layer: DB hooks cannot see mutations made through the returned netlist
  // reference, so the PassManager pairs this note with the wave's netlist
  // revision delta to attribute kNetlist writes.
  netlist::Design& design() {
    audit_note_read(Stage::kNetlist);
    audit_note_mutable_design();
    return design_;
  }
  const netlist::Design& design() const {
    audit_note_read(Stage::kNetlist);
    return design_;
  }
  const tech::Tech3D& tech() const { return *tech_; }

  // ---- revisions ---------------------------------------------------------
  // kNetlist reads through to the netlist's own mutation journal; every
  // other stage reports its last commit.
  std::uint64_t revision(Stage s) const;
  const StageTag& tag(Stage s) const { return tags_[static_cast<std::size_t>(s)]; }
  bool built(Stage s) const;
  // Fresh = built, and the entire upstream chain is unchanged since the
  // commit. kRoutes additionally requires an empty dirty-net set.
  bool fresh(Stage s) const;
  // Marks the stage (re)built against the current upstream revision and
  // returns the new revision. commit(kRoutes) also clears the dirty set.
  std::uint64_t commit(Stage s);
  // Drops the stage's artifact tag and, transitively, every stage downstream
  // of it. (kNetlist itself cannot be invalidated; its downstream can.)
  void invalidate(Stage s);

  // ---- dirty-net set -----------------------------------------------------
  void touch_net(netlist::Id net);
  void touch_nets(std::span<const netlist::Id> nets);
  // Cursor into the netlist's mutation journal; absorb everything recorded
  // after `mark` into the dirty set with touch_journal_since().
  std::size_t journal_mark() const { return design_.nl.journal_size(); }
  void touch_journal_since(std::size_t mark);
  // Absorbs every journal entry not yet consumed (the DB keeps its own
  // cursor, advanced here and at every commit(kRoutes)) into the dirty set.
  // Every mutation source in this codebase places the cells it adds
  // (buffering, level shifters, scan/DFT insertion), so absorbing their
  // journal also re-declares the placement stage current; a dedicated
  // placement pass would take that commit over. No-op when nothing is
  // pending. The route pass calls this before deciding between a full
  // route and an ECO repair.
  void absorb_journal();
  // Sorted, deduplicated.
  const std::vector<netlist::Id>& dirty_nets() const {
    audit_note_read(Stage::kRoutes);
    return dirty_;
  }
  bool dirty() const { return !dirty_.empty(); }
  std::vector<netlist::Id> take_dirty_nets();

  // ---- artifacts ---------------------------------------------------------
  // Created on first use.
  route::Router& router();
  const route::Router* router_if_built() const {
    audit_note_read(Stage::kRoutes);
    return router_.get();
  }
  // The timing graph, rebuilt automatically when the netlist revision moved
  // since the last build (its pin topology is frozen at construction).
  // Requires the router to exist with routes parallel to the netlist.
  sta::TimingGraph& timing();
  // Non-rebuilding view for read-only consumers (checker, corpus): null
  // until built, and null again once the netlist left it behind.
  const sta::TimingGraph* timing_if_fresh() const;

  void set_power(const pdn::PowerReport& report) {
    audit_note_write(Stage::kPower);
    power_ = report;
  }
  const std::optional<pdn::PowerReport>& power() const {
    audit_note_read(Stage::kPower);
    return power_;
  }
  void set_pdn(pdn::PdnDesign pdn) {
    audit_note_write(Stage::kPdn);
    pdn_ = std::move(pdn);
  }
  const pdn::PdnDesign* pdn() const {
    audit_note_read(Stage::kPdn);
    return pdn_ ? &*pdn_ : nullptr;
  }
  void set_test_model(dft::TestModel model) {
    audit_note_write(Stage::kTest);
    test_model_ = std::move(model);
  }
  const dft::TestModel* test_model() const {
    audit_note_read(Stage::kTest);
    return test_model_ ? &*test_model_ : nullptr;
  }
  // Replaces the per-net MLS decision vector, touching every net whose flag
  // actually changed (absent entries count as 0). A flag flip therefore
  // dirties exactly the nets it affects, routing staleness falls out of the
  // ordinary fresh(kRoutes) rule, and the route pass re-routes with
  // route_all.
  void set_mls_flags(std::vector<std::uint8_t> flags);
  const std::vector<std::uint8_t>& mls_flags() const { return mls_flags_; }

  // ---- stage result caches ----------------------------------------------
  // Summaries of the last routing / STA commits, kept so that an evaluate()
  // whose passes were all skipped can still assemble its metrics row from
  // the DB alone.
  void set_route_summary(const route::RouteSummary& summary) {
    audit_note_write(Stage::kRoutes);
    route_summary_ = summary;
  }
  const route::RouteSummary* route_summary() const {
    audit_note_read(Stage::kRoutes);
    return route_summary_ ? &*route_summary_ : nullptr;
  }
  void set_sta_result(const sta::StaResult& result) {
    audit_note_write(Stage::kTiming);
    sta_result_ = result;
  }
  const sta::StaResult* sta_result() const {
    audit_note_read(Stage::kTiming);
    return sta_result_ ? &*sta_result_ : nullptr;
  }

  // ---- transactional stage snapshots (src/ft/) ---------------------------
  // A Snapshot is a deep copy of the artifacts behind the given stages plus
  // the full tag array, dirty set, and journal cursor — everything a wave of
  // passes writing those stages could touch. restore() puts it all back, so
  // a pass that failed mid-write leaves the DB bit-identical (by
  // state_fingerprint) to the pre-dispatch state. Timing is the one derived
  // artifact restored by dropping: the graph's value arrays are a cache of
  // run(), so a rolled-back STA simply rebuilds (bit-identical results,
  // since run() recomputes every pin from the routes) instead of
  // deep-copying the arrays. A snapshot is restored into the DB that took
  // it; the revision counter is not captured and never rewinds.
  struct Snapshot {
    std::vector<Stage> stages;
    std::array<StageTag, kNumStages> tags{};
    std::vector<netlist::Id> dirty;
    std::size_t journal_cursor = 0;
    std::vector<std::uint8_t> mls_flags;  // always captured (cheap, any pass may flip)
    std::optional<netlist::Design> design;          // kNetlist / kPlacement / kTest
    std::optional<route::Router::Checkpoint> router;  // kRoutes, if built
    std::optional<route::RouteSummary> route_summary;
    std::optional<sta::StaResult> sta_result;       // kTiming
    std::uint64_t sta_built_at = 0;
    std::optional<pdn::PowerReport> power;          // kPower
    std::optional<pdn::PdnDesign> pdn;              // kPdn
    std::optional<dft::TestModel> test_model;       // kTest
    // Rough heap footprint of the captured artifacts (element counts times
    // element sizes; nested small vectors estimated, not walked). Feeds the
    // flow.snapshot_bytes / flow.restore_bytes histograms.
    std::size_t approx_bytes() const;
  };
  Snapshot snapshot(std::span<const Stage> stages) const;
  void restore(const Snapshot& snap);

  // ---- mid-write markers (ft transactions, FT-001) -----------------------
  // The PassManager brackets each pass's declared write stages; restore()
  // clears every marker. A marker still set outside a running wave means a
  // stage was left mid-write — exactly what check rule FT-001 reports.
  void begin_write(Stage s);
  void end_write(Stage s);
  bool write_open(Stage s) const;
  std::vector<Stage> open_writes() const;

  // Order-sensitive FNV-1a digest of the observable flow state: stage tags,
  // dirty set, journal cursor, MLS flags, per-net routes, stage result
  // caches, and open-write markers. Two DBs with equal fingerprints produce
  // bit-identical downstream results; the crash-consistency property tests
  // compare pre-wave and post-rollback values.
  std::uint64_t state_fingerprint() const;

 private:
  netlist::Design design_;
  const tech::Tech3D* tech_;
  std::array<StageTag, kNumStages> tags_{};
  // Revision source for committed stages: one counter, so revisions are
  // unique across stages and ordered by commit.
  std::uint64_t counter_ = 0;
  std::vector<netlist::Id> dirty_;
  std::size_t journal_cursor_ = 0;  // consumed prefix of the mutation journal
  std::unique_ptr<route::Router> router_;
  std::unique_ptr<sta::TimingGraph> sta_;
  std::uint64_t sta_built_at_ = 0;  // netlist revision at TimingGraph build
  std::optional<pdn::PowerReport> power_;
  std::optional<pdn::PdnDesign> pdn_;
  std::optional<dft::TestModel> test_model_;
  std::vector<std::uint8_t> mls_flags_;
  std::optional<route::RouteSummary> route_summary_;
  std::optional<sta::StaResult> sta_result_;
  // Mid-write markers, one per stage.
  std::array<std::uint8_t, kNumStages> write_open_{};
};

}  // namespace gnnmls::core
