// Tests for the versioned DesignDB core: stage revisions, freshness,
// invalidation cascades, the dirty-net set, the netlist mutation journal,
// and the flow-level behaviors built on them (timing-graph rebuild on
// netlist change, RT-005 as a revision comparison, in-place snapshot
// rollback).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/design_db.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"

namespace {

using namespace gnnmls;
using core::DesignDB;
using core::Stage;
using netlist::Id;

// A minimal wired design for the pure DB-semantics tests (no placement or
// routing needed there).
netlist::Design tiny_design() {
  netlist::Design d;
  d.info.name = "tiny";
  const Id a = d.nl.add_cell(tech::CellKind::kInv, 0, 10.0f, 10.0f);
  const Id b = d.nl.add_cell(tech::CellKind::kBuf, 0, 20.0f, 10.0f);
  const Id c = d.nl.add_cell(tech::CellKind::kBuf, 1, 30.0f, 30.0f);
  d.nl.connect(a, 0, b, 0);
  d.nl.connect(b, 0, c, 0);
  return d;
}

TEST(Stage, UpstreamChainsTerminateAtNetlist) {
  for (std::size_t i = 0; i < core::kNumStages; ++i) {
    Stage s = static_cast<Stage>(i);
    int hops = 0;
    while (s != Stage::kNetlist) {
      s = core::upstream_of(s);
      ASSERT_LT(++hops, 10) << "upstream chain of stage " << i << " does not terminate";
    }
  }
  EXPECT_EQ(core::upstream_of(Stage::kNetlist), Stage::kNetlist);
  EXPECT_EQ(core::upstream_of(Stage::kTiming), Stage::kRoutes);
  EXPECT_EQ(core::upstream_of(Stage::kTest), Stage::kNetlist);
}

TEST(DesignDB, NetlistStageIsRootAndSelfVersioning) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  EXPECT_TRUE(db.built(Stage::kNetlist));
  EXPECT_TRUE(db.fresh(Stage::kNetlist));
  EXPECT_THROW(db.commit(Stage::kNetlist), std::logic_error);

  const std::uint64_t before = db.revision(Stage::kNetlist);
  db.design().nl.add_net();
  EXPECT_GT(db.revision(Stage::kNetlist), before);
}

TEST(DesignDB, CommitMakesFreshAndMutationMakesStale) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  EXPECT_FALSE(db.built(Stage::kPlacement));
  EXPECT_FALSE(db.fresh(Stage::kPlacement));

  db.commit(Stage::kPlacement);
  EXPECT_TRUE(db.built(Stage::kPlacement));
  EXPECT_TRUE(db.fresh(Stage::kPlacement));
  EXPECT_EQ(db.tag(Stage::kPlacement).built_from, db.revision(Stage::kNetlist));

  db.design().nl.add_net();
  EXPECT_TRUE(db.built(Stage::kPlacement));  // still built...
  EXPECT_FALSE(db.fresh(Stage::kPlacement)); // ...but stale

  db.commit(Stage::kPlacement);
  EXPECT_TRUE(db.fresh(Stage::kPlacement));
}

TEST(DesignDB, FreshnessRequiresTheWholeUpstreamChain) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  db.commit(Stage::kTiming);
  EXPECT_TRUE(db.fresh(Stage::kTiming));

  // A netlist mutation leaves every tag's own built_from intact but breaks
  // the chain at the root; everything downstream must read stale.
  db.design().nl.add_net();
  EXPECT_FALSE(db.fresh(Stage::kPlacement));
  EXPECT_FALSE(db.fresh(Stage::kRoutes));
  EXPECT_FALSE(db.fresh(Stage::kTiming));

  // Recommitting only the routes is not enough: placement is still stale.
  db.commit(Stage::kRoutes);
  EXPECT_FALSE(db.fresh(Stage::kRoutes));
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  EXPECT_TRUE(db.fresh(Stage::kRoutes));
  EXPECT_FALSE(db.fresh(Stage::kTiming));  // built before the re-route
}

TEST(DesignDB, InvalidateCascadesDownstreamOnly) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  db.commit(Stage::kTiming);
  db.commit(Stage::kPower);
  db.commit(Stage::kTest);

  db.invalidate(Stage::kPlacement);
  EXPECT_FALSE(db.built(Stage::kPlacement));
  EXPECT_FALSE(db.built(Stage::kRoutes));
  EXPECT_FALSE(db.built(Stage::kTiming));
  EXPECT_FALSE(db.built(Stage::kPower));
  // kTest hangs off the netlist, not the placement: it survives.
  EXPECT_TRUE(db.built(Stage::kTest));
}

TEST(DesignDB, DirtySetIsSortedDedupedAndGatesRouteFreshness) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  db.commit(Stage::kPlacement);
  db.commit(Stage::kRoutes);
  EXPECT_TRUE(db.fresh(Stage::kRoutes));

  const Id nets[] = {1, 0, 1, 1, 0};
  db.touch_nets(nets);
  EXPECT_TRUE(db.dirty());
  EXPECT_EQ(db.dirty_nets(), (std::vector<Id>{0, 1}));
  EXPECT_FALSE(db.fresh(Stage::kRoutes));  // dirty nets = routes not fresh

  const std::vector<Id> taken = db.take_dirty_nets();
  EXPECT_EQ(taken, (std::vector<Id>{0, 1}));
  EXPECT_FALSE(db.dirty());

  db.touch_net(1);
  db.commit(Stage::kRoutes);  // a route commit absorbs the dirty set
  EXPECT_FALSE(db.dirty());
  EXPECT_TRUE(db.fresh(Stage::kRoutes));
}

TEST(DesignDB, JournalMarkTurnsMutationsIntoDirtyNets) {
  const auto tech3d = tech::make_hetero_tech(6);
  DesignDB db(tiny_design(), tech3d);
  netlist::Netlist& nl = db.design().nl;

  const std::size_t mark = db.journal_mark();
  const Id buf = nl.add_cell(tech::CellKind::kBuf, 0, 40.0f, 40.0f);
  const Id existing = 0;
  nl.add_sink(existing, nl.input_pin(buf, 0));
  const Id fresh_net = nl.add_net();
  nl.set_driver(fresh_net, nl.output_pin(buf, 0));

  db.touch_journal_since(mark);
  EXPECT_EQ(db.dirty_nets(), (std::vector<Id>{existing, fresh_net}));

  // The mark protocol is a cursor: re-absorbing from the current end is a
  // no-op, and a mark past the end is tolerated.
  db.take_dirty_nets();
  db.touch_journal_since(db.journal_mark());
  EXPECT_FALSE(db.dirty());
  db.touch_journal_since(db.journal_mark() + 100);
  EXPECT_FALSE(db.dirty());
}

TEST(NetlistJournal, MutatorsBumpRevisionAndRecordNets) {
  netlist::Netlist nl;
  EXPECT_EQ(nl.revision(), 0u);
  EXPECT_EQ(nl.journal_size(), 0u);

  // A new cell changes the pin population (STA topology) but touches no net:
  // revision moves, journal does not.
  const Id a = nl.add_cell(tech::CellKind::kInv, 0);
  const std::uint64_t rev_after_cell = nl.revision();
  EXPECT_GT(rev_after_cell, 0u);
  EXPECT_EQ(nl.journal_size(), 0u);

  const Id b = nl.add_cell(tech::CellKind::kBuf, 0);
  const Id n = nl.add_net();
  EXPECT_EQ(nl.journal().back(), n);
  nl.set_driver(n, nl.output_pin(a, 0));
  EXPECT_EQ(nl.journal().back(), n);
  nl.add_sink(n, nl.input_pin(b, 0));
  EXPECT_EQ(nl.journal().back(), n);

  const std::uint64_t before = nl.revision();
  nl.detach_sink(n, nl.input_pin(b, 0));
  EXPECT_GT(nl.revision(), before);
  EXPECT_EQ(nl.journal().back(), n);
  nl.add_sink(n, nl.input_pin(b, 0));

  // connect() journals through the primitives it calls.
  const Id c = nl.add_cell(tech::CellKind::kBuf, 0);
  const std::size_t mark = nl.journal_size();
  const Id m = nl.connect(b, 0, c, 0);
  const std::span<const Id> delta = nl.journal().subspan(mark);
  EXPECT_FALSE(delta.empty());
  for (const Id t : delta) EXPECT_EQ(t, m);
}

// ---- flow-level behaviors on top of the DB --------------------------------

mls::DesignFlow make_flow() {
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  return mls::DesignFlow(netlist::make_maeri_16pe(), cfg);
}

// Rewires one sink of a routed net without changing any array size: the
// exact mutation the old size-heuristic RT-005 could not see.
netlist::Id rewire_one_sink(netlist::Netlist& nl) {
  for (Id n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver == netlist::kNullId || net.sinks.empty()) continue;
    const Id pin = net.sinks.front();
    nl.detach_sink(n, pin);
    nl.add_sink(n, pin);
    return n;
  }
  ADD_FAILURE() << "no rewirable net found";
  return netlist::kNullId;
}

TEST(FlowDB, TimingGraphRebuildsWhenTheNetlistMoves) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_no_mls();
  EXPECT_NE(flow.db().timing_if_fresh(), nullptr);
  EXPECT_EQ(flow.router().routed_revision(), flow.design().nl.revision());

  rewire_one_sink(flow.db().design().nl);
  EXPECT_EQ(flow.db().timing_if_fresh(), nullptr) << "stale graph must be withheld";

  // sta() reads through to DesignDB::timing(), which rebuilds transparently.
  const sta::StaResult r = flow.sta().run(flow.design().info.clock_ps, 40.0);
  EXPECT_GT(r.endpoints, 0u);
  EXPECT_NE(flow.db().timing_if_fresh(), nullptr);
}

TEST(FlowDB, Rt005FiresOnRevisionNotJustSize) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_no_mls();
  const check::Report clean = flow.run_checks();
  EXPECT_TRUE(clean.clean()) << clean.render();

  // Same net count, same sink counts — only the revision moved.
  rewire_one_sink(flow.db().design().nl);
  ASSERT_EQ(flow.router().routes().size(), flow.design().nl.num_nets());
  const check::Report stale = flow.run_checks();
  EXPECT_FALSE(stale.clean());
  EXPECT_NE(stale.render().find("RT-005"), std::string::npos) << stale.render();

  // Re-routing clears the condition.
  flow.evaluate_no_mls();
  const check::Report again = flow.run_checks();
  EXPECT_TRUE(again.clean()) << again.render();
}

TEST(FlowDB, InPlaceRestoreNeverReissuesARevision) {
  // Wave rollback and the ECO benchmark restore a snapshot into the DB that
  // took it. The snapshot does not carry the revision counter, so the commits
  // made after the snapshot and the commits made after the restore must still
  // draw distinct, increasing revisions.
  mls::DesignFlow flow = make_flow();
  flow.evaluate_no_mls();
  DesignDB& db = flow.db();
  std::vector<Stage> all;
  for (std::size_t i = 0; i < core::kNumStages; ++i) all.push_back(static_cast<Stage>(i));
  // kNetlist reports the netlist's own revision, which has its own counter.
  const auto max_stage_revision = [&] {
    std::uint64_t m = 0;
    for (const Stage s : all)
      if (s != Stage::kNetlist) m = std::max(m, db.revision(s));
    return m;
  };
  const std::uint64_t fp_before = db.state_fingerprint();
  const DesignDB::Snapshot snap = db.snapshot(all);
  const std::uint64_t at_snapshot = max_stage_revision();

  flow.evaluate_sota();  // new flags: route, STA and power commit again
  const std::uint64_t held = max_stage_revision();
  ASSERT_GT(held, at_snapshot);
  EXPECT_NE(db.state_fingerprint(), fp_before);

  db.restore(snap);
  EXPECT_EQ(db.state_fingerprint(), fp_before);
  EXPECT_EQ(max_stage_revision(), at_snapshot);

  const std::uint64_t next = db.commit(Stage::kPower);
  EXPECT_GT(next, held);
  EXPECT_EQ(db.revision(Stage::kPower), next);
}

}  // namespace
