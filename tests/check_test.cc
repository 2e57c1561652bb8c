// Tests for the runtime invariant-checking subsystem (src/check/): checkspec
// grammar, the ShadowCache reference model, clean armed runs, planted-bug
// mutation tests (each bug must be caught by its checker), the SimResult field
// diff, and the crash-reproducer round trip. The mutation tests drive the
// Checker hooks directly with the exact call sequence a buggy engine would
// produce, so the checkers are tested against the failure they exist to catch,
// not merely against clean runs.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/checkspec.h"
#include "check/invariants.h"
#include "check/reproducer.h"
#include "check/verify.h"
#include "core/dag.h"
#include "sched/ws_scheduler.h"
#include "simarch/cache.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

using check::CheckSpec;
using check::Checker;
using check::CheckViolation;
using check::CrashRepro;
using check::ShadowCache;

// ---------------------------------------------------------------- grammar

TEST(CheckSpecGrammar, SingleChecker) {
  const CheckSpec s = CheckSpec::parse("coherence");
  EXPECT_TRUE(s.coherence);
  EXPECT_FALSE(s.lru);
  EXPECT_FALSE(s.sched);
  EXPECT_FALSE(s.trace);
  EXPECT_EQ(s.period, 1024u);
  EXPECT_TRUE(s.any());
}

TEST(CheckSpecGrammar, AllWithPeriod) {
  const CheckSpec s = CheckSpec::parse("all,period=64");
  EXPECT_TRUE(s.coherence && s.lru && s.sched && s.trace);
  EXPECT_EQ(s.period, 64u);
}

TEST(CheckSpecGrammar, StrRoundTrips) {
  for (const char* spec :
       {"coherence", "all", "coherence,sched,trace", "lru,period=64",
        "all,period=1", "sched,period=4096"}) {
    const CheckSpec a = CheckSpec::parse(spec);
    const CheckSpec b = CheckSpec::parse(a.str());
    EXPECT_TRUE(a == b) << spec << " -> " << a.str();
  }
}

TEST(CheckSpecGrammar, Rejections) {
  for (const char* bad : {"", "bogus", "coherence,,sched", "coherence,",
                          "period=64", "coherence,period=0",
                          "coherence,period=-3", "coherence,period=x",
                          "coherence,coherence", "period=1,period=2,all",
                          "depth=4"}) {
    EXPECT_THROW(CheckSpec::parse(bad), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------- shadow model

TEST(ShadowModel, TrueLruEviction) {
  ShadowCache c(2, 2);
  // Set 0 lines: 0, 2, 4 (even); fill two, touch the older, install a
  // third — the untouched one must be the victim.
  EXPECT_FALSE(c.install(0, false, 0).valid);
  EXPECT_FALSE(c.install(2, false, 0).valid);
  ASSERT_NE(c.touch(0), nullptr);  // order now 0 (MRU), 2 (LRU)
  const ShadowCache::Evict ev = c.install(4, true, 0);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.way.line, 2u);
  EXPECT_NE(c.find(0), nullptr);
  EXPECT_NE(c.find(4), nullptr);
  EXPECT_EQ(c.find(2), nullptr);
  EXPECT_TRUE(c.erase(0));
  EXPECT_FALSE(c.erase(0));
}

// ------------------------------------------------------------ clean runs

CmpConfig tiny_config(int cores) {
  CmpConfig c;
  c.name = "tiny";
  c.cores = cores;
  c.l1_bytes = 1024;  // 8 lines
  c.l1_ways = 2;
  c.l2_bytes = 8192;  // 64 lines
  c.l2_ways = 4;
  c.l2_hit_cycles = 10;
  c.line_bytes = 128;
  c.mem_latency_cycles = 300;
  c.mem_service_cycles = 30;
  c.task_dispatch_cycles = 0;
  return c;
}

// A sharing-heavy workload: every task strides its private region and
// reads+writes a shared region, so hits, fills, evictions, invalidations
// and cross-core presence changes all occur.
TaskDag sharing_dag(int tasks) {
  DagBuilder b;
  const TaskId root = b.add_task({}, {RefBlock::compute(10)});
  for (int i = 0; i < tasks; ++i) {
    const TaskId deps[] = {root};
    const uint64_t priv = 0x10000u + static_cast<uint64_t>(i) * 4096;
    const RefBlock blocks[] = {
        RefBlock::stride_ref(priv, 24, 128, false, 4),
        RefBlock::stride_ref(0, 16, 128, (i % 2) == 0, 4),  // shared region
        RefBlock::stride_ref(priv, 24, 128, true, 4),
    };
    b.add_task(std::span<const TaskId>(deps, 1),
               std::span<const RefBlock>(blocks, 3));
  }
  return b.finish();
}

TEST(CheckedRun, CleanAndResultsUnchanged) {
  const TaskDag dag = sharing_dag(12);
  const CmpConfig cfg = tiny_config(4);
  WsScheduler base_s;
  CmpSimulator plain(cfg);
  const SimResult base = plain.run(dag, base_s);

  CmpSimulator sim(cfg);
  sim.set_check(CheckSpec::all(/*period=*/16));
  WsScheduler s;
  const SimResult r = sim.run(dag, s);
  EXPECT_EQ(check::diff_sim_results(base, r), "");
  EXPECT_GT(sim.check_stats().refs, 0u);
  EXPECT_GT(sim.check_stats().audits, 0u);
  EXPECT_GT(sim.check_stats().spot_checks, 0u);
  EXPECT_GT(sim.check_stats().picks, 0u);
}

TEST(CheckedRun, DisarmedRunReportsZeroStats) {
  const TaskDag dag = sharing_dag(4);
  CmpSimulator sim(tiny_config(2));
  WsScheduler s;
  (void)sim.run(dag, s);
  EXPECT_EQ(sim.check_stats().refs, 0u);
  EXPECT_EQ(sim.check_stats().audits, 0u);
}

// -------------------------------------------------- planted-bug mutations

// Each test drives the hooks exactly as a buggy engine would and asserts
// the violation is caught by the intended checker.

CheckViolation capture(const std::function<void()>& f) {
  try {
    f();
  } catch (const CheckViolation& e) {
    return e;
  }
  ADD_FAILURE() << "expected a CheckViolation";
  return CheckViolation("none", "not thrown", 0);
}

TEST(Mutation, FlippedLruTouchCaughtByLruChecker) {
  // Planted bug: the engine "forgets" to move a hit line to MRU (probe
  // instead of access), so a later fill evicts the wrong victim.
  const CmpConfig cfg = tiny_config(1);
  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  Checker chk(CheckSpec::all(/*period=*/1 << 30));
  chk.on_run_start(cfg, nullptr, nullptr, &l2);

  const uint64_t sets = l2.num_sets();
  SetAssocCache::Line* out = nullptr;
  SetAssocCache::Evicted ev;
  // Fill set 0 to capacity: lines 0, sets, 2*sets, 3*sets (4 ways).
  for (int i = 0; i < cfg.l2_ways; ++i) {
    ASSERT_FALSE(l2.access_or_install(sets * i, false, &out, &ev));
    chk.on_l2_miss(0, sets * i, false, ev);
  }
  // Hit line 0 — but the buggy engine probes without touching, so the
  // real LRU order still has line 0 as the victim.
  ASSERT_NE(l2.probe(0), nullptr);
  chk.on_l2_hit(0, 0, false);  // the shadow moves line 0 to MRU
  // One more fill: real evicts line 0, the reference model evicts sets*1.
  ASSERT_FALSE(l2.access_or_install(sets * 4, false, &out, &ev));
  ASSERT_TRUE(ev.valid);
  const CheckViolation v =
      capture([&] { chk.on_l2_miss(0, sets * 4, false, ev); });
  EXPECT_EQ(v.checker(), "lru");
  EXPECT_NE(v.detail().find("true-LRU victim"), std::string::npos)
      << v.detail();
}

TEST(Mutation, DroppedInvalidationCaughtByCoherenceChecker) {
  // Planted bug: a committed write leaves another core's L1 copy alive —
  // the engine never emits the on_inval the presence mask demands.
  const CmpConfig cfg = tiny_config(2);
  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  Checker chk(CheckSpec::all(/*period=*/1 << 30));
  chk.on_run_start(cfg, nullptr, nullptr, &l2);

  const uint64_t line = 7;
  SetAssocCache::Line* out = nullptr;
  SetAssocCache::Evicted ev;
  ASSERT_FALSE(l2.access_or_install(line, false, &out, &ev));
  out->presence = 1u << 0;
  chk.on_l2_miss(0, line, false, ev);
  chk.on_l1_fill(0, line, false, false, 0, false);  // core 0 caches it
  ASSERT_TRUE(l2.access_or_install(line, false, &out, &ev));
  out->presence |= 1u << 1;
  chk.on_l2_hit(1, line, false);
  chk.on_l1_fill(1, line, false, false, 0, false);  // core 1 caches it
  // Core 1 writes: the checker now expects on_inval(0, line)...
  ASSERT_TRUE(l2.access_or_install(line, true, &out, &ev));
  chk.on_l2_hit(1, line, true);
  // ...but the buggy engine proceeds straight to the next reference.
  const CheckViolation v = capture([&] { chk.on_l1_hit(1, line, true); });
  EXPECT_EQ(v.checker(), "coherence");
  EXPECT_NE(v.detail().find("dropped invalidation"), std::string::npos)
      << v.detail();
}

TEST(Mutation, UnexpectedInvalidationCaught) {
  // Dual of the dropped case: an invalidation the presence mask never
  // named (e.g. a line-aliasing bug) must also be flagged.
  const CmpConfig cfg = tiny_config(2);
  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  Checker chk(CheckSpec::all(/*period=*/1 << 30));
  chk.on_run_start(cfg, nullptr, nullptr, &l2);
  const CheckViolation v = capture([&] { chk.on_inval(1, 42); });
  EXPECT_EQ(v.checker(), "coherence");
  EXPECT_NE(v.detail().find("unexpected invalidation"), std::string::npos);
}

TaskDag two_task_chain() {
  DagBuilder b;
  const TaskId t0 = b.add_task({}, {RefBlock::compute(5)});
  const TaskId deps[] = {t0};
  const RefBlock blocks[] = {RefBlock::compute(5)};
  b.add_task(std::span<const TaskId>(deps, 1),
             std::span<const RefBlock>(blocks, 1));
  return b.finish();
}

TEST(Mutation, DoubleCompleteCaughtBySchedChecker) {
  const TaskDag dag = two_task_chain();
  const CmpConfig cfg = tiny_config(1);
  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  Checker chk(CheckSpec::all(/*period=*/1 << 30));
  chk.on_run_start(cfg, &dag, nullptr, &l2);
  chk.on_dispatch(0, 0);
  chk.on_complete(0, 0);
  const CheckViolation v = capture([&] { chk.on_complete(0, 0); });
  EXPECT_EQ(v.checker(), "sched");
  EXPECT_NE(v.detail().find("double-complete"), std::string::npos);
}

TEST(Mutation, DispatchBeforeDependenciesCaught) {
  const TaskDag dag = two_task_chain();
  const CmpConfig cfg = tiny_config(1);
  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  Checker chk(CheckSpec::all(/*period=*/1 << 30));
  chk.on_run_start(cfg, &dag, nullptr, &l2);
  const CheckViolation v = capture([&] { chk.on_dispatch(0, 1); });
  EXPECT_EQ(v.checker(), "sched");
  EXPECT_NE(v.detail().find("dependencies incomplete"), std::string::npos);
}

TEST(Mutation, DoubleDispatchCaught) {
  const TaskDag dag = two_task_chain();
  const CmpConfig cfg = tiny_config(1);
  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  Checker chk(CheckSpec::all(/*period=*/1 << 30));
  chk.on_run_start(cfg, &dag, nullptr, &l2);
  chk.on_dispatch(0, 0);
  const CheckViolation v = capture([&] { chk.on_dispatch(0, 0); });
  EXPECT_EQ(v.checker(), "sched");
  EXPECT_NE(v.detail().find("dispatched twice"), std::string::npos);
}

TEST(Mutation, WrongEventPickCaught) {
  // Planted bug: the engine's event selection returns a stale key pair —
  // core 2's event at cycle 7 is the earliest, but the pick names core 0.
  const CmpConfig cfg = tiny_config(4);
  Checker chk(CheckSpec::parse("sched"));
  chk.on_run_start(cfg, nullptr, nullptr, nullptr);
  using engine_detail::evt_key;
  const std::vector<uint64_t> keys = {evt_key(9, 0), UINT64_MAX,
                                      evt_key(7, 2), evt_key(9, 3)};
  chk.on_pick(keys, evt_key(7, 2), evt_key(9, 0));  // the true pick
  const CheckViolation v =
      capture([&] { chk.on_pick(keys, evt_key(9, 0), evt_key(9, 3)); });
  EXPECT_EQ(v.checker(), "sched");
  EXPECT_NE(v.detail().find("core 2 @ cycle 7"), std::string::npos)
      << v.detail();
  // A wrong second key alone (it bounds the picked core's run-ahead) is
  // caught too.
  EXPECT_THROW(chk.on_pick(keys, evt_key(7, 2), evt_key(9, 3)),
               CheckViolation);
  EXPECT_EQ(chk.stats().picks, 3u);
}

TEST(Mutation, AuditCatchesShadowRealDrift) {
  // A line the real L2 holds but the shadow never saw (a missed hook, a
  // stray install) must fail the full-state audit.
  const CmpConfig cfg = tiny_config(1);
  SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
  Checker chk(CheckSpec::all(/*period=*/1 << 30));
  chk.on_run_start(cfg, nullptr, nullptr, &l2);
  SetAssocCache::Line* out = nullptr;
  (void)l2.install(5, false, &out);  // behind the checker's back
  const CheckViolation v = capture([&] { chk.audit_now(); });
  EXPECT_EQ(v.checker(), "coherence");
}

TEST(Mutation, TraceFlipCaughtByExpansionSpotCheck) {
  // Expand a task through the batched expander, flip one op's line, and
  // compare against the reference cursor.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 8, 128, false, 4),
                  RefBlock::compute(100)});
  const TaskDag dag = b.finish();
  const int line_shift = 7;  // 128-byte lines
  const std::span<const PackedRef> blocks = dag.blocks(0);
  const engine_detail::TraceExpander ex{dag.interleave_data(), line_shift};
  uint32_t bi = 0;
  uint32_t ri = 0;
  uint32_t em[3] = {0, 0, 0};
  engine_detail::BufOp buf[engine_detail::kBufOps];
  const int n = ex.expand(blocks.data(), static_cast<uint32_t>(blocks.size()),
                          bi, ri, em, buf, engine_detail::kBufOps);
  ASSERT_GE(n, 2);

  {  // sanity: the unmutated batch passes
    TraceCursor cur = dag.cursor(0);
    Checker::compare_expansion(buf, n, cur, line_shift, 0);
  }
  buf[1].v ^= 1;  // the planted expander bug
  TraceCursor cur = dag.cursor(0);
  const CheckViolation v =
      capture([&] { Checker::compare_expansion(buf, n, cur, line_shift, 0); });
  EXPECT_EQ(v.checker(), "trace");
  EXPECT_EQ(v.op_index(), 1u);
}

TEST(Mutation, ViolationContextRoundTrips) {
  CheckViolation v("coherence", "detail", 17);
  EXPECT_FALSE(v.context().set);
  CheckViolation::Context c;
  c.set = true;
  c.app = "dnc:depth=4,fanout=2";
  c.sched = "ws";
  c.cores = 8;
  c.seed = 7;
  v.set_context(c);
  EXPECT_TRUE(v.context().set);
  EXPECT_EQ(v.context().app, "dnc:depth=4,fanout=2");
  EXPECT_EQ(v.context().cores, 8);
  EXPECT_EQ(v.op_index(), 17u);
  EXPECT_NE(std::string(v.what()).find("[coherence]"), std::string::npos);
}

// ------------------------------------------------------- result diff

TEST(DiffSimResults, DiffNamesTheDivergentField) {
  SimResult a;
  a.scheduler = "ws";
  a.cores = 4;
  a.cycles = 100;
  SimResult b = a;
  EXPECT_EQ(check::diff_sim_results(a, b), "");
  b.cycles = 101;
  EXPECT_EQ(check::diff_sim_results(a, b), "cycles: expected 100, actual 101");
}

// ------------------------------------------------------ crash reproducer

TEST(CrashReproFile, SerializeParseRoundTrips) {
  CrashRepro r;
  r.workload = "dnc:depth=4,fanout=2";
  r.sched = "ws:steal=half";
  r.tech = "default";
  r.cores = 8;
  r.scale = 0.25;
  r.task_ws = 4096;
  r.fine_grained = false;
  r.seed = 7;
  r.overrides.l2_hit_cycles = 19;
  r.check = "all,period=16";
  r.op_index = 12345;
  r.violation = "check violation [lru] at op 12345: multi\nline detail";
  const CrashRepro q = CrashRepro::parse(r.serialize());
  EXPECT_EQ(q.serialize(), r.serialize());
  EXPECT_EQ(q.workload, r.workload);
  EXPECT_EQ(q.sched, r.sched);
  EXPECT_EQ(q.cores, 8);
  EXPECT_EQ(q.scale, 0.25);
  EXPECT_EQ(q.task_ws, 4096u);
  EXPECT_FALSE(q.fine_grained);
  EXPECT_EQ(q.check, "all,period=16");
  EXPECT_EQ(q.op_index, 12345u);
  // Newlines are flattened on serialize — one key=value per line.
  EXPECT_EQ(q.violation.find('\n'), std::string::npos);
}

TEST(CrashReproFile, Rejections) {
  CrashRepro base;
  base.workload = "lu";
  base.sched = "ws";
  base.violation = "x";
  const std::string good = base.serialize();
  (void)CrashRepro::parse(good);  // the baseline itself must parse
  // An empty workload cannot name a job to replay.
  EXPECT_THROW(CrashRepro::parse(CrashRepro{}.serialize()),
               std::invalid_argument);
  // Bad magic.
  EXPECT_THROW(CrashRepro::parse("not-a-repro\n" + good),
               std::invalid_argument);
  EXPECT_THROW(CrashRepro::parse(""), std::invalid_argument);
  // Unknown key.
  EXPECT_THROW(CrashRepro::parse(good + "mystery=1\n"), std::invalid_argument);
  // Duplicate key.
  EXPECT_THROW(CrashRepro::parse(good + "cores=4\n"), std::invalid_argument);
  // Missing key: drop the cores= line.
  std::string missing = good;
  const size_t at = missing.find("cores=");
  ASSERT_NE(at, std::string::npos);
  missing.erase(at, missing.find('\n', at) - at + 1);
  EXPECT_THROW(CrashRepro::parse(missing), std::invalid_argument);
  // Malformed value.
  std::string badval = good;
  const size_t c = badval.find("cores=");
  badval.replace(c, badval.find('\n', c) - c, "cores=banana");
  EXPECT_THROW(CrashRepro::parse(badval), std::invalid_argument);
  // verify= was a v2 key; v3 has none.
  EXPECT_THROW(CrashRepro::parse(good + "verify=none\n"),
               std::invalid_argument);
}

TEST(CrashReproFile, RejectsOldVersionsWithAClearMessage) {
  CrashRepro base;
  base.workload = "lu";
  base.sched = "ws";
  const std::string v3_magic = "cachesched-crash-repro v3";
  for (const std::string version : {"v1", "v2"}) {
    std::string old = base.serialize();
    ASSERT_EQ(old.rfind(v3_magic, 0), 0u);
    old.replace(0, v3_magic.size(), "cachesched-crash-repro " + version);
    try {
      (void)CrashRepro::parse(old);
      ADD_FAILURE() << "a " << version << " reproducer parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(version + " reproducers are no longer supported"),
                std::string::npos)
          << what;
    }
  }
}

TEST(CrashReproFile, SaveLoadRoundTrips) {
  CrashRepro r;
  r.workload = "lu";
  r.sched = "pdf";
  r.violation = "x";
  const std::string path = ::testing::TempDir() + "/check_test_crash.repro";
  r.save(path);
  const CrashRepro q = CrashRepro::load(path);
  EXPECT_EQ(q.serialize(), r.serialize());
  EXPECT_THROW(CrashRepro::load(path + ".does-not-exist"),
               std::runtime_error);
}

}  // namespace
}  // namespace cachesched
