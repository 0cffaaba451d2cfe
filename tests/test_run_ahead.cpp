/**
 * @file
 * CPU run-ahead: inside Machine::run() a CPU executes its next
 * micro-op inline when nothing else is due before it
 * (EventQueue::runAhead).  These tests pin down that this changes how
 * many queue events a run takes and nothing else: same-tick device
 * events still fire first, a run forced to one event per micro-op (a
 * run hook) exports the same bytes, and owned lambda events are still
 * released.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "core/methods.hh"
#include "sim/event.hh"
#include "sim/json.hh"
#include "sim/span.hh"

namespace uldma {
namespace {

TEST(RunAhead, QueueAllowsOnlyStrictlyEarlierTicksWithinBounds)
{
    EventQueue eq;
    bool fired = false;
    eq.scheduleLambda("later", 100, [&fired] { fired = true; });

    // Off by default: a queue driven directly never runs ahead.
    EXPECT_FALSE(eq.runAhead(10));
    EXPECT_EQ(eq.now(), 0u);

    eq.setRunAheadBounds(maxTick, maxTick);
    EXPECT_FALSE(eq.runAhead(100)) << "a pending event at the same tick";
    EXPECT_TRUE(eq.runAhead(10));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.numProcessed(), 0u) << "inline steps are not events";

    eq.setRunAheadBounds(50, maxTick);
    EXPECT_FALSE(eq.runAhead(60)) << "past the run limit";
    EXPECT_TRUE(eq.runAhead(50));

    eq.setRunAheadBounds(maxTick, 50);
    EXPECT_FALSE(eq.runAhead(60)) << "now() reached the stop tick";

    eq.clearRunAheadBounds();
    EXPECT_FALSE(eq.runAhead(60));
    EXPECT_EQ(eq.now(), 50u);

    eq.runToExhaustion();
    EXPECT_TRUE(fired);
}

TEST(RunAhead, OwnedLambdasAreReleasedWhenFiredOrDropped)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.scheduleLambda("fires", 5, [token] {});
        eq.scheduleLambda("pending", 50, [token] {});
        EXPECT_EQ(token.use_count(), 3);
        eq.runUntil(10);
        EXPECT_EQ(token.use_count(), 2) << "fired lambda freed at once";
    }
    EXPECT_EQ(token.use_count(), 1) << "queue frees pending lambdas";
}

/** One process running @p prog alone on a default machine. */
struct SoloRun
{
    Machine machine{MachineConfig{}};

    explicit SoloRun(Program prog)
    {
        Kernel &kernel = machine.node(0).kernel();
        Process &p = kernel.createProcess("p");
        kernel.launch(p, std::move(prog));
        machine.start();
    }

    Cpu &cpu() { return machine.node(0).cpu(); }
};

TEST(RunAhead, SameTickDeviceEventStillFiresBeforeTheNextOp)
{
    std::vector<std::pair<std::string, Tick>> log;
    EventQueue *eq = nullptr;
    Tick step = 0;   // cost of each callback op below

    Program prog;
    auto logOp = [&log, &eq](const char *name) {
        return [&log, &eq, name](ExecContext &) {
            log.emplace_back(name, eq->now());
        };
    };
    constexpr Cycles extra = 9;
    // op0 schedules a device event and a default-priority event at
    // op2's tick; op1 adds a second device event at op2's tick.
    prog.callback(
        [&](ExecContext &) {
            log.emplace_back("op0", eq->now());
            eq->scheduleLambda("dev0", eq->now() + 2 * step, [&] {
                log.emplace_back("dev0", eq->now());
            }, Event::DevicePrio);
            eq->scheduleLambda("late", eq->now() + 2 * step, [&] {
                log.emplace_back("late", eq->now());
            }, Event::DefaultPrio);
        },
        extra);
    prog.callback(
        [&](ExecContext &) {
            log.emplace_back("op1", eq->now());
            eq->scheduleLambda("dev1", eq->now() + step, [&] {
                log.emplace_back("dev1", eq->now());
            }, Event::DevicePrio);
        },
        extra);
    prog.callback(logOp("op2"), extra);
    prog.callback(logOp("op3"), extra);
    prog.exit();

    SoloRun run(std::move(prog));
    eq = &run.machine.eventq();
    step = run.cpu().cyclesToTicks(run.cpu().params().baseInstrCycles) +
           run.cpu().cyclesToTicks(extra);
    ASSERT_TRUE(run.machine.run(tickPerSec));

    ASSERT_EQ(log.size(), 7u);
    const Tick t0 = log[0].second;
    const std::vector<std::pair<std::string, Tick>> expected = {
        {"op0", t0},
        {"op1", t0 + step},
        {"dev0", t0 + 2 * step},
        {"dev1", t0 + 2 * step},
        {"op2", t0 + 2 * step},
        {"late", t0 + 2 * step},
        {"op3", t0 + 3 * step},
    };
    EXPECT_EQ(log, expected);
}

TEST(RunAhead, StraightLineProgramTakesFarFewerEventsThanOps)
{
    constexpr int numOps = 2000;
    Program prog;
    for (int i = 0; i < numOps; ++i)
        prog.compute(1);
    prog.exit();

    SoloRun run(std::move(prog));
    ASSERT_TRUE(run.machine.run(tickPerSec));
    EXPECT_GE(run.cpu().instructionsRetired(), std::uint64_t(numOps));
    EXPECT_LT(run.machine.eventq().numProcessed(),
              std::uint64_t(numOps / 20));
}

/** Everything a small multi-process run exports. */
struct RunExports
{
    std::string stats;
    std::string spans;
    std::string timeseries;
    std::uint64_t retired = 0;
    std::uint64_t switches = 0;
    std::uint64_t events = 0;
};

/**
 * Three ExtShadow processes on a 10 us round-robin quantum with
 * compute between initiations, sampled every 2 us.  With
 * @p hooked a no-op run hook is installed, which turns run-ahead off.
 */
RunExports
runMixed(bool hooked)
{
    span::tracker().enable();

    MachineConfig config;
    configureNode(config.node, DmaMethod::ExtShadow);
    config.node.makeScheduler = []() {
        return std::make_unique<RoundRobinScheduler>(10 * tickPerUs);
    };
    Machine machine(config);
    prepareMachine(machine, DmaMethod::ExtShadow);
    machine.enableSampling(2 * tickPerUs);
    if (hooked)
        machine.setRunHook([](Tick) { return true; });

    Kernel &kernel = machine.node(0).kernel();
    for (int n = 0; n < 3; ++n) {
        Process &p = kernel.createProcess("p" + std::to_string(n));
        prepareProcess(kernel, p, DmaMethod::ExtShadow);
        const Addr src = kernel.allocate(p, pageSize, Rights::ReadWrite);
        const Addr dst = kernel.allocate(p, pageSize, Rights::ReadWrite);
        kernel.createShadowMappings(p, src, pageSize);
        kernel.createShadowMappings(p, dst, pageSize);
        Program prog;
        for (int i = 0; i < 6; ++i) {
            emitInitiation(prog, kernel, p, DmaMethod::ExtShadow, src, dst,
                           64 * (n + 1));
            for (int c = 0; c < 40 * (n + 1); ++c)
                prog.compute(3);
            prog.membar();
        }
        prog.exit();
        kernel.launch(p, std::move(prog));
    }
    machine.start();
    EXPECT_TRUE(machine.run(tickPerSec));

    RunExports out;
    std::ostringstream stats_os, spans_os, ts_os;
    machine.dumpStatsJson(stats_os);
    span::tracker().exportJson(spans_os);
    span::tracker().disable();
    machine.dumpTimeseriesJson(ts_os);
    out.stats = stats_os.str();
    out.spans = spans_os.str();
    out.timeseries = ts_os.str();
    out.retired = machine.node(0).cpu().instructionsRetired();
    out.switches = kernel.numContextSwitches();
    out.events = machine.eventq().numProcessed();
    return out;
}

TEST(RunAhead, ExportsMatchARunWithOneEventPerOp)
{
    const RunExports ahead = runMixed(/*hooked=*/false);
    const RunExports per_op = runMixed(/*hooked=*/true);

    // Not vacuous: run-ahead really skipped queue events, and the run
    // switched contexts, sampled and completed transfers.
    EXPECT_LT(ahead.events * 4, per_op.events);
    EXPECT_GE(per_op.events, per_op.retired);
    EXPECT_GT(per_op.switches, 3u);
    EXPECT_GT(json::parse(ahead.timeseries)["samples"].size(), 10u);
    EXPECT_EQ(json::parse(ahead.spans)["spans"].size(), 18u);

    EXPECT_EQ(ahead.retired, per_op.retired);
    EXPECT_EQ(ahead.switches, per_op.switches);
    EXPECT_EQ(ahead.stats, per_op.stats);
    EXPECT_EQ(ahead.spans, per_op.spans);
    EXPECT_EQ(ahead.timeseries, per_op.timeseries);
}

} // namespace
} // namespace uldma
