/**
 * @file
 * uldma_perfbench — the measuring half of the host-performance
 * benchmark (perfbench/README.md).  It drives one workload through
 * the simulator's public entry points, times each call from outside,
 * checks every iteration's output, and prints one JSON document of raw
 * samples on stdout.  perfbench/run.py builds this program, runs it and
 * turns the samples into metrics; all statistics live there.
 *
 *   uldma_perfbench --workload storm --seed 3 --seconds 20 --trace 0
 *
 * Workloads: table1 (measureTable1), storm (the multitenant_storm
 * scenario scaled up), shards (perfbench/scenarios/shards.json on two
 * threads) and fuzz (swarm check::fuzz campaigns, one per iteration).
 * With --trace 0 it times whole iterations and set-up probes.  With
 * --trace 1 it alternates untraced and traced iterations; a traced one
 * enables the profiler, snapshots the stats registry and times every
 * public call.  Either way it times a fixed host-speed reference loop
 * before each iteration and after the last, so run.py can tell a slow
 * host from a slow program.
 * Nothing inside src/ is changed or instrumented for it.
 *
 * Exit status: 0 when every check passed, 1 when a check failed,
 * 2 on a usage or input error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzzer.hh"
#include "check/runner.hh"
#include "core/experiment.hh"
#include "core/machine.hh"
#include "prof/profiler.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"
#include "workload/parallel.hh"
#include "workload/report.hh"
#include "workload/scenario.hh"
#include "workload/shard.hh"

using namespace uldma;
namespace wl = uldma::workload;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

/// @name Benchmark-owned input sizes (perfbench/README.md).
/// @{
constexpr char kStormPath[] = "scenarios/multitenant_storm.json";
/** Per-tenant initiations and adversarial ops are multiplied by this. */
constexpr unsigned kStormScale = 5;
constexpr char kShardsPath[] = "perfbench/scenarios/shards.json";
constexpr unsigned kShardsThreads = 2;
constexpr unsigned kTable1Iterations = 1000;
constexpr std::uint64_t kFuzzBudget = 4000;
constexpr unsigned kFuzzMaxPoints = 6;
/** Schedules per swarm config: small, so one campaign draws ~250
 *  configs and its cost does not hinge on the seed's first few draws. */
constexpr unsigned kFuzzBatch = 8;
/** Set-up probes per fuzz iteration (one probe is ~0.2 ms). */
constexpr unsigned kFuzzSetupProbes = 16;
/** Timed runSchedule calls per traced fuzz round. */
constexpr unsigned kRunScheduleReps = 50;
/** Iterations run even when --seconds has already elapsed. */
constexpr unsigned kMinIterations = 3;
/** Reference loop: steps over a table of this many 32-bit words. */
constexpr unsigned kReferenceSteps = 3000000;
constexpr std::uint32_t kReferenceWords = 1u << 20;
/// @}

/**
 * Time one pass of the host-speed reference loop: a fixed xorshift
 * sequence of read-modify-writes scattered over a 4 MiB table, so it
 * needs the core and the caches as the simulator does.  It runs
 * between iterations, never during one; run.py divides host times by
 * it (perfbench/README.md, "Host-speed reference").
 */
std::uint64_t
referenceNs()
{
    static std::vector<std::uint32_t> table(kReferenceWords);
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (unsigned i = 0; i < kReferenceSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += table[x & (kReferenceWords - 1)];
        table[(acc ^ (x >> 24)) & (kReferenceWords - 1)] +=
            static_cast<std::uint32_t>(x);
    }
    // Keep the loop: its result is otherwise unused.
    __asm__ volatile("" : : "g"(acc) : "memory");
    return nsBetween(start, Clock::now());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

/** Correctness checks: failures counted, first few described. */
struct Checks
{
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    void
    expect(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed;
        if (messages.size() < 16)
            messages.push_back(what);
    }
};

/** One timed iteration: wall time and what it did. */
struct Iteration
{
    std::uint64_t wallNs = 0;
    /** Completed operations (transfers, initiations or execs). */
    std::uint64_t work = 0;
    /** Operations offered, and how many of them failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Phases of one traced iteration, host ns (perfbench/README.md). */
struct TracedIteration
{
    std::uint64_t wallNs = 0;
    std::uint64_t untracedWallNs = 0;
    std::uint64_t parseNs = 0;
    std::uint64_t planNs = 0;
    /** runWorkload entry to the inspectMachine callback, per shard. */
    std::vector<std::uint64_t> toInspectNs;
    /** machine.run inclusive host ns, per shard (profile). */
    std::vector<std::uint64_t> runNs;
    /** inspectMachine callback to runWorkload return, per shard. */
    std::vector<std::uint64_t> teardownNs;
    std::uint64_t reportNs = 0;
    /** Probe-measured set-up (table1, fuzz): charged whole. */
    std::uint64_t setupProbeNs = 0;
};

/** Host windows of one runParallelWorkload call. */
struct PoolSample
{
    std::uint64_t callNs = 0;
    std::uint64_t lastEndNs = 0;
    std::uint64_t busyNs = 0;
    unsigned threads = 0;
};

/** Everything the run collects; serialised by writeResult(). */
struct Collected
{
    std::vector<Iteration> iterations;
    std::vector<std::uint64_t> setupNs;
    /** Reference loop before each iteration and after the last. */
    std::vector<std::uint64_t> referenceNs;
    std::vector<TracedIteration> traced;
    std::vector<PoolSample> pool;
    std::vector<std::uint64_t> initBuildNs;
    std::vector<std::uint64_t> runScheduleNs;
    /** Simulated results (repeat exactly for a seed). */
    std::map<std::string, double> sim;
    /** Registry scalars summed over nodes, keyed "<group>.<scalar>"
     *  with the "nodeN." prefix dropped. */
    std::map<std::string, std::uint64_t> scalars;
    /** Registry averages summed over nodes: count and sum. */
    std::map<std::string, std::pair<std::uint64_t, double>> averages;
    /** Simulated us summed over nodes (last traced iteration): the
     *  base of the transfer engines' busy fraction. */
    double nodeDurationUs = 0.0;
    /** Scalars registered by one machine. */
    std::uint64_t statScalarsPerMachine = 0;
    prof::ProfileNode profile;
    unsigned profiledIterations = 0;
    unsigned nodesAlive = 1;
    std::string input;
    Checks checks;
};

/// @name Scenario workloads (storm, shards).
/// @{

struct ScenarioWorkload
{
    const char *path;
    unsigned scale;
    unsigned threads;
};

wl::Scenario
loadScenario(const ScenarioWorkload &w)
{
    wl::Scenario scenario;
    std::string error;
    if (!wl::loadScenarioFile(w.path, scenario, &error))
        throw std::runtime_error(std::string(w.path) + ": " + error);
    for (wl::StreamSpec &stream : scenario.streams) {
        stream.initiations *= w.scale;
        stream.ops *= w.scale;
    }
    return scenario;
}

/** What one whole-scenario iteration produced. */
struct ScenarioOutcome
{
    Iteration iteration;
    PoolSample pool;
    std::string report;
    std::vector<double> e2eUs;
    double durationUs = 0.0;
};

/**
 * Check a merged result: the run finished, every protocol row's spans
 * add up, and every offered worker byte completed.  Rows count spans,
 * so a scatter-gather transfer completes one span per page segment:
 * completed spans may exceed offered initiations, bytes may not differ.
 */
void
checkResult(const wl::WorkloadResult &result, Checks &checks)
{
    checks.expect(result.finished, "scenario did not finish");
    for (const wl::ProtocolStats &row : result.protocols) {
        checks.expect(row.opened == row.completed + row.rejected +
                                       row.keyMismatch + row.aborted +
                                       row.inFlight,
                      "protocol " + row.protocol +
                          ": opened != completed + rejected + "
                          "key_mismatch + aborted + in_flight");
        if (row.offeredInitiations == 0)
            continue;
        checks.expect(row.completed >= row.offeredInitiations &&
                          row.completedBytes == row.offeredBytes,
                      "protocol " + row.protocol +
                          ": offered worker initiations did not all "
                          "complete");
    }
    for (const wl::StreamRuntime &stream : result.streams) {
        if (!stream.spec->adversarial)
            checks.expect(stream.failures == 0,
                          "stream " + stream.spec->name +
                              " saw a failure status");
    }
}

/** Parse, plan, run and report once — the pipeline uldma_workload runs.
 *  @p limit_us > 0 cuts the simulation short (the set-up probe). */
ScenarioOutcome
runScenario(const ScenarioWorkload &w, std::uint64_t seed, unsigned threads,
            std::uint64_t limit_us, Checks *checks)
{
    ScenarioOutcome out;
    const Clock::time_point start = Clock::now();
    wl::Scenario scenario = loadScenario(w);
    if (limit_us > 0)
        scenario.limitUs = limit_us;

    wl::ParallelOptions options;
    options.threads = threads;
    const Clock::time_point call = Clock::now();
    const wl::ParallelResult run =
        wl::runParallelWorkload(scenario, seed, options);
    out.pool.callNs = nsBetween(call, Clock::now());
    out.pool.threads = std::min<unsigned>(
        threads, static_cast<unsigned>(run.shards.size()));
    for (const wl::ShardOutput &shard : run.shards) {
        out.pool.lastEndNs = std::max(out.pool.lastEndNs, shard.hostEndNs);
        out.pool.busyNs += shard.hostEndNs - shard.hostStartNs;
    }

    std::ostringstream report;
    const std::vector<wl::ShardReportInfo> infos = run.shardInfos();
    wl::writeWorkloadReport(report, scenario, run.merged, true, &infos);
    out.report = report.str();
    out.iteration.wallNs = nsBetween(start, Clock::now());

    const wl::WorkloadResult &merged = run.merged;
    out.durationUs = merged.durationUs;
    std::uint64_t not_completed = 0;
    for (const wl::ProtocolStats &row : merged.protocols) {
        if (row.offeredInitiations == 0)
            continue;
        out.iteration.attempted += row.offeredInitiations;
        out.iteration.work += row.completed;
        if (row.completed < row.offeredInitiations)
            not_completed += row.offeredInitiations - row.completed;
        out.e2eUs.insert(out.e2eUs.end(), row.e2eUs.begin(),
                         row.e2eUs.end());
    }
    std::uint64_t failure_status = 0;
    for (const wl::StreamRuntime &stream : merged.streams) {
        if (!stream.spec->adversarial)
            failure_status += stream.failures;
    }
    out.iteration.failed = std::min(out.iteration.attempted,
                                    not_completed + failure_status);
    std::sort(out.e2eUs.begin(), out.e2eUs.end());
    if (checks)
        checkResult(merged, *checks);
    return out;
}

/** Sum every scalar and average of @p groups into @p c, dropping the
 *  "nodeN." prefix so nodes of one kind add up. */
void
accumulateStats(const std::vector<stats::GroupSnapshot> &groups,
                Collected &c)
{
    for (const stats::GroupSnapshot &group : groups) {
        std::string kind = group.name;
        if (kind.rfind("node", 0) == 0) {
            const std::size_t dot = kind.find('.');
            kind = dot == std::string::npos ? "node" : kind.substr(dot + 1);
        }
        for (const auto &s : group.scalars)
            c.scalars[kind + "." + s.name] += s.value;
        for (const auto &a : group.averages) {
            auto &slot = c.averages[kind + "." + a.name];
            slot.first += a.count;
            slot.second += a.sum;
        }
    }
}

/** Inclusive host ns of every "machine.run" scope under @p node. */
std::uint64_t
machineRunNs(const prof::ProfileNode &node)
{
    if (node.name == "machine.run")
        return node.hostNs;
    std::uint64_t total = 0;
    for (const prof::ProfileNode &child : node.children)
        total += machineRunNs(child);
    return total;
}

/**
 * One traced iteration: the same work as runScenario at one thread,
 * but each shard runs through runWorkload directly on this thread (with
 * the plan's seed-identity maps, exactly as the shard pool does) so the
 * inspectMachine hook can split set-up from teardown.  The profiler
 * and a registry snapshot ride along; the snapshot must repeat exactly
 * from one traced iteration to the next.
 */
TracedIteration
tracedScenario(const ScenarioWorkload &w, std::uint64_t seed, Collected &c)
{
    TracedIteration t;
    const Clock::time_point start = Clock::now();
    const wl::Scenario scenario = loadScenario(w);
    const Clock::time_point parsed = Clock::now();
    const wl::ShardPlan plan = wl::planShards(scenario);
    const Clock::time_point planned = Clock::now();
    t.parseNs = nsBetween(start, parsed);
    t.planNs = nsBetween(parsed, planned);

    std::vector<stats::GroupSnapshot> snapshot;
    std::vector<prof::ProfileNode> profiles{c.profile};
    double node_duration_us = 0.0;
    for (const wl::Shard &shard : plan.shards) {
        Clock::time_point inspected{};
        wl::WorkloadOptions options;
        options.nodeSeedIds = shard.nodes;
        options.streamSeedIds.assign(shard.streams.begin(),
                                     shard.streams.end());
        options.inspectMachine = [&](Machine &machine) {
            inspected = Clock::now();
            std::vector<stats::GroupSnapshot> groups =
                stats::snapshotRegistry(machine.statsRegistry());
            c.statScalarsPerMachine = 0;
            for (const stats::GroupSnapshot &g : groups)
                c.statScalarsPerMachine += g.scalars.size();
            snapshot.insert(snapshot.end(), groups.begin(), groups.end());
        };

        prof::profiler().enable();
        const Clock::time_point entry = Clock::now();
        const wl::WorkloadResult result =
            wl::runWorkload(shard.scenario, seed, options);
        const Clock::time_point returned = Clock::now();
        const prof::ProfileNode root = prof::profiler().snapshot();
        prof::profiler().disable();

        t.toInspectNs.push_back(nsBetween(entry, inspected));
        t.teardownNs.push_back(nsBetween(inspected, returned));
        t.runNs.push_back(machineRunNs(root));
        profiles.push_back(root);
        node_duration_us += result.durationUs * shard.nodes.size();

        wl::ShardReportInfo info;
        info.id = shard.id;
        info.nodes = shard.nodes;
        info.streams.assign(shard.streams.begin(), shard.streams.end());
        info.durationUs = result.durationUs;
        info.finished = result.finished;
        const std::vector<wl::ShardReportInfo> infos{info};
        std::ostringstream report;
        const Clock::time_point report_start = Clock::now();
        wl::writeWorkloadReport(report, shard.scenario, result, true,
                                &infos);
        t.reportNs += nsBetween(report_start, Clock::now());
        checkResult(result, c.checks);
    }
    t.wallNs = nsBetween(start, Clock::now());
    c.profile = prof::mergeProfiles(profiles);
    ++c.profiledIterations;
    const std::map<std::string, std::uint64_t> previous = c.scalars;
    c.nodeDurationUs = node_duration_us;
    c.scalars.clear();
    c.averages.clear();
    accumulateStats(snapshot, c);
    c.checks.expect(previous.empty() || previous == c.scalars,
                    "stats scalars differ between traced iterations of "
                    "one seed");
    return t;
}

/** Simulated end-to-end results of one full scenario run. */
void
recordScenarioSim(const ScenarioOutcome &o, Collected &c)
{
    c.sim["e2e_p50_us"] = stats::percentileOfSorted(o.e2eUs, 50.0);
    c.sim["e2e_p99_us"] = stats::percentileOfSorted(o.e2eUs, 99.0);
    c.sim["xfers_per_sim_s"] =
        o.durationUs > 0.0
            ? static_cast<double>(o.iteration.work) / (o.durationUs / 1e6)
            : 0.0;
}

void
runScenarioWorkload(const ScenarioWorkload &w, const Args &args,
                    Collected &c)
{
    const wl::Scenario probe = loadScenario(w);
    const wl::ShardPlan plan = wl::planShards(probe);
    unsigned nodes_per_shard = 1;
    for (const wl::Shard &shard : plan.shards)
        nodes_per_shard = std::max<unsigned>(nodes_per_shard,
                                             shard.nodes.size());
    c.nodesAlive =
        nodes_per_shard *
        std::min<unsigned>(w.threads,
                           static_cast<unsigned>(plan.shards.size()));
    c.input = std::string(w.path) + " x" + std::to_string(w.scale) + ", " +
              std::to_string(plan.shards.size()) + " shard(s), " +
              std::to_string(w.threads) + " thread(s)";

    std::string first_report;
    auto expectSameReport = [&](const ScenarioOutcome &o) {
        if (first_report.empty())
            first_report = o.report;
        c.checks.expect(o.report == first_report,
                        "report bytes differ between iterations of one "
                        "seed");
    };

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (unsigned i = 0; i < kMinIterations || Clock::now() < deadline;
         ++i) {
        c.referenceNs.push_back(referenceNs());
        if (!args.trace) {
            const ScenarioOutcome setup =
                runScenario(w, args.seed, w.threads, 1, nullptr);
            c.setupNs.push_back(setup.iteration.wallNs);
            const ScenarioOutcome full =
                runScenario(w, args.seed, w.threads, 0, &c.checks);
            c.iterations.push_back(full.iteration);
            expectSameReport(full);
            recordScenarioSim(full, c);
            continue;
        }
        // Traced round: an untraced one-thread run (the overhead
        // baseline), the traced run, and — when the workload uses more
        // threads — a pool run for the merge and busy figures.
        const ScenarioOutcome base =
            runScenario(w, args.seed, 1, 0, &c.checks);
        expectSameReport(base);
        recordScenarioSim(base, c);
        c.iterations.push_back(base.iteration);
        TracedIteration t = tracedScenario(w, args.seed, c);
        t.untracedWallNs = base.iteration.wallNs;
        c.traced.push_back(t);
        if (w.threads > 1) {
            const ScenarioOutcome pooled =
                runScenario(w, args.seed, w.threads, 0, &c.checks);
            expectSameReport(pooled);
            c.pool.push_back(pooled.pool);
        } else {
            c.pool.push_back(base.pool);
        }
    }
    c.referenceNs.push_back(referenceNs());

    // Once per run: the pooled report must not depend on the thread
    // count.
    if (w.threads > 1) {
        const ScenarioOutcome serial =
            runScenario(w, args.seed, 1, 0, &c.checks);
        c.checks.expect(serial.report == first_report,
                        "threads-" + std::to_string(w.threads) +
                            " report differs from threads-1");
    }
}

/// @}

/// @name table1.

/** Scalars one machine of the Table-1 ext-shadow configuration
 *  registers (what every measureInitiation call builds). */
std::uint64_t
table1StatScalars()
{
    MachineConfig mc;
    configureNode(mc.node, DmaMethod::ExtShadow);
    Machine machine(mc);
    prepareMachine(machine, DmaMethod::ExtShadow);
    std::uint64_t n = 0;
    for (const auto &g : stats::snapshotRegistry(machine.statsRegistry()))
        n += g.scalars.size();
    return n;
}

Iteration
runTable1(unsigned iterations, Collected &c, bool check,
          std::vector<InitiationMeasurement> *rows_out = nullptr)
{
    Iteration it;
    const Clock::time_point start = Clock::now();
    const std::vector<InitiationMeasurement> rows =
        measureTable1(iterations);
    it.wallNs = nsBetween(start, Clock::now());
    for (const InitiationMeasurement &m : rows) {
        it.attempted += m.iterations;
        it.work += m.initiationsStarted;
        it.failed += m.iterations - std::min<std::uint64_t>(m.iterations,
                                                            m.successes);
        if (check) {
            c.checks.expect(m.initiationsStarted == m.iterations &&
                                m.successes == m.iterations,
                            std::string("table1 ") + toString(m.method) +
                                ": initiationsStarted == successes == "
                                "iterations does not hold");
        }
    }
    if (rows_out)
        *rows_out = rows;
    return it;
}

void
recordTable1Sim(const std::vector<InitiationMeasurement> &rows,
                Collected &c)
{
    double instr = 0.0, uncached = 0.0;
    for (const InitiationMeasurement &m : rows) {
        const std::string key = toString(m.method);
        c.sim["avg_us." + key] = m.avgUs;
        c.sim["paper_us." + key] = paperTable1Us(m.method);
        instr += m.instructions;
        uncached += m.uncachedAccesses;
    }
    c.sim["instr_per_init"] = instr / rows.size();
    c.sim["uncached_per_init"] = uncached / rows.size();
}

void
runTable1Workload(const Args &args, Collected &c)
{
    c.input = "measureTable1, 4 rows x " +
              std::to_string(kTable1Iterations) +
              " initiations (seed ignored)";
    std::vector<double> first_avg;
    auto expectSameRows = [&](const std::vector<InitiationMeasurement> &r) {
        std::vector<double> avg;
        for (const InitiationMeasurement &m : r)
            avg.push_back(m.avgUs);
        if (first_avg.empty())
            first_avg = avg;
        c.checks.expect(avg == first_avg,
                        "table1 avg_us differs between iterations");
    };

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (unsigned i = 0; i < kMinIterations || Clock::now() < deadline;
         ++i) {
        c.referenceNs.push_back(referenceNs());
        const Iteration setup = runTable1(1, c, false);
        std::vector<InitiationMeasurement> rows;
        const Iteration full = runTable1(kTable1Iterations, c, true, &rows);
        expectSameRows(rows);
        recordTable1Sim(rows, c);
        c.iterations.push_back(full);
        if (!args.trace) {
            c.setupNs.push_back(setup.wallNs);
            continue;
        }
        MeasureConfig one;
        one.iterations = 1;
        const Clock::time_point build = Clock::now();
        measureInitiation(one);
        c.initBuildNs.push_back(nsBetween(build, Clock::now()));

        prof::profiler().enable();
        const Iteration traced = runTable1(kTable1Iterations, c, true);
        const prof::ProfileNode root = prof::profiler().snapshot();
        prof::profiler().disable();
        c.profile = prof::mergeProfiles({c.profile, root});
        ++c.profiledIterations;

        TracedIteration t;
        t.wallNs = traced.wallNs;
        t.untracedWallNs = full.wallNs;
        t.runNs.push_back(machineRunNs(root));
        t.setupProbeNs = setup.wallNs;
        c.traced.push_back(t);
    }
    c.referenceNs.push_back(referenceNs());
    if (args.trace)
        c.statScalarsPerMachine = table1StatScalars();
}

/// @}

/// @name fuzz.

check::FuzzConfig
fuzzConfig(std::uint64_t seed, std::uint64_t budget, bool swarm)
{
    check::FuzzConfig config;
    config.swarm = swarm;
    config.seed = seed;
    config.budgetSchedules = budget;
    config.maxPoints = kFuzzMaxPoints;
    config.batchSchedules = kFuzzBatch;
    return config;
}

Iteration
runFuzz(const check::FuzzConfig &config, check::FuzzReport &report)
{
    Iteration it;
    const Clock::time_point start = Clock::now();
    report = check::fuzz(config);
    it.wallNs = nsBetween(start, Clock::now());
    it.work = report.execs + report.shrinkExecs;
    it.attempted = it.work;
    it.failed = report.unexpectedFindings;
    return it;
}

/** Scalars one checker machine registers (what every exec builds). */
std::uint64_t
fuzzStatScalars()
{
    MachineConfig mc;
    mc.node.memBytes = 2 * 1024 * 1024;
    configureNode(mc.node, DmaMethod::Repeated5);
    Machine machine(mc);
    prepareMachine(machine, DmaMethod::Repeated5);
    std::uint64_t n = 0;
    for (const auto &g : stats::snapshotRegistry(machine.statsRegistry()))
        n += g.scalars.size();
    return n;
}

/** Seed of the campaign iteration @p i runs: @p seed itself first,
 *  then splitmix64 steps from it, so every iteration draws its own
 *  config mix. */
std::uint64_t
campaignSeed(std::uint64_t seed, unsigned i)
{
    if (i == 0)
        return seed;
    std::uint64_t z = seed + (i + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
recordFuzzSim(const check::FuzzReport &report, Collected &c)
{
    c.sim["edges"] = static_cast<double>(report.coverageEdges);
    c.sim["corpus"] = static_cast<double>(report.corpusSize);
    c.sim["execs"] = static_cast<double>(report.execs);
    c.sim["shrink_execs"] = static_cast<double>(report.shrinkExecs);
}

void
runFuzzWorkload(const Args &args, Collected &c)
{
    c.input = "swarm fuzz, one campaign per iteration, budget " +
              std::to_string(kFuzzBudget) + " schedules, " +
              std::to_string(kFuzzBatch) + " per config, shrinking on";
    check::FuzzReport first;

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (unsigned i = 0; i < kMinIterations || Clock::now() < deadline;
         ++i) {
        c.referenceNs.push_back(referenceNs());
        // Set-up probe: fuzzer set-up plus one exec on the default config
        // (a swarm campaign's first config, and so its cost, depends on
        // the seed).
        check::FuzzReport probe_report;
        Iteration setup;
        for (unsigned p = 0; p < kFuzzSetupProbes; ++p) {
            setup = runFuzz(fuzzConfig(args.seed, 1, false), probe_report);
            if (!args.trace)
                c.setupNs.push_back(setup.wallNs);
        }
        // One campaign's cost depends on the configs its seed draws, so
        // each iteration runs its own; the run's median then does not
        // hinge on one seed.
        const check::FuzzConfig config =
            fuzzConfig(campaignSeed(args.seed, i), kFuzzBudget, true);
        check::FuzzReport report;
        const Iteration full = runFuzz(config, report);
        c.iterations.push_back(full);
        c.checks.expect(report.unexpectedFindings == 0,
                        "fuzz: unexpected finding on an un-weakened "
                        "config");
        if (i == 0) {
            first = report;
            recordFuzzSim(report, c);
        }
        if (!args.trace)
            continue;

        const check::RunnerConfig fixed;
        for (unsigned r = 0; r < kRunScheduleReps; ++r) {
            const Clock::time_point start = Clock::now();
            const check::RunResult run = check::runSchedule(fixed, {});
            c.runScheduleNs.push_back(nsBetween(start, Clock::now()));
            c.checks.expect(run.finished && run.violations.empty(),
                            "runSchedule on the fixed config failed");
        }

        prof::profiler().enable();
        check::FuzzReport traced_report;
        const Iteration traced = runFuzz(config, traced_report);
        const prof::ProfileNode root = prof::profiler().snapshot();
        prof::profiler().disable();
        c.checks.expect(traced_report.coverageEdges == report.coverageEdges &&
                            traced_report.corpusSize == report.corpusSize,
                        "fuzz: the traced rerun of a campaign changed "
                        "edges or corpus");
        // Profile counts come from the first campaigns only, which every
        // run makes, so they repeat for a seed whatever the run length.
        if (i < kMinIterations) {
            c.profile = prof::mergeProfiles({c.profile, root});
            ++c.profiledIterations;
        }

        TracedIteration t;
        t.wallNs = traced.wallNs;
        t.untracedWallNs = full.wallNs;
        t.runNs.push_back(machineRunNs(root));
        t.setupProbeNs = setup.wallNs;
        c.traced.push_back(t);
    }
    c.referenceNs.push_back(referenceNs());

    // Once per run, untimed: the first campaign reruns to the same
    // edges and corpus.
    check::FuzzReport rerun;
    runFuzz(fuzzConfig(campaignSeed(args.seed, 0), kFuzzBudget, true),
            rerun);
    c.checks.expect(rerun.coverageEdges == first.coverageEdges &&
                        rerun.corpusSize == first.corpusSize,
                    "fuzz: a rerun at the same seed changed edges or "
                    "corpus");
    if (args.trace)
        c.statScalarsPerMachine = fuzzStatScalars();
}

/// @}

/// @name Output.

void
writeNsArray(json::Writer &w, const std::string &key,
             const std::vector<std::uint64_t> &values)
{
    w.key(key);
    w.beginArray();
    for (std::uint64_t v : values)
        w.value(v);
    w.endArray();
}

void
writeProfile(json::Writer &w, const prof::ProfileNode &node,
             const std::string &parent)
{
    for (const prof::ProfileNode &child : node.children) {
        const std::string path =
            parent.empty() ? child.name : parent + "/" + child.name;
        w.beginObject();
        w.member("path", path);
        w.member("count", child.count);
        w.member("ns", child.hostNs);
        w.endObject();
        writeProfile(w, child, path);
    }
}

void
writeResult(std::ostream &os, const Args &args, const Collected &c)
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);

    json::Writer w(os, /*pretty=*/false);
    w.beginObject();
    w.member("workload", args.workload);
    w.member("seed", args.seed);
    w.member("trace", args.trace);
    w.member("input", c.input);
    w.member("peak_rss_kib", static_cast<std::int64_t>(usage.ru_maxrss));
    w.member("nodes_alive", static_cast<std::uint64_t>(c.nodesAlive));
    w.member("ticks_per_us", static_cast<std::uint64_t>(tickPerUs));

    w.key("iterations");
    w.beginArray();
    for (const Iteration &it : c.iterations) {
        w.beginObject();
        w.member("wall_ns", it.wallNs);
        w.member("work", it.work);
        w.member("attempted", it.attempted);
        w.member("failed", it.failed);
        w.endObject();
    }
    w.endArray();
    writeNsArray(w, "setup_ns", c.setupNs);
    writeNsArray(w, "reference_ns", c.referenceNs);

    w.key("checks");
    w.beginObject();
    w.member("failed", c.checks.failed);
    w.key("messages");
    w.beginArray();
    for (const std::string &m : c.checks.messages)
        w.value(m);
    w.endArray();
    w.endObject();

    w.key("sim");
    w.beginObject();
    for (const auto &[k, v] : c.sim)
        w.member(k, v);
    w.endObject();

    if (args.trace) {
        w.key("traced");
        w.beginArray();
        for (const TracedIteration &t : c.traced) {
            w.beginObject();
            w.member("wall_ns", t.wallNs);
            w.member("untraced_wall_ns", t.untracedWallNs);
            w.member("parse_ns", t.parseNs);
            w.member("plan_ns", t.planNs);
            writeNsArray(w, "to_inspect_ns", t.toInspectNs);
            writeNsArray(w, "run_ns", t.runNs);
            writeNsArray(w, "teardown_ns", t.teardownNs);
            w.member("report_ns", t.reportNs);
            w.member("setup_probe_ns", t.setupProbeNs);
            w.endObject();
        }
        w.endArray();

        w.key("pool");
        w.beginArray();
        for (const PoolSample &p : c.pool) {
            w.beginObject();
            w.member("call_ns", p.callNs);
            w.member("last_end_ns", p.lastEndNs);
            w.member("busy_ns", p.busyNs);
            w.member("threads", static_cast<std::uint64_t>(p.threads));
            w.endObject();
        }
        w.endArray();
        writeNsArray(w, "init_build_ns", c.initBuildNs);
        writeNsArray(w, "run_schedule_ns", c.runScheduleNs);

        w.key("scalars");
        w.beginObject();
        for (const auto &[k, v] : c.scalars)
            w.member(k, v);
        w.endObject();
        w.key("averages");
        w.beginObject();
        for (const auto &[k, v] : c.averages) {
            w.key(k);
            w.beginObject();
            w.member("count", v.first);
            w.member("sum", v.second);
            w.endObject();
        }
        w.endObject();
        w.member("node_duration_us", c.nodeDurationUs);
        w.member("stat_scalars_per_machine", c.statScalarsPerMachine);
        w.member("profiled_iterations",
                 static_cast<std::uint64_t>(c.profiledIterations));
        w.key("profile");
        w.beginArray();
        writeProfile(w, c.profile, "");
        w.endArray();
    }
    w.endObject();
    os << "\n";
}

/// @}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = value == "1";
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: uldma_perfbench --workload "
                     "<table1|storm|shards|fuzz> --seed N --seconds S "
                     "--trace <0|1>\n");
        return 2;
    }

    Collected c;
    referenceNs(); // untimed: the first pass faults in its table
    try {
        if (args.workload == "table1")
            runTable1Workload(args, c);
        else if (args.workload == "storm")
            runScenarioWorkload({kStormPath, kStormScale, 1}, args, c);
        else if (args.workload == "shards")
            runScenarioWorkload({kShardsPath, 1, kShardsThreads}, args, c);
        else if (args.workload == "fuzz")
            runFuzzWorkload(args, c);
        else
            throw std::runtime_error("unknown workload '" + args.workload +
                                     "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uldma_perfbench: %s\n", e.what());
        return 2;
    }

    writeResult(std::cout, args, c);
    return c.checks.failed == 0 ? 0 : 1;
}
