/** @file Serving-mode tests (ctest label `serving`): open-loop latency
 *  behavior, backend spread, queue-depth contention, and runner
 *  determinism of the serving-load family. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/experiment.hh"
#include "core/scenario.hh"
#include "core/serving.hh"
#include "core/system.hh"

using namespace smartsage;
using namespace smartsage::core;

namespace
{

const Workload &
smallWorkload()
{
    static Workload wl =
        Workload::make(graph::DatasetId::Amazon, false);
    return wl;
}

SystemConfig
servingSystem(const std::string &backend)
{
    SystemConfig sc;
    sc.backend = backend;
    sc.fanouts = {6, 3};
    return sc;
}

ServingConfig
servingConfig(double qps)
{
    ServingConfig cfg;
    cfg.arrival_qps = qps;
    cfg.num_requests = 256;
    cfg.fanout = 10;
    cfg.seed = 0x5e12e;
    return cfg;
}

} // namespace

TEST(Serving, EveryRequestCompletesAndLatencyIsPositive)
{
    GnnSystem system(servingSystem("direct-io"), smallWorkload());
    ServingResult r = runServingLoad(system, servingConfig(5000));
    EXPECT_EQ(r.requests, 256u);
    EXPECT_EQ(r.latency_us.count(), 256u);
    EXPECT_GT(r.p50_us(), 0.0);
    EXPECT_GE(r.p95_us(), r.p50_us());
    EXPECT_GE(r.p99_us(), r.p95_us());
    EXPECT_GE(r.max_us(), r.p99_us());
    EXPECT_GT(r.achieved_qps, 0.0);
    EXPECT_GT(r.makespan, 0u);
}

TEST(Serving, TailLatencyRisesWithOfferedLoad)
{
    // Open loop: pushing the arrival rate toward (and past) the
    // service capacity must inflate the tail. Identical request
    // streams per cell — only the arrival gaps shrink.
    std::vector<double> p99;
    for (double qps : {1000.0, 20000.0, 100000.0}) {
        GnnSystem system(servingSystem("ssd-mmap"), smallWorkload());
        ServingResult r = runServingLoad(system, servingConfig(qps));
        p99.push_back(r.p99_us());
    }
    EXPECT_LT(p99[0], p99[1]);
    EXPECT_LT(p99[1], p99[2]);
}

TEST(Serving, BackendsSeparateOnTheLatencyAxis)
{
    // At a moderate rate the storage hierarchy must be visible in the
    // tail: DRAM < PMEM < flash-backed paths.
    auto p99 = [&](const std::string &backend) {
        GnnSystem system(servingSystem(backend), smallWorkload());
        return runServingLoad(system, servingConfig(20000)).p99_us();
    };
    double dram = p99("dram");
    double pmem = p99("pmem");
    double dio = p99("direct-io");
    double mmap = p99("ssd-mmap");
    EXPECT_LT(dram, pmem);
    EXPECT_LT(pmem, dio);
    EXPECT_LT(pmem, mmap);
    // Three-way spread for the acceptance bar: all distinct.
    EXPECT_NE(dram, dio);
    EXPECT_NE(pmem, dio);
}

TEST(Serving, NarrowHostQueueAddsAdmissionWait)
{
    SystemConfig narrow = servingSystem("direct-io");
    narrow.host.io_queue_depth = 1;
    SystemConfig wide = servingSystem("direct-io");
    wide.host.io_queue_depth = 64;

    GnnSystem sys_narrow(narrow, smallWorkload());
    GnnSystem sys_wide(wide, smallWorkload());
    ServingConfig cfg = servingConfig(100000);
    ServingResult rn = runServingLoad(sys_narrow, cfg);
    ServingResult rw = runServingLoad(sys_wide, cfg);

    EXPECT_GT(rn.mean_queue_wait_us, rw.mean_queue_wait_us);
    EXPECT_GE(rn.p99_us(), rw.p99_us());
}

TEST(Serving, RerunIsBitReproducible)
{
    ServingConfig cfg = servingConfig(30000);
    GnnSystem a(servingSystem("tiered-hybrid"), smallWorkload());
    GnnSystem b(servingSystem("tiered-hybrid"), smallWorkload());
    ServingResult ra = runServingLoad(a, cfg);
    ServingResult rb = runServingLoad(b, cfg);
    EXPECT_EQ(ra.makespan, rb.makespan);
    EXPECT_DOUBLE_EQ(ra.p50_us(), rb.p50_us());
    EXPECT_DOUBLE_EQ(ra.p99_us(), rb.p99_us());
    EXPECT_DOUBLE_EQ(ra.latency_us.sum(), rb.latency_us.sum());
}

TEST(Serving, ReusedSystemStartsFromAColdSsd)
{
    // A second run on the same system must not inherit the first run's
    // SSD busy-until timelines: each of the host SSD paths serves the
    // same request stream with the same tail as a fresh system.
    ServingConfig cfg = servingConfig(100000);
    for (const char *backend : {"ssd-mmap", "direct-io"}) {
        GnnSystem fresh(servingSystem(backend), smallWorkload());
        const ServingResult cold = runServingLoad(fresh, cfg);
        GnnSystem reused(servingSystem(backend), smallWorkload());
        runServingLoad(reused, cfg);
        const ServingResult again = runServingLoad(reused, cfg);
        EXPECT_DOUBLE_EQ(again.p99_us(), cold.p99_us()) << backend;
        EXPECT_EQ(again.makespan, cold.makespan) << backend;
    }
}

TEST(Serving, FixedRateArrivalsAreDeterministicToo)
{
    ServingConfig cfg = servingConfig(30000);
    cfg.poisson = false;
    GnnSystem a(servingSystem("multi-ssd"), smallWorkload());
    ServingResult r = runServingLoad(a, cfg);
    EXPECT_EQ(r.requests, cfg.num_requests);
    // Metronome arrivals: the makespan covers at least the arrival
    // window of (n-1) fixed gaps.
    sim::Tick window = static_cast<sim::Tick>(
        (cfg.num_requests - 1) * (1e9 / cfg.arrival_qps));
    EXPECT_GE(r.makespan, window);
}

TEST(ServingDeath, BackendWithoutAnEdgeStoreIsFatal)
{
    GnnSystem system(servingSystem("isp-hwsw"), smallWorkload());
    ServingConfig cfg = servingConfig(1000);
    EXPECT_EXIT(runServingLoad(system, cfg),
                testing::ExitedWithCode(1),
                "has no host-side edge store");
}

TEST(ServingFamily, CoversEveryServableBackend)
{
    const Scenario *s = findScenario("serving-load");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, ExperimentKind::Serving);
    EXPECT_EQ(s->backends, servableBackendIds());
    // Servable = has a host-side edge store; at least the four paper
    // host paths plus the two plugin backends.
    EXPECT_GE(s->backends.size(), 6u);
    for (const auto &id : s->backends) {
        const StorageBackend &b = BackendRegistry::instance().get(id);
        EXPECT_NE(b.caps().edge_store, EdgeStoreKind::None) << id;
    }
    EXPECT_GE(s->arrival_rates.size(), 3u);
    EXPECT_GE(s->queue_depths.size(), 2u);
}

TEST(ServingFamily, RunnerResultsAreWorkerCountInvariant)
{
    Scenario smoke = smokeVariant(*findScenario("serving-load"));
    // Trim the grid so the invariance check stays test-sized.
    smoke.backends = {"ssd-mmap", "direct-io"};
    smoke.arrival_rates = {5000, 60000};
    smoke.queue_depths = {4};
    smoke.serve_requests = 96;

    RunnerOptions serial_opts;
    serial_opts.workers = 1;
    ExperimentRunner serial(serial_opts);
    RunnerOptions parallel_opts;
    parallel_opts.workers = 3;
    ExperimentRunner parallel(parallel_opts);

    ScenarioRun a = serial.run(smoke);
    ScenarioRun b = parallel.run(smoke);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    ASSERT_EQ(a.cells.size(), 4u);
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        ASSERT_EQ(a.cells[i].metrics.size(), b.cells[i].metrics.size());
        for (std::size_t m = 0; m < a.cells[i].metrics.size(); ++m) {
            EXPECT_EQ(a.cells[i].metrics[m].name,
                      b.cells[i].metrics[m].name);
            EXPECT_DOUBLE_EQ(a.cells[i].metrics[m].value,
                             b.cells[i].metrics[m].value)
                << a.cells[i].cell.label() << " / "
                << a.cells[i].metrics[m].name;
        }
    }
    // And the load signal is present inside one backend's cells.
    EXPECT_GT(a.cells[1].metric("p99_us"),
              a.cells[0].metric("p99_us"));
}

TEST(ServingFamily, ServingJsonCarriesTheBenchSchema)
{
    Scenario smoke = smokeVariant(*findScenario("serving-load"));
    smoke.backends = {"dram", "pmem"};
    smoke.arrival_rates = {10000};
    smoke.queue_depths = {8};
    smoke.serve_requests = 64;

    ExperimentRunner runner;
    std::vector<ScenarioRun> runs = {runner.run(smoke)};
    std::ostringstream os;
    writeServingJson(os, runs);
    std::string json = os.str();
    for (const char *key :
         {"\"bench\": \"serving_load\"", "\"schema_version\": 1",
          "\"config\"", "\"results\"", "\"serving-load\"",
          "\"arrival_qps\": 10000", "\"queue_depth\": 8",
          "\"p99_us\"", "\"achieved_qps\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}
