#include "workloads.h"

#include "workloads/cluster_monitoring.h"
#include "workloads/linear_road.h"
#include "workloads/smart_grid.h"
#include "workloads/synthetic.h"

namespace perfbench {

namespace {

// SG2 with the window scaled to the generated trace as bench_fig07 does
// ([range 10 slide 1] rather than the paper's 3600 s): grouped sliding
// aggregation over 480 plugs. At 20k readings per event second a window
// closes every 20k tuples, which gives the paced phase enough windows to
// support a p99.
constexpr int kGridReadingsPerSecond = 20'000;
// LRB1 at 8k reports per event second: one 256 KiB timestamp group per
// second, so the two shards interleave in the merge every group, and the
// per-shard reorder buffer (1 MiB server default) holds the jitter-3 horizon
// (two of the shard's own groups) without overflow.
constexpr int kRoadReportsPerSecond = 8'000;
// CM1 at 4k events per event second: a 1 MiB task (16384 tuples) spans
// about four event seconds, so most tasks close windows.
constexpr int kTaskEventsPerSecond = 4'000;

}  // namespace

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "sg2-saturate") {
    w.sql =
        "select timestamp, plug, household, house, avg(value) as localAvgLoad "
        "from SmartGridStr [range 10 slide 1] group by plug, household, house";
    w.stream = "SmartGridStr";
    w.tuples = 120 * kGridReadingsPerSecond;
    w.closed_copies = 10;
    w.paced_copies = 3;
    w.warmup = 0.25;
    w.reference_tuples = 12 * kGridReadingsPerSecond;
  } else if (name == "lrb1-fanin") {
    w.sql =
        "select timestamp, vehicle, speed, highway, lane, direction, "
        "position / 5280 as segment from PosSpeedStr [range unbounded]";
    w.stream = "PosSpeedStr";
    w.producers = 2;
    w.tuples = 250 * kRoadReportsPerSecond;
    w.closed_copies = 6;
    w.paced_copies = 3;
    w.jitter = 3;
    w.one_row_per_input = true;
    // 1.5M rows of 32 bytes stay below the 64 MiB subscriber outbox bound.
    w.in_flight = 1'500'000;
    w.reference_tuples = 25 * kRoadReportsPerSecond;
  } else if (name == "cm1-paced") {
    w.sql =
        "select timestamp, category, sum(cpu) as totalCpu "
        "from TaskEvents [range 60 slide 1] group by category";
    w.stream = "TaskEvents";
    w.tuples = 250 * kTaskEventsPerSecond;
    w.paced_copies = 3;
    w.send_tuples = 4096;
    w.warmup = 0.2;
    w.reference_tuples = 62 * kTaskEventsPerSecond;
  } else {
    return false;
  }
  *out = w;
  return true;
}

std::vector<uint8_t> GenerateInput(const Workload& w, uint64_t seed) {
  const uint32_t s = static_cast<uint32_t>(seed * 2654435761u + 1);
  if (w.name == "sg2-saturate") {
    saber::sg::GridOptions o;
    o.seed = s;
    o.readings_per_second = kGridReadingsPerSecond;
    return saber::sg::GenerateReadings(w.tuples, o);
  }
  if (w.name == "lrb1-fanin") {
    saber::lrb::RoadOptions o;
    o.seed = s;
    o.reports_per_second = kRoadReportsPerSecond;
    return saber::lrb::GenerateReports(w.tuples, o);
  }
  saber::cm::TraceOptions o;
  o.seed = s;
  o.events_per_second = kTaskEventsPerSecond;
  return saber::cm::GenerateTrace(w.tuples, o);
}

saber::sql::Catalog ServerCatalog() {
  saber::sql::Catalog catalog;
  catalog["Syn"] = saber::syn::SyntheticSchema();
  catalog["TaskEvents"] = saber::cm::TaskEventSchema();
  catalog["SmartGridStr"] = saber::sg::SmartGridSchema();
  catalog["PosSpeedStr"] = saber::lrb::PositionSchema();
  catalog["SegSpeedStr"] = saber::lrb::PositionSchema();
  return catalog;
}

}  // namespace perfbench
