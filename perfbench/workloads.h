#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sql/parser.h"

/// \file workloads.h
/// The three benchmark workloads and the inputs each synthesises from the
/// seed with the src/workloads/ generators. The server receives only the
/// SQL text and the tuples.

namespace perfbench {

struct Workload {
  std::string name;
  std::string sql;
  /// The catalog stream the SQL reads.
  std::string stream;
  /// Producer connections; each carries one timestamp-group shard.
  int producers = 1;
  /// Closed-loop phase: each producer sends its next batch as soon as the
  /// previous Send returns; measures throughput. Copies of the generated
  /// stream per repetition (0 = no closed-loop phase).
  int closed_copies = 0;
  /// Open-loop phase: batches are sent on a fixed schedule at kPacedRate
  /// tuples/s over all producers, however the server fares; measures
  /// latency. Copies per repetition (0 = no paced phase).
  int paced_copies = 0;
  /// Tuples per generated copy; every copy is shifted past the previous one
  /// in event time.
  size_t tuples = 0;
  /// Closed loop: input tuples a producer may send past the input the
  /// result stream has proven processed (0 = unbounded). The server drops a
  /// subscriber that falls 64 MiB behind, so a closed loop whose result
  /// stream is as large as its input must bound what is in flight.
  size_t in_flight = 0;
  /// Tuples per ProducerClient::Send.
  size_t send_tuples = 2048;
  /// Bounded timestamp disorder applied to each shard (0 = in order); the
  /// producers announce it as their allowed lateness.
  int64_t jitter = 0;
  /// Leading share of the input excluded from throughput and latency.
  double warmup = 0.5;
  /// Stateless query: result row i is input tuple i. Otherwise a row is a
  /// time-window result, emitted by the task holding the first input tuple
  /// past the row's timestamp.
  bool one_row_per_input = false;
  /// Prefix (whole timestamp groups) checked against ReferenceEvaluate.
  size_t reference_tuples = 0;
};

/// Offered rate of every paced phase, tuples/s over all producers: half of
/// the lowest open-loop rate the server sustains across the three queries.
/// A query sustains the highest rate of the ladder 2, 4, 8, 16M tuples/s
/// below the lowest rate at which a calibration run fell behind: SG2 8M,
/// LRB1 and CM1 4M (perfbench/README.md, "Offered rates", has the
/// measurements). Frozen as an absolute number.
constexpr double kPacedRate = 2'000'000;

/// Known names: sg2-saturate, lrb1-fanin, cm1-paced. False if unknown.
bool FindWorkload(const std::string& name, Workload* out);

/// The stream a workload's SQL reads, generated from `seed`.
std::vector<uint8_t> GenerateInput(const Workload& w, uint64_t seed);

/// The catalog saber_server serves (the same stream names and schemas).
saber::sql::Catalog ServerCatalog();

}  // namespace perfbench
