// Loopback load generator for the serving workload: one thread driving a
// few non-blocking connections with ppoll, sending pre-rendered NDJSON
// query lines tagged with a sequential id and matching the out-of-order
// responses back by that id.
//
// Two disciplines:
//   * open loop — requests leave on a Poisson schedule whatever the
//     server does; latency is timed from each request's *intended* send
//     time, so a stall shows as queueing on every later request
//     (no coordinated omission), and the generator's own lateness is
//     recorded separately;
//   * closed loop — a fixed window of requests stays in flight; each
//     response releases the next request on the same connection.

#ifndef KARL_KAQBENCH_SRC_LOADGEN_H_
#define KARL_KAQBENCH_SRC_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kaqbench {

class LoadGenerator {
 public:
  /// Connects `connections` sockets to 127.0.0.1:`port`; aborts the
  /// benchmark on failure.
  LoadGenerator(int port, size_t connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// One request, indexed by its id.
  struct Record {
    double intended_us = 0.0;  ///< Open loop: scheduled send; else send.
    double done_us = 0.0;      ///< Response received; 0 if never.
    uint32_t query = 0;        ///< Index into the request-line table.
    int8_t above = -1;         ///< TKAQ answer; -1 if none.
    double value = 0.0;        ///< eKAQ / exact answer, if any.
    bool ok = false;           ///< Response carried "ok":true.
  };

  /// Ids [first, last) issued by one phase call.
  struct Range {
    size_t first = 0;
    size_t last = 0;
    double start_us = 0.0;
    double end_us = 0.0;  ///< Last response (or give-up) time.
  };

  /// Open loop: request k is due at start + offsets_us[k]; requests are
  /// sent while their due time is below `duration_us`, then outstanding
  /// ones are awaited for at most `drain_us`. Queries cycle through
  /// `lines` from *cursor.
  Range OpenLoop(const std::vector<std::string>& lines, size_t* cursor,
                 const std::vector<double>& offsets_us, double duration_us,
                 double drain_us);

  /// Closed loop with `window` requests in flight for `duration_us`, then
  /// drained for at most `drain_us`.
  Range ClosedLoop(const std::vector<std::string>& lines, size_t* cursor,
                   size_t window, double duration_us, double drain_us);

  /// One health round trip on connection 0, in microseconds; negative if
  /// it failed.
  double HealthRoundTrip();

  const std::vector<Record>& records() const { return records_; }

  /// Open-loop lateness (actual − intended send) of every sent request.
  const std::vector<double>& lag_us() const { return lag_us_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;   // Unsent bytes.
    std::string in;    // Received bytes not yet framed.
  };

  // Queues request `id` for query `query` on connection `c`.
  void Send(size_t c, const std::string& line_prefix, uint32_t query,
            double intended_us);
  // Waits up to `timeout_us` for I/O and processes it; returns the
  // number of responses received.
  size_t Pump(double timeout_us);
  void Flush(Conn* conn);
  void OnLine(size_t c, const std::string& line, double now_us);

  std::vector<Conn> conns_;
  std::vector<Record> records_;
  std::vector<double> lag_us_;
  size_t range_first_ = 0;        // First id of the running phase.
  size_t range_outstanding_ = 0;  // Its requests still unanswered.
  size_t next_conn_ = 0;
  // Closed loop: response on connection c triggers a refill on c.
  std::vector<size_t> completed_on_;
  std::string health_reply_;
};

}  // namespace kaqbench

#endif  // KARL_KAQBENCH_SRC_LOADGEN_H_
