#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common.h"

namespace kaqbench {

LoadGenerator::LoadGenerator(int port, size_t connections) {
  // The default 50 µs timer slack would make every scheduled send late.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  conns_.resize(std::max<size_t>(1, connections));
  for (Conn& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) Die(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Die("connect to 127.0.0.1:" + std::to_string(port) + ": " +
          std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking from here on: sends must never stall the schedule.
    if (::fcntl(conn.fd, F_SETFL, O_NONBLOCK) != 0) {
      Die(std::string("fcntl: ") + std::strerror(errno));
    }
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void LoadGenerator::Send(size_t c, const std::string& line_prefix,
                         uint32_t query, double intended_us) {
  const size_t id = records_.size();
  Record record;
  record.intended_us = intended_us;
  record.query = query;
  records_.push_back(record);
  Conn& conn = conns_[c];
  conn.out += line_prefix;
  conn.out += std::to_string(id);
  conn.out += kRequestLineSuffix;
  ++range_outstanding_;
  Flush(&conn);
}

void LoadGenerator::Flush(Conn* conn) {
  while (!conn->out.empty()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    Die(std::string("send: ") + std::strerror(errno));
  }
}

void LoadGenerator::OnLine(size_t c, const std::string& line, double now_us) {
  static constexpr char kIdKey[] = "\"id\":\"";
  const size_t at = line.rfind(kIdKey);
  if (at == std::string::npos) {  // Only health replies carry no id.
    health_reply_ = line;
    return;
  }
  size_t id = 0;
  for (size_t i = at + sizeof(kIdKey) - 1; i < line.size() && line[i] != '"';
       ++i) {
    id = id * 10 + static_cast<size_t>(line[i] - '0');
  }
  if (id >= records_.size() || records_[id].done_us != 0.0) {
    Die("response with unknown or repeated id: " + line);
  }
  Record& record = records_[id];
  record.done_us = now_us;
  record.ok = line.rfind("{\"ok\":true", 0) == 0;
  if (line.find("\"above\":true") != std::string::npos) {
    record.above = 1;
  } else if (line.find("\"above\":false") != std::string::npos) {
    record.above = 0;
  } else if (const size_t v = line.find("\"value\":"); v != std::string::npos) {
    record.value = std::strtod(line.c_str() + v + 8, nullptr);
  }
  if (id >= range_first_) --range_outstanding_;
  completed_on_.push_back(c);
}

size_t LoadGenerator::Pump(double timeout_us) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t c = 0; c < conns_.size(); ++c) {
    fds[c].fd = conns_[c].fd;
    fds[c].events = static_cast<short>(
        POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
  }
  const auto ns = static_cast<int64_t>(std::max(0.0, timeout_us) * 1e3);
  const timespec ts{static_cast<time_t>(ns / 1000000000),
                    static_cast<long>(ns % 1000000000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return 0;
    Die(std::string("ppoll: ") + std::strerror(errno));
  }
  size_t received = 0;
  char buf[1 << 16];
  for (size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = conns_[c];
    if ((fds[c].revents & POLLOUT) != 0) Flush(&conn);
    if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Die("server closed connection " + std::to_string(c));
    }
    const double now = NowUs();
    size_t begin = 0;
    for (size_t nl = conn.in.find('\n'); nl != std::string::npos;
         nl = conn.in.find('\n', begin)) {
      OnLine(c, conn.in.substr(begin, nl - begin), now);
      begin = nl + 1;
      ++received;
    }
    conn.in.erase(0, begin);
  }
  return received;
}

LoadGenerator::Range LoadGenerator::OpenLoop(
    const std::vector<std::string>& lines, size_t* cursor,
    const std::vector<double>& offsets_us, double duration_us,
    double drain_us) {
  Range range;
  range.first = range_first_ = records_.size();
  range_outstanding_ = 0;
  completed_on_.clear();
  const double start = range.start_us = NowUs();
  const double deadline = start + duration_us + drain_us;
  size_t k = 0;
  for (;;) {
    while (k < offsets_us.size() && offsets_us[k] < duration_us) {
      const double due = start + offsets_us[k];
      const double now = NowUs();
      if (due > now) break;
      const size_t q = *cursor % lines.size();
      lag_us_.push_back(now - due);
      Send(next_conn_++ % conns_.size(), lines[q], static_cast<uint32_t>(q),
           due);
      ++*cursor;
      ++k;
    }
    const bool schedule_done =
        k >= offsets_us.size() || offsets_us[k] >= duration_us;
    const double now = NowUs();
    if ((schedule_done && range_outstanding_ == 0) || now >= deadline) break;
    // Busy-poll: a generator sleeping until the next send or reply would
    // add a wake-up of its own CPU to every latency and make sends late.
    Pump(0.0);
  }
  completed_on_.clear();
  range.last = records_.size();
  range.end_us = NowUs();
  return range;
}

LoadGenerator::Range LoadGenerator::ClosedLoop(
    const std::vector<std::string>& lines, size_t* cursor, size_t window,
    double duration_us, double drain_us) {
  Range range;
  range.first = range_first_ = records_.size();
  range_outstanding_ = 0;
  completed_on_.clear();
  const double start = range.start_us = NowUs();
  const double stop = start + duration_us;
  const double deadline = stop + drain_us;
  auto send_next = [&](size_t c) {
    const size_t q = *cursor % lines.size();
    Send(c, lines[q], static_cast<uint32_t>(q), NowUs());
    ++*cursor;
  };
  for (size_t i = 0; i < window; ++i) send_next(i % conns_.size());
  for (;;) {
    const double now = NowUs();
    if (now < stop) {
      for (const size_t c : completed_on_) send_next(c);
    }
    completed_on_.clear();
    if ((now >= stop && range_outstanding_ == 0) || now >= deadline) break;
    Pump((now < stop ? stop : deadline) - now);
  }
  range.last = records_.size();
  range.end_us = 0.0;
  for (size_t id = range.first; id < range.last; ++id) {
    range.end_us = std::max(range.end_us, records_[id].done_us);
  }
  if (range.end_us == 0.0) range.end_us = NowUs();
  return range;
}

double LoadGenerator::HealthRoundTrip() {
  health_reply_.clear();
  const double start = NowUs();
  conns_[0].out += "{\"op\":\"health\"}\n";
  Flush(&conns_[0]);
  while (health_reply_.empty() && NowUs() - start < 1e6) {
    Pump(1e6 - (NowUs() - start));
  }
  completed_on_.clear();
  if (health_reply_.rfind("{\"ok\":true", 0) != 0) return -1.0;
  return NowUs() - start;
}

}  // namespace kaqbench
