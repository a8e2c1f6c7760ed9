#include "replicate/socket_feed.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <utility>

#include "io/mapped_file.h"
#include "io/snapshot.h"

namespace falcc::replicate {

namespace {

using Clock = std::chrono::steady_clock;

/// Deadline for a subscriber's connect and its SUBSCRIBE → HELLO
/// handshake.
constexpr double kConnectTimeoutSeconds = 2.0;

std::chrono::duration<double> Seconds(double s) {
  return std::chrono::duration<double>(std::max(s, 0.0));
}

/// SplitMix64 step → uniform double in [0, 1); same jitter scheme as
/// DeltaPuller's recovery backoff.
double NextUniform(uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ull;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

struct ParsedEndpoint {
  bool is_unix = false;
  std::string host;  ///< tcp only
  std::string port;  ///< tcp only, numeric
  std::string path;  ///< unix only
};

bool StartsWith(const std::string& s, const char* prefix) {
  const std::string_view pv(prefix);
  return s.size() >= pv.size() && std::string_view(s).substr(0, pv.size()) == pv;
}

Result<ParsedEndpoint> ParseEndpointSpec(const std::string& spec) {
  ParsedEndpoint out;
  if (StartsWith(spec, "unix://")) {
    out.is_unix = true;
    out.path = spec.substr(7);
    if (out.path.empty()) {
      return Status::InvalidArgument("endpoint: empty unix socket path");
    }
    sockaddr_un probe;
    if (out.path.size() >= sizeof(probe.sun_path)) {
      return Status::InvalidArgument("endpoint: unix socket path too long: '" +
                                     out.path + "'");
    }
    return out;
  }
  if (StartsWith(spec, "tcp://")) {
    const std::string rest = spec.substr(6);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
      return Status::InvalidArgument("endpoint: expected tcp://host:port in '" +
                                     spec + "'");
    }
    out.host = rest.substr(0, colon);
    out.port = rest.substr(colon + 1);
    if (out.host.size() >= 2 && out.host.front() == '[' &&
        out.host.back() == ']') {
      out.host = out.host.substr(1, out.host.size() - 2);
    }
    for (char c : out.port) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("endpoint: non-numeric port in '" +
                                       spec + "'");
      }
    }
    return out;
  }
  return Status::InvalidArgument(
      "endpoint: expected tcp://host:port or unix://path, got '" + spec + "'");
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

/// Binds + listens. On success fills `resolved` with the canonical
/// endpoint (tcp port 0 replaced by the kernel's pick) and, for unix
/// sockets, `unix_path` so Close can unlink it.
Result<int> OpenListener(const ParsedEndpoint& endpoint, std::string* resolved,
                         std::string* unix_path) {
  if (endpoint.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IOError(std::string("socket(AF_UNIX): ") +
                             std::strerror(errno));
    }
    SetNonBlocking(fd);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A stale socket file from a previous publisher makes bind fail;
    // removing it is the standard unix-socket rebind dance.
    ::unlink(endpoint.path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      return Status::IOError("bind/listen unix://" + endpoint.path + ": " +
                             why);
    }
    *resolved = "unix://" + endpoint.path;
    *unix_path = endpoint.path;
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* infos = nullptr;
  const char* node = endpoint.host == "*" ? nullptr : endpoint.host.c_str();
  const int rc = ::getaddrinfo(node, endpoint.port.c_str(), &hints, &infos);
  if (rc != 0) {
    return Status::IOError("getaddrinfo " + endpoint.host + ":" +
                           endpoint.port + ": " + ::gai_strerror(rc));
  }
  std::string why = "no usable address";
  int fd = -1;
  for (addrinfo* info = infos; info != nullptr; info = info->ai_next) {
    fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) {
      why = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, info->ai_addr, info->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      break;
    }
    why = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(infos);
  if (fd < 0) {
    return Status::IOError("tcp://" + endpoint.host + ":" + endpoint.port +
                           ": " + why);
  }
  SetNonBlocking(fd);
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  uint16_t port = 0;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    if (bound.ss_family == AF_INET) {
      port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  *resolved = "tcp://" + endpoint.host + ":" + std::to_string(port);
  return fd;
}

/// Non-blocking connect with a deadline, torn down early on `stop`.
/// Returns -1 on failure (the caller backs off and retries).
int ConnectFd(const ParsedEndpoint& endpoint, double timeout_seconds,
              const std::atomic<bool>* stop) {
  const auto deadline = Clock::now() + Seconds(timeout_seconds);
  auto finish_connect = [&](int fd) -> int {
    // EINPROGRESS: wait for writability, then read the real outcome
    // from SO_ERROR.
    while (!stop->load(std::memory_order_relaxed)) {
      struct pollfd p = {fd, POLLOUT, 0};
      const int ready = ::poll(&p, 1, 50);
      if (ready > 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
            err == 0) {
          return fd;
        }
        break;
      }
      if (ready < 0 && errno != EINTR) break;
      if (Clock::now() >= deadline) break;
    }
    ::close(fd);
    return -1;
  };
  if (endpoint.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    SetNonBlocking(fd);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    if (errno == EINPROGRESS || errno == EAGAIN) return finish_connect(fd);
    ::close(fd);
    return -1;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* infos = nullptr;
  if (::getaddrinfo(endpoint.host.c_str(), endpoint.port.c_str(), &hints,
                    &infos) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* info = infos; info != nullptr; info = info->ai_next) {
    fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) continue;
    SetNonBlocking(fd);
    if (::connect(fd, info->ai_addr, info->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS) {
      fd = finish_connect(fd);
      if (fd >= 0) break;
      continue;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(infos);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

/// Writes all of `bytes`, polling for writability in stop-aware 50 ms
/// ticks. False on connection error or deadline (a stalled peer).
bool SendAllFd(int fd, std::string_view bytes, const std::atomic<bool>* stop,
               double timeout_seconds) {
  const auto deadline = Clock::now() + Seconds(timeout_seconds);
  size_t sent = 0;
  while (sent < bytes.size()) {
    if (stop->load(std::memory_order_relaxed)) return false;
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;
    }
    if (Clock::now() >= deadline) return false;
    struct pollfd p = {fd, POLLOUT, 0};
    const int ready = ::poll(&p, 1, 50);
    if (ready < 0 && errno != EINTR) return false;
  }
  return true;
}

/// Reads frames until one decodes, the deadline passes, `stop` fires,
/// or the stream errors. nullopt covers all failures — the caller drops
/// the connection either way.
std::optional<WireFrame> RecvFrame(int fd, FrameDecoder* decoder,
                                   double timeout_seconds,
                                   const std::atomic<bool>* stop,
                                   bool* decode_error = nullptr) {
  const auto deadline = Clock::now() + Seconds(timeout_seconds);
  while (!stop->load(std::memory_order_relaxed)) {
    Result<std::optional<WireFrame>> next = decoder->Next();
    if (!next.ok()) {
      if (decode_error != nullptr) *decode_error = true;
      return std::nullopt;
    }
    if (next.value().has_value()) return next.value();
    if (Clock::now() >= deadline) return std::nullopt;
    struct pollfd p = {fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 50);
    if (ready < 0 && errno != EINTR) return std::nullopt;
    if (ready <= 0) continue;
    char buffer[65536];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) return std::nullopt;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return std::nullopt;
    }
    decoder->Append(std::string_view(buffer, static_cast<size_t>(n)));
  }
  return std::nullopt;
}

}  // namespace

bool IsSocketEndpoint(const std::string& spec) {
  return StartsWith(spec, "tcp://") || StartsWith(spec, "unix://");
}

// ---------------------------------------------------------------------------
// SocketPublisher

struct SocketPublisher::Subscriber {
  int fd = -1;
  std::thread thread;
  bool done = false;  ///< connection over; AcceptLoop joins it (mu_)
  /// Highest sequence handled on this connection: sent, skipped as
  /// unreadable, or garbage-collected before it could be sent (sender
  /// thread only).
  uint64_t cursor = 0;
};

Result<std::unique_ptr<SocketPublisher>> SocketPublisher::Open(
    SocketPublisherOptions options) {
  Result<ParsedEndpoint> endpoint = ParseEndpointSpec(options.listen);
  FALCC_RETURN_IF_ERROR(endpoint.status());
  if (options.dir.empty()) {
    return Status::InvalidArgument("SocketPublisher: empty directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("SocketPublisher: cannot create '" + options.dir +
                           "': " + ec.message());
  }
  Result<std::vector<FeedEntry>> existing = DirectoryFeed(options.dir).Poll(0);
  FALCC_RETURN_IF_ERROR(existing.status());
  const uint64_t high_water =
      existing.value().empty() ? 0 : existing.value().back().sequence;
  std::string resolved, unix_path;
  Result<int> listener = OpenListener(endpoint.value(), &resolved, &unix_path);
  FALCC_RETURN_IF_ERROR(listener.status());
  std::unique_ptr<SocketPublisher> out(
      new SocketPublisher(std::move(options), listener.value(),
                          std::move(resolved), high_water));
  out->unix_path_ = std::move(unix_path);
  out->accept_thread_ = std::thread([publisher = out.get()] {
    publisher->AcceptLoop();
  });
  return out;
}

SocketPublisher::SocketPublisher(SocketPublisherOptions options, int listen_fd,
                                 std::string endpoint, uint64_t high_water)
    : options_(std::move(options)),
      dir_feed_(options_.dir),
      listen_fd_(listen_fd),
      endpoint_(std::move(endpoint)),
      high_water_(high_water) {}

SocketPublisher::~SocketPublisher() { Close(); }

void SocketPublisher::Close() {
  if (closed_) return;
  closed_ = true;
  {
    // Under the lock, so no sender can check the predicate and then
    // miss the wake.
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept thread is gone, so the list no longer changes.
  for (auto& subscriber : subscribers_) subscriber->thread.join();
  subscribers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

Result<size_t> SocketPublisher::ForwardNewArtifacts() {
  uint64_t after;
  {
    std::lock_guard<std::mutex> lock(mu_);
    after = high_water_;
  }
  Result<std::vector<FeedEntry>> polled = dir_feed_.Poll(after);
  FALCC_RETURN_IF_ERROR(polled.status());
  const std::vector<FeedEntry>& entries = polled.value();
  if (entries.empty()) return size_t{0};
  {
    std::lock_guard<std::mutex> lock(mu_);
    high_water_ = std::max(high_water_, entries.back().sequence);
  }
  cv_.notify_all();
  return static_cast<size_t>(
      std::count_if(entries.begin(), entries.end(), [](const FeedEntry& e) {
        return e.kind != ArtifactKind::kUnreadable;
      }));
}

void SocketPublisher::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Join the subscribers whose connection ended, so reconnecting
    // replicas do not pile up exited threads (and their stacks).
    std::vector<std::unique_ptr<Subscriber>> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto live = std::partition(
          subscribers_.begin(), subscribers_.end(),
          [](const std::unique_ptr<Subscriber>& s) { return !s->done; });
      finished.assign(std::make_move_iterator(live),
                      std::make_move_iterator(subscribers_.end()));
      subscribers_.erase(live, subscribers_.end());
    }
    for (auto& subscriber : finished) subscriber->thread.join();

    struct pollfd p = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, 100);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    auto subscriber = std::make_unique<Subscriber>();
    subscriber->fd = fd;
    Subscriber* raw = subscriber.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.accepted;
      ++stats_.subscribers;
      subscribers_.push_back(std::move(subscriber));
    }
    raw->thread = std::thread([this, raw] { ServeSubscriber(raw); });
  }
}

bool SocketPublisher::SendBytes(Subscriber* subscriber,
                                const std::string& bytes) {
  if (SendAllFd(subscriber->fd, bytes, &stop_,
                options_.send_timeout_seconds)) {
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.send_errors;
  return false;
}

bool SocketPublisher::SendEntry(Subscriber* subscriber, const FeedEntry& entry,
                                bool catchup) {
  Result<io::MappedFile> file = io::MappedFile::Open(entry.path);
  if (!file.ok()) {
    // GC won the race. Skipping leaves a sequence gap; the next
    // checkpoint in the replay (GC always retains one) heals it, and
    // the replica's gap fallback covers the remainder.
    return true;
  }
  WireFrame frame;
  frame.type = FrameType::kArtifact;
  frame.kind = entry.kind;
  frame.sequence = entry.sequence;
  frame.base_hash = entry.kind == ArtifactKind::kDelta ? entry.base_hash : 0;
  frame.payload = std::string(file.value().view());
  if (!SendBytes(subscriber, EncodeFrame(frame))) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (catchup) {
    ++stats_.catchup_artifacts;
  } else {
    ++stats_.artifacts_sent;
  }
  return true;
}

bool SocketPublisher::Replay(Subscriber* subscriber, uint64_t high_water,
                             bool catchup) {
  const uint64_t after = subscriber->cursor;
  Result<std::vector<FeedEntry>> polled = dir_feed_.Poll(after);
  // An unlistable directory counts as every artifact up to the
  // high-water unreadable: the cursor still advances below, so the
  // sender never spins, and the replica's gap fallback recovers.
  std::vector<FeedEntry> entries;
  if (polled.ok()) entries = std::move(polled).value();
  // When the retained feed no longer starts where the subscriber needs
  // it to (GC ran while it was behind), everything before the newest
  // checkpoint is superseded — jump straight to it.
  size_t start = 0;
  const bool jumped = !entries.empty() && entries.front().sequence != after + 1;
  if (jumped) {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].kind == ArtifactKind::kFull) start = i;
    }
  }
  if (jumped && !catchup && after > 0) {
    // A mid-stream jump: the subscriber fell behind GC and was dropped
    // to a checkpoint. (Catch-up replays jump too, but that is the
    // late-joiner bootstrap, not a slow subscriber.)
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.drops_to_checkpoint;
  }
  for (size_t i = start; i < entries.size(); ++i) {
    if (stop_.load(std::memory_order_relaxed)) return false;
    const FeedEntry& entry = entries[i];
    // Unreadable artifacts cannot be framed; the sequence gap they
    // leave routes the replica into checkpoint recovery, the same
    // fallback a directory consumer reaches via quarantine.
    if (entry.kind != ArtifactKind::kUnreadable &&
        !SendEntry(subscriber, entry, catchup)) {
      return false;
    }
    subscriber->cursor = entry.sequence;
  }
  // Sequences up to the high-water that the scan no longer listed were
  // garbage-collected first: handled too.
  subscriber->cursor = std::max(subscriber->cursor, high_water);
  return true;
}

void SocketPublisher::ServeSubscriber(Subscriber* subscriber) {
  FrameDecoder decoder;
  const std::optional<WireFrame> subscribe =
      RecvFrame(subscriber->fd, &decoder, /*timeout_seconds=*/5.0, &stop_);
  bool alive =
      subscribe.has_value() && subscribe->type == FrameType::kSubscribe;
  uint64_t high_water;
  {
    std::lock_guard<std::mutex> lock(mu_);
    high_water = high_water_;
  }
  if (alive) {
    WireFrame hello;
    hello.type = FrameType::kHello;
    hello.sequence = high_water + 1;
    hello.payload = kWireGreeting;
    alive = SendBytes(subscriber, EncodeFrame(hello));
  }
  if (alive) {
    const uint64_t from = subscribe->sequence;
    subscriber->cursor = from > 0 ? from - 1 : 0;
    alive = Replay(subscriber, high_water, /*catchup=*/true);
  }
  while (alive) {
    bool raised;
    {
      std::unique_lock<std::mutex> lock(mu_);
      raised = cv_.wait_for(
          lock, Seconds(options_.heartbeat_interval_seconds), [&] {
            return stop_.load(std::memory_order_relaxed) ||
                   high_water_ > subscriber->cursor;
          });
      high_water = high_water_;
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    if (raised) {
      alive = Replay(subscriber, high_water, /*catchup=*/false);
      continue;
    }
    WireFrame heartbeat;
    heartbeat.type = FrameType::kHeartbeat;
    heartbeat.sequence = subscriber->cursor;
    alive = SendBytes(subscriber, EncodeFrame(heartbeat));
    if (alive) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.heartbeats_sent;
    }
  }
  if (alive) {
    // The loop leaves with `alive` only once stop_ is set, so the EOF
    // must not watch stop_ (it would return before its first send);
    // the timeout alone bounds a stalled peer.
    static const std::atomic<bool> kNeverStop{false};
    WireFrame eof;
    eof.type = FrameType::kEof;
    eof.sequence = subscriber->cursor;
    SendAllFd(subscriber->fd, EncodeFrame(eof), &kNeverStop, /*timeout=*/0.5);
  }
  ::close(subscriber->fd);
  subscriber->fd = -1;
  std::lock_guard<std::mutex> lock(mu_);
  subscriber->done = true;
  if (stats_.subscribers > 0) --stats_.subscribers;
}

SocketPublisherStats SocketPublisher::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// SocketFeed

Result<std::unique_ptr<SocketFeed>> SocketFeed::Connect(
    const std::string& endpoint, SocketFeedOptions options) {
  Result<ParsedEndpoint> parsed = ParseEndpointSpec(endpoint);
  FALCC_RETURN_IF_ERROR(parsed.status());
  std::string spool = options.spool_dir;
  bool own_spool = false;
  if (spool.empty()) {
    static std::atomic<uint64_t> counter{0};
    own_spool = true;
    spool = (std::filesystem::temp_directory_path() /
             ("falcc-spool-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter.fetch_add(1))))
                .string();
  }
  std::error_code ec;
  std::filesystem::create_directories(spool, ec);
  if (ec) {
    return Status::IOError("SocketFeed: cannot create spool '" + spool +
                           "': " + ec.message());
  }
  std::unique_ptr<SocketFeed> feed(
      new SocketFeed(endpoint, std::move(spool), own_spool, options));
  // Warm the index from a pre-existing spool (a restarted replica keeps
  // its position instead of re-pulling the retained feed).
  DirectoryFeed warm(feed->spool_dir_);
  Result<std::vector<FeedEntry>> existing = warm.Poll(0);
  if (existing.ok()) {
    for (FeedEntry& entry : existing.value()) {
      feed->index_.emplace(entry.sequence, std::move(entry));
    }
  }
  feed->receiver_ = std::thread([feed_ptr = feed.get()] {
    feed_ptr->ReceiveLoop();
  });
  return feed;
}

SocketFeed::SocketFeed(std::string endpoint, std::string spool_dir,
                       bool own_spool, SocketFeedOptions options)
    : endpoint_(std::move(endpoint)),
      spool_dir_(std::move(spool_dir)),
      own_spool_(own_spool),
      options_(options),
      jitter_state_(options.jitter_seed) {}

SocketFeed::~SocketFeed() {
  stop_.store(true, std::memory_order_relaxed);
  sleep_cv_.notify_all();
  if (receiver_.joinable()) receiver_.join();
  if (own_spool_) {
    std::error_code ec;
    std::filesystem::remove_all(spool_dir_, ec);
  }
}

Result<std::vector<FeedEntry>> SocketFeed::Poll(uint64_t after_sequence) {
  bool want_reconnect = false;
  std::vector<FeedEntry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    resume_hint_ = after_sequence + 1;
    // The consumer rewound below the live subscription (checkpoint
    // recovery's Poll(0)): the artifacts it needs were never streamed.
    // Resubscribe from the new hint so the publisher replays them.
    if (resume_hint_ < subscribed_from_ && !reconnect_requested_) {
      reconnect_requested_ = true;
      want_reconnect = true;
    }
    for (auto it = index_.upper_bound(after_sequence); it != index_.end();
         ++it) {
      entries.push_back(it->second);
    }
  }
  if (want_reconnect) sleep_cv_.notify_all();
  return entries;
}

void SocketFeed::SpoolFrame(const WireFrame& frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.count(frame.sequence) > 0) {
      // At-least-once delivery (reconnect replay overlaps): sequences
      // are immutable, so the spooled copy wins.
      ++stats_.redeliveries;
      return;
    }
  }
  const std::string stem =
      frame.kind == ArtifactKind::kDelta
          ? "delta-" + io::HashHex(frame.base_hash) + ".falcc"
          : "checkpoint.falcc";
  const std::filesystem::path path =
      std::filesystem::path(spool_dir_) / SequencedName(frame.sequence, stem);
  const std::string tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out ||
        !out.write(frame.payload.data(),
                   static_cast<std::streamsize>(frame.payload.size()))) {
      return;  // spool disk problem: the reconnect replay retries it
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return;
  FeedEntry entry;
  entry.sequence = frame.sequence;
  entry.kind = frame.kind;
  entry.path = path.string();
  entry.base_hash =
      frame.kind == ArtifactKind::kDelta ? frame.base_hash : 0;
  entry.bytes = frame.payload.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    index_[entry.sequence] = std::move(entry);
    ++stats_.artifacts_spooled;
  }
  NotifyChange();
}

void SocketFeed::SleepBackoff(double* backoff_seconds) {
  double delay;
  {
    std::lock_guard<std::mutex> lock(mu_);
    *backoff_seconds =
        *backoff_seconds <= 0.0
            ? options_.reconnect_initial_seconds
            : std::min(*backoff_seconds * 2.0, options_.reconnect_max_seconds);
    const double jitter = 1.0 + options_.reconnect_jitter *
                                    (2.0 * NextUniform(&jitter_state_) - 1.0);
    delay = std::max(*backoff_seconds * jitter, 0.0);
  }
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleep_cv_.wait_for(lock, Seconds(delay), [&] {
    if (Stopping()) return true;
    std::lock_guard<std::mutex> state(mu_);
    return reconnect_requested_;
  });
}

bool SocketFeed::ServeConnection(int fd) {
  uint64_t from;
  {
    std::lock_guard<std::mutex> lock(mu_);
    from = resume_hint_;
    subscribed_from_ = from;
    reconnect_requested_ = false;
  }
  WireFrame subscribe;
  subscribe.type = FrameType::kSubscribe;
  subscribe.sequence = from;
  if (!SendAllFd(fd, EncodeFrame(subscribe), &stop_,
                 kConnectTimeoutSeconds)) {
    return false;
  }
  FrameDecoder decoder;
  bool decode_error = false;
  const std::optional<WireFrame> hello = RecvFrame(
      fd, &decoder,
      std::max(options_.liveness_timeout_seconds,
               kConnectTimeoutSeconds),
      &stop_, &decode_error);
  if (!hello.has_value() || hello->type != FrameType::kHello) {
    std::lock_guard<std::mutex> lock(mu_);
    if (decode_error) ++stats_.decode_errors;
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.connects;
    stats_.connected = true;
    stats_.server_next_sequence = hello->sequence;
  }
  auto last_frame = Clock::now();
  const auto liveness = Seconds(options_.liveness_timeout_seconds);
  bool disconnect = false;
  const auto drain = [&] {
    while (!disconnect) {
      Result<std::optional<WireFrame>> next = decoder.Next();
      if (!next.ok()) {
        // Corrupt stream: there is no resynchronizing inside a byte
        // stream, so drop the connection and resubscribe — the
        // checksummed replay re-sends anything lost.
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.decode_errors;
        disconnect = true;
        break;
      }
      if (!next.value().has_value()) break;
      const WireFrame& frame = *next.value();
      last_frame = Clock::now();
      switch (frame.type) {
        case FrameType::kArtifact:
          SpoolFrame(frame);
          break;
        case FrameType::kHeartbeat: {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.heartbeats;
          break;
        }
        case FrameType::kEof:
          disconnect = true;
          break;
        default:
          break;  // redundant HELLO/SUBSCRIBE: ignore
      }
    }
  };
  // The handshake read may have pulled frames past the HELLO into the
  // decoder; process them before waiting for fresh bytes, or a publisher
  // that sends-and-closes loses its tail.
  drain();
  while (!Stopping() && !disconnect) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (reconnect_requested_) break;
    }
    struct pollfd p = {fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, 50);
    if (Stopping()) break;
    if (ready > 0) {
      char buffer[65536];
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n == 0) break;  // publisher closed
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
      } else {
        decoder.Append(std::string_view(buffer, static_cast<size_t>(n)));
        drain();
      }
    } else if (ready < 0 && errno != EINTR) {
      break;
    }
    if (Clock::now() - last_frame > liveness) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.liveness_timeouts;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.connected = false;
    ++stats_.disconnects;
  }
  return true;
}

void SocketFeed::ReceiveLoop() {
  const Result<ParsedEndpoint> parsed = ParseEndpointSpec(endpoint_);
  if (!parsed.ok()) return;  // Connect() validated; unreachable
  double backoff = 0.0;
  while (!Stopping()) {
    const int fd =
        ConnectFd(parsed.value(), kConnectTimeoutSeconds, &stop_);
    bool resubscribe_now = false;
    if (fd >= 0) {
      const bool subscribed = ServeConnection(fd);
      ::close(fd);
      if (subscribed) backoff = 0.0;  // healthy handshake: backoff restarts
      std::lock_guard<std::mutex> lock(mu_);
      // A consumer-requested resubscribe skips the backoff: the
      // publisher is healthy, we just need an older replay.
      resubscribe_now = reconnect_requested_;
    }
    if (Stopping()) break;
    if (!resubscribe_now) SleepBackoff(&backoff);
  }
}

SocketFeedStats SocketFeed::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace falcc::replicate
