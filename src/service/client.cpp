#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/strings.hpp"

namespace ht::service {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

Client::Client(int fd) : fd_(fd) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Client> Client::connect_unix(const std::string& path,
                                             std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    fail(error, std::string("socket: ") + std::strerror(errno));
    return nullptr;
  }
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    ::close(fd);
    fail(error, "unix socket path too long");
    return nullptr;
  }
  std::strncpy(address.sun_path, path.c_str(),
               sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) < 0) {
    ::close(fd);
    fail(error, "connect(" + path + "): " + std::strerror(errno));
    return nullptr;
  }
  return std::unique_ptr<Client>(new Client(fd));
}

std::unique_ptr<Client> Client::connect_tcp(const std::string& host,
                                            int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fail(error, std::string("socket: ") + std::strerror(errno));
    return nullptr;
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    fail(error, "bad IPv4 address: " + host);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) < 0) {
    ::close(fd);
    fail(error, "connect(" + host + ":" + std::to_string(port) +
                    "): " + std::strerror(errno));
    return nullptr;
  }
  return std::unique_ptr<Client>(new Client(fd));
}

std::unique_ptr<Client> Client::connect(const std::string& endpoint,
                                        std::string* error) {
  if (endpoint.rfind("unix:", 0) == 0) {
    return connect_unix(endpoint.substr(5), error);
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const std::string rest = endpoint.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      fail(error, "tcp endpoint must be tcp:host:port");
      return nullptr;
    }
    try {
      return connect_tcp(rest.substr(0, colon),
                         util::parse_number<int>(rest.substr(colon + 1),
                                                 "tcp port"),
                         error);
    } catch (const std::exception&) {
      fail(error, "bad tcp port in endpoint " + endpoint);
      return nullptr;
    }
  }
  fail(error, "endpoint must start with unix: or tcp:");
  return nullptr;
}

bool Client::send_line(const std::string& line, std::string* error) {
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail(error, std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Client::read_line(std::string* line, std::string* error) {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return fail(error, std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) return fail(error, "connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Client::send_envelope(const Json& envelope, std::string* error) {
  return send_line(envelope.dump(), error);
}

bool Client::read_envelope(Json* envelope, std::string* error) {
  std::string line;
  if (!read_line(&line, error)) return false;
  std::string parse_error;
  if (!Json::parse(line, envelope, &parse_error)) {
    return fail(error, "malformed reply from server: " + parse_error);
  }
  return true;
}

Client::Reply Client::transport_error(const std::string& message) const {
  Reply reply;
  reply.error_code = "transport";
  reply.error_message = message;
  return reply;
}

Client::Reply Client::synthesize(const core::SynthesisRequest& request,
                                 const JobInfo& info) {
  std::string id = info.id;
  if (id.empty()) id = "req-" + std::to_string(next_id_++);

  Json envelope = Json::object();
  envelope.set("schema_version", kSchemaVersion);
  envelope.set("op", "synthesize");
  envelope.set("id", id);
  envelope.set("priority", info.priority);
  envelope.set("deadline_ms",
               static_cast<long long>(info.deadline_seconds * 1000.0));
  envelope.set("warm", info.warm);
  envelope.set("request", request_to_json(request));

  std::string error;
  if (!send_envelope(envelope, &error)) return transport_error(error);

  // Read until the reply tagged with our id; skip unrelated envelopes (a
  // pipelining caller should use the low-level API instead).
  while (true) {
    Json in;
    if (!read_envelope(&in, &error)) return transport_error(error);
    if (in.get("id").as_string("") != id) continue;
    Reply reply;
    reply.envelope = in;
    if (!in.get("ok").as_bool(false)) {
      reply.error_code = in.get("error").get("code").as_string("error");
      reply.error_message = in.get("error").get("message").as_string("");
      return reply;
    }
    std::string wire_error;
    if (!response_from_json(in.get("response"), &reply.response,
                            &wire_error)) {
      return transport_error("bad response document: " + wire_error);
    }
    reply.ok = true;
    return reply;
  }
}

bool Client::cancel(const std::string& id) {
  Json envelope = Json::object();
  envelope.set("schema_version", kSchemaVersion);
  envelope.set("op", "cancel");
  envelope.set("id", id);
  std::string error;
  if (!send_envelope(envelope, &error)) return false;
  while (true) {
    Json in;
    if (!read_envelope(&in, &error)) return false;
    if (in.get("op").as_string("") != "cancel_ack") continue;
    return in.get("cancelled").as_bool(false);
  }
}

std::optional<Json> Client::stats(std::string* error) {
  Json envelope = Json::object();
  envelope.set("schema_version", kSchemaVersion);
  envelope.set("op", "stats");
  if (!send_envelope(envelope, error)) return std::nullopt;
  while (true) {
    Json in;
    if (!read_envelope(&in, error)) return std::nullopt;
    if (in.get("op").as_string("") != "stats") continue;
    return in.get("stats");
  }
}

std::optional<std::string> Client::telemetry(std::string* error) {
  Json envelope = Json::object();
  envelope.set("schema_version", kSchemaVersion);
  envelope.set("op", "telemetry");
  if (!send_envelope(envelope, error)) return std::nullopt;
  while (true) {
    Json in;
    if (!read_envelope(&in, error)) return std::nullopt;
    if (in.get("op").as_string("") != "telemetry") continue;
    return in.get("text").as_string("");
  }
}

bool Client::ping() {
  Json envelope = Json::object();
  envelope.set("schema_version", kSchemaVersion);
  envelope.set("op", "ping");
  std::string error;
  if (!send_envelope(envelope, &error)) return false;
  Json in;
  while (read_envelope(&in, &error)) {
    if (in.get("op").as_string("") == "pong") return true;
  }
  return false;
}

bool Client::shutdown_server() {
  Json envelope = Json::object();
  envelope.set("schema_version", kSchemaVersion);
  envelope.set("op", "shutdown");
  std::string error;
  if (!send_envelope(envelope, &error)) return false;
  Json in;
  while (read_envelope(&in, &error)) {
    if (in.get("op").as_string("") == "shutdown_ack") return true;
  }
  return false;
}

}  // namespace ht::service
