#include "obs/http_exporter.hpp"

#include <cstdio>

namespace seer::obs {

namespace {

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string render(const HttpResponse& res) {
  char head[256];
  std::snprintf(head, sizeof head,
                "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: "
                "%zu\r\nConnection: close\r\n\r\n",
                res.status, reason_phrase(res.status), res.content_type.c_str(),
                res.body.size());
  return head + res.body;
}

// Reads until the header terminator (we never accept request bodies) with a
// small bound: a scrape request line fits in a fraction of this.
bool read_request(int fd, std::string& out) {
  char buf[2048];
  while (out.size() < 16384) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 2000) <= 0) return false;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return false;
    out.append(buf, static_cast<std::size_t>(n));
    if (out.find("\r\n\r\n") != std::string::npos) return true;
  }
  return false;
}

}  // namespace

bool HttpExporter::start(std::uint16_t port, std::string* err) {
  if (serving_.load()) {
    if (err != nullptr) *err = "exporter already running";
    return false;
  }
  if (!listener_.listen(port, err)) return false;
  stop_.store(false);
  serving_.store(true);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void HttpExporter::stop() {
  if (!serving_.load()) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  listener_.close();
  serving_.store(false);
}

void HttpExporter::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    util::SocketFd conn = listener_.accept_for(100);
    if (!conn.valid()) continue;
    handle_connection(std::move(conn));
  }
}

void HttpExporter::handle_connection(util::SocketFd conn) {
  std::string req;
  if (!read_request(conn.get(), req)) return;

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t eol = req.find("\r\n");
  const std::string line = req.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : line.find(' ', sp1 + 1);
  HttpResponse res;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    res = HttpResponse{400, "text/plain; charset=utf-8", "malformed request\n"};
  } else if (line.compare(0, sp1, "GET") != 0) {
    res = HttpResponse{405, "text/plain; charset=utf-8", "GET only\n"};
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t q = path.find('?');
    if (q != std::string::npos) path.resize(q);
    res = HttpResponse{404, "text/plain; charset=utf-8",
                       "unknown path " + path + "\n"};
    for (const auto& [route_path, handler] : routes_) {
      if (route_path == path) {
        res = handler();
        break;
      }
    }
  }
  util::write_all(conn.get(), render(res));
}

}  // namespace seer::obs
