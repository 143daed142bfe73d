#include "obs/access_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/string_util.h"

namespace freehgc::obs {

namespace {

/// JSON string escaping for the free-form fields (graph/method names and
/// status messages can carry quotes or control characters).
void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

AccessLog::~AccessLog() { Close(); }

Status AccessLog::Open(const std::string& path) {
  Close();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument(StrFormat(
        "cannot open access log %s: %s", path.c_str(), std::strerror(errno)));
  }
  fd_ = fd;
  return Status::OK();
}

void AccessLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string AccessLog::FormatLine(const AccessRecord& rec) {
  std::string out;
  out.reserve(320);
  char buf[192];
  std::snprintf(buf, sizeof(buf), "{\"id\": %" PRIu64 ", \"slot\": %d, ",
                rec.id, rec.slot);
  out += buf;
  out += "\"graph\": \"";
  AppendEscaped(out, rec.graph);
  out += "\", \"method\": \"";
  AppendEscaped(out, rec.method);
  std::snprintf(buf, sizeof(buf),
                "\", \"fingerprint\": \"%016" PRIx64 "\", \"priority\": %d, "
                "\"queue_ns\": %" PRId64 ", \"exec_ns\": %" PRId64 ", "
                "\"total_ns\": %" PRId64 ", ",
                rec.fingerprint, rec.priority, rec.queue_ns, rec.exec_ns,
                rec.total_ns);
  out += buf;
  out += "\"outcome\": \"";
  out += OutcomeName(rec.outcome);
  out += "\", \"reason\": \"";
  AppendEscaped(out, rec.reason);
  std::snprintf(buf, sizeof(buf),
                "\", \"evalctx_hit\": %s, \"cache\": {\"hits\": %" PRId64
                ", \"misses\": %" PRId64 "}}",
                rec.evalctx_hit ? "true" : "false", rec.cache_hits,
                rec.cache_misses);
  out += buf;
  return out;
}

void AccessLog::Append(const AccessRecord& rec) {
  if (fd_ < 0) return;
  std::string line = FormatLine(rec);
  line += '\n';
  // One write per line: O_APPEND makes the offset update atomic, so
  // concurrent slot threads emit whole lines in some order, never
  // interleaved bytes. Short writes do not happen for regular files of
  // this size; EINTR is retried.
  const char* data = line.data();
  size_t n = line.size();
  while (n > 0) {
    const ssize_t w = ::write(fd_, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // logging must never fail the request path
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  lines_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace freehgc::obs
