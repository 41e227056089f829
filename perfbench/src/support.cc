// Datasets, keyword tokens and the keep-alive HTTP client.
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "datagen/dblp_gen.h"
#include "datagen/lubm_gen.h"
#include "datagen/tap_gen.h"
#include "harness.h"
#include "text/tokenizer.h"

namespace perfbench {

namespace datagen = grasp::datagen;

// GRASP_BENCH_SCALE=4 in the repository's bench harnesses: 4x the
// generators' default sizes (LUBM: 8x, below).
std::unique_ptr<Dataset> MakeDblp() {
  auto d = std::make_unique<Dataset>();
  datagen::DblpOptions options;
  options.num_authors = 1500 * 4;
  options.num_publications = 5000 * 4;
  datagen::GenerateDblp(options, &d->dictionary, &d->store);
  return d;
}

std::unique_ptr<Dataset> MakeTap() {
  auto d = std::make_unique<Dataset>();
  datagen::TapOptions options;
  options.num_classes = 240 * 4;
  datagen::GenerateTap(options, &d->dictionary, &d->store);
  return d;
}

// LUBM runs at GRASP_BENCH_SCALE=8: twice the engine work per request, so
// the HTTP tier's thread hand-offs weigh less in its latencies.
std::unique_ptr<Dataset> MakeLubm() {
  auto d = std::make_unique<Dataset>();
  datagen::LubmOptions options;
  options.num_universities = 5 * 8;
  datagen::GenerateLubm(options, &d->dictionary, &d->store);
  return d;
}

std::vector<std::string> LabelTokens(std::string_view label) {
  std::vector<std::string> tokens =
      text::Tokenize(label, /*split_camel_case=*/true);
  for (std::string& t : tokens) {
    for (char& c : t) c = static_cast<char>(std::tolower(c));
  }
  return tokens;
}

Status HttpClient::Connect(std::uint16_t port) {
  auto fd = grasp::net::ConnectTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(fd).value();
  buffer_.clear();
  return Status::Ok();
}

Status HttpClient::Search(const std::vector<std::string>& keywords,
                          std::size_t k, int* http_status, std::string* body) {
  std::string request = "GET /search?q=";
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    if (i > 0) request += '+';
    for (char c : keywords[i]) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        request += c;
      } else {
        char hex[4];
        std::snprintf(hex, sizeof(hex), "%%%02X",
                      static_cast<unsigned char>(c));
        request += hex;
      }
    }
  }
  request += "&k=" + std::to_string(k) +
             " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const std::ptrdiff_t n = grasp::net::WriteRetry(
        fd_.get(), request.data() + sent, request.size() - sent);
    if (n <= 0) return Status::IoError("write failed");
    sent += static_cast<std::size_t>(n);
  }
  return ReadResponse(http_status, body);
}

Status HttpClient::ReadResponse(int* http_status, std::string* body) {
  char chunk[16384];
  auto fill = [&]() -> bool {
    const std::ptrdiff_t n = grasp::net::ReadRetry(fd_.get(), chunk,
                                                   sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  };
  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return Status::IoError("connection closed in head");
  }
  const std::string head = buffer_.substr(0, head_end);
  *http_status = std::atoi(head.c_str() + std::strlen("HTTP/1.1 "));
  std::size_t length = 0;
  std::string lower = head;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  const std::size_t cl = lower.find("content-length:");
  if (cl != std::string::npos) {
    length = static_cast<std::size_t>(
        std::atol(lower.c_str() + cl + std::strlen("content-length:")));
  }
  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + length) {
    if (!fill()) return Status::IoError("connection closed in body");
  }
  body->assign(buffer_, body_start, length);
  buffer_.erase(0, body_start + length);
  return Status::Ok();
}

}  // namespace perfbench
