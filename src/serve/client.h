// Client for the optimization service.
//
// TcpClient speaks the newline-delimited JSON protocol to a running
// TcpServer (or the skewopt_served daemon): one request line out, one
// reply line back, parsed to a json::Value.
#pragma once

#include <string>

#include "serve/json.h"

namespace skewopt::serve {

class TcpClient {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  TcpClient(const std::string& host, int port);
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Sends one request object and returns the parsed reply. Throws on
  /// connection loss or a malformed reply (protocol errors come back as
  /// {"ok":false,...} values, not exceptions).
  json::Value call(const json::Value& request);

  /// Raw line round-trip (no JSON handling on the way out).
  std::string callRaw(const std::string& line);

  /// Split halves of callRaw, for streaming verbs (BATCH_SUBMIT, RESULTS)
  /// where one request line is answered by several reply lines: send once,
  /// then readLine() per event until the end marker. Both throw
  /// std::runtime_error on connection loss.
  void send(const std::string& line);
  std::string readLine();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes past the last reply line
};

}  // namespace skewopt::serve
