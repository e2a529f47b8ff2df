// End-to-end test of the skewopt_served daemon: start it on an ephemeral
// port, drive SUBMIT / RESULT / STATS over a real socket, then SIGTERM it
// and check the graceful-drain summary and exit status. The binary path
// is injected at compile time (SKEWOPT_SERVED_PATH, see
// tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "serve/client.h"
#include "serve/json.h"

namespace {

namespace json = skewopt::serve::json;

/// Next line of the daemon's stdout without the newline; empty at EOF.
std::string readLine(FILE* pipe) {
  std::string line;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      break;
    }
  }
  return line;
}

/// SUBMIT, RESULT and STATS of one tiny job over a fresh connection.
void sessionAgainst(int port) {
  skewopt::serve::TcpClient client("127.0.0.1", port);
  const json::Value sr = json::parse(client.callRaw(
      R"({"cmd":"SUBMIT","spec":{"source":{"kind":"testgen",)"
      R"("testcase":"CLS1v1","sinks":40,"pairs":40,"seed":1},)"
      R"("mode":"local","options":{"local":{"max_iterations":2}}}})"));
  ASSERT_TRUE(sr.boolean("ok", false)) << json::dump(sr);
  EXPECT_EQ(sr.num("id", 0), 1.0);

  const json::Value rr = json::parse(
      client.callRaw(R"({"cmd":"RESULT","id":1,"wait":true})"));
  ASSERT_TRUE(rr.boolean("ok", false)) << json::dump(rr);
  EXPECT_EQ(rr.str("state", ""), "DONE");
  ASSERT_NE(rr.find("result"), nullptr);

  const json::Value st = json::parse(client.callRaw(R"({"cmd":"STATS"})"));
  ASSERT_TRUE(st.boolean("ok", false)) << json::dump(st);
  EXPECT_EQ(st.num("done", -1), 1.0);
  EXPECT_EQ(st.num("workers", -1), 1.0);
  EXPECT_NE(st.find("gauges"), nullptr);
}

TEST(ServedDaemon, ServesOverTcpAndDrainsOnSigterm) {
  // The shell prints its pid, then exec()s the daemon under that same pid,
  // so the test can signal the process popen() started.
  const std::string cmd = std::string("echo $$; exec ") + SKEWOPT_SERVED_PATH +
                          " --port 0 --workers 1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << cmd;
  const pid_t pid = static_cast<pid_t>(std::atol(readLine(pipe).c_str()));
  ASSERT_GT(pid, 0);

  // "skewopt_served: listening on 127.0.0.1:PORT (1 workers, ...)"
  const std::string banner = readLine(pipe);
  const std::string marker = "listening on 127.0.0.1:";
  const std::size_t at = banner.find(marker);
  const int port = at == std::string::npos
                       ? 0
                       : std::atoi(banner.c_str() + at + marker.size());
  if (port <= 0) {
    ::kill(pid, SIGKILL);
    pclose(pipe);
    FAIL() << "unexpected banner: " << banner;
  }

  // Failures inside return early or throw; the daemon is signalled and
  // reaped either way.
  try {
    sessionAgainst(port);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  std::string rest;
  for (std::string line = readLine(pipe); !line.empty(); line = readLine(pipe))
    rest += line + "\n";
  const int status = pclose(pipe);
  EXPECT_NE(rest.find("skewopt_served: draining..."), std::string::npos)
      << rest;
  EXPECT_NE(rest.find("skewopt_served: done=1 failed=0 cancelled=0"),
            std::string::npos)
      << rest;
  ASSERT_TRUE(WIFEXITED(status)) << rest;
  EXPECT_EQ(WEXITSTATUS(status), 0) << rest;
}

}  // namespace
