// The wire protocol's one dispatcher: the newline-JSON protocol of
// docs/serving.md, dispatched against a ClusterFrontend. A single-scheduler
// deployment (skewopt_served) is a 1-shard frontend.
//
// Job verbs: SUBMIT/DELTA/STATUS/RESULT/CANCEL/STATS/METRICS/TRACE. With
// one shard, global ids equal the shard's local ids and the shard-specific
// reply fields ("shard", STATS "routed"/"rejected"/"shards") are left out;
// the pinned-reply test in cluster_test holds those single-shard reply
// bytes fixed, since every existing client depends on them.
//
// Batch and shard verbs (wire examples in docs/serving.md):
//   BATCH_SUBMIT  one request, many specs; one reply line with a per-spec
//                 verdict array (an invalid spec fails only its entry).
//   RESULTS       streaming subscription: per-completion event lines as
//                 jobs land, then one "end" line. The only multi-line
//                 reply in the protocol.
//   DRAIN         graceful per-shard (or whole-cluster) drain.
#pragma once

#include <string>

#include "cluster/frontend.h"
#include "serve/server.h"

namespace skewopt::cluster {

/// Dispatches one parsed single-reply request (every verb but RESULTS).
/// Never throws for protocol-level errors — they become
/// {"ok":false,"error":...} replies.
serve::json::Value handleClusterRequest(ClusterFrontend& fe,
                                        const serve::json::Value& request);

/// Full line dispatch including the streaming verbs: parses, handles, and
/// emits one or more reply lines through `emit`. Returns false when the
/// connection should close (peer gone mid-stream).
bool handleClusterLine(ClusterFrontend& fe, const std::string& line,
                       const serve::TcpServer::LineSink& emit);

/// The handler to construct a serve::TcpServer around; `fe` must outlive
/// the server.
serve::TcpServer::LineHandler clusterLineHandler(ClusterFrontend& fe);

}  // namespace skewopt::cluster
