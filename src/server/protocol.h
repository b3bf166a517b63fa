// sasta-rpc-v1: the serve-mode wire protocol (docs/SERVER.md).
//
// Framing is newline-delimited JSON: every request and every response is
// exactly one '\n'-terminated line holding one JSON object.  Requests
// carry {"id", "method", "params"}; responses echo the id and carry
// either "result" or "error" — never both — plus the protocol version so
// clients can refuse a server they do not understand.
//
// This header is the single source of truth for the protocol's method
// names, ECO operation names and error codes: tools/check_docs_sync greps
// the kMethod*/kEco*/kErr* literals below and fails CI when docs/SERVER.md
// does not document every one of them.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.h"

namespace sasta::server {

inline constexpr char kProtocolVersion[] = "sasta-rpc-v1";

// Methods.
inline constexpr char kMethodPing[] = "ping";
inline constexpr char kMethodHello[] = "hello";
inline constexpr char kMethodLoad[] = "load";
inline constexpr char kMethodAnalyze[] = "analyze";
inline constexpr char kMethodEco[] = "eco";
inline constexpr char kMethodMetrics[] = "metrics";
inline constexpr char kMethodShutdown[] = "shutdown";

// ECO operations (the "op" param of kMethodEco).
inline constexpr char kEcoSwapGate[] = "swap_gate";
inline constexpr char kEcoResizeCell[] = "resize_cell";
inline constexpr char kEcoRetargetCorner[] = "retarget_corner";

/// Longest request line the daemon buffers, in bytes, excluding the
/// '\n'.  A longer line is answered with one kErrParse error (id null)
/// naming this limit, and the connection is closed.  The cap sits far
/// above any real request (a `load` carrying inline bench text for a
/// large design is a few hundred KB) while bounding the memory one client
/// can pin.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 20;

// Error codes.
inline constexpr char kErrParse[] = "E_PARSE";          ///< request not JSON
inline constexpr char kErrProto[] = "E_PROTO";          ///< malformed envelope
inline constexpr char kErrNoMethod[] = "E_NO_METHOD";   ///< unknown method
inline constexpr char kErrBadParams[] = "E_BAD_PARAMS"; ///< invalid params
inline constexpr char kErrNoSession[] = "E_NO_SESSION"; ///< unknown session id
inline constexpr char kErrNoInstance[] = "E_NO_INSTANCE";  ///< ECO target
inline constexpr char kErrNoCell[] = "E_NO_CELL";       ///< swap cell unknown
inline constexpr char kErrPinMismatch[] = "E_PIN_MISMATCH";  ///< swap arity
inline constexpr char kErrShutdown[] = "E_SHUTDOWN";    ///< draining, retry
inline constexpr char kErrInternal[] = "E_INTERNAL";    ///< handler threw

/// A parsed request envelope.  `id` is -1 when the client omitted it (the
/// response echoes null); `params` is an empty object when omitted.
struct RpcRequest {
  long id = -1;
  bool has_id = false;
  std::string method;
  util::JsonValue params;
};

/// Parses one request line.  On failure returns std::nullopt and fills
/// `error_code`/`error_message` with the kErrParse/kErrProto response to
/// send (the id, when recoverable, lands in `id_out`).
std::optional<RpcRequest> parse_request(std::string_view line,
                                        std::string* error_code,
                                        std::string* error_message,
                                        long* id_out, bool* has_id_out);

/// Builds the one-line response envelope around a result payload.
util::JsonValue make_response(long id, bool has_id, util::JsonValue result);

/// Builds the one-line error envelope.
util::JsonValue make_error(long id, bool has_id, std::string_view code,
                           std::string_view message);

}  // namespace sasta::server
