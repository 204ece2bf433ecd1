//! The `preinferd` wire protocol: length-prefixed JSON frames.
//!
//! Every frame is a 4-byte big-endian length `N` followed by exactly `N`
//! bytes of UTF-8 JSON (one object per frame). `N` must be between 1 and
//! [`MAX_FRAME_LEN`]; anything else is a framing error and the peer closes
//! the connection after a typed error response, because the stream can no
//! longer be resynchronized. The full request/response shapes are
//! documented in `PROTOCOL.md` at the repository root.

use obs::json::{self, Json, ObjBuilder};
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload (16 MiB). Large enough for any
/// MiniLang program plus slack, small enough to bound per-connection
/// memory against hostile length prefixes.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the peer is done.
    Eof,
    /// The declared length is zero or exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The stream ended mid-frame; the framing is lost.
    Truncated,
    /// The payload is not UTF-8.
    NotUtf8,
    /// Any other I/O failure, read timeouts included.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::TooLarge(n) => {
                write!(f, "declared frame length {n} outside 1..={MAX_FRAME_LEN}")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Reads exactly `buf.len()` bytes; EOF is truncation once `started` (at
/// least one byte already consumed). Interrupted reads are retried.
fn read_exact_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    mut started: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if started { FrameError::Truncated } else { FrameError::Eof });
            }
            Ok(n) => {
                filled += n;
                started = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, returning its JSON payload as a string.
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut prefix = [0u8; 4];
    read_exact_frame(r, &mut prefix, false)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    read_exact_frame(r, &mut payload, true)?;
    String::from_utf8(payload).map_err(|_| FrameError::NotUtf8)
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(!bytes.is_empty() && bytes.len() <= MAX_FRAME_LEN);
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

// ---- requests ---------------------------------------------------------------

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    Ping {
        id: Option<String>,
    },
    Stats {
        id: Option<String>,
    },
    /// Prometheus text-format exposition of the unified metrics registry.
    Metrics {
        id: Option<String>,
    },
    /// Retained request traces from the sampling ring.
    Trace {
        id: Option<String>,
        select: TraceSelect,
    },
    Infer {
        id: Option<String>,
        infer: InferRequest,
    },
}

/// Which retained traces a `trace` request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSelect {
    /// The `k` most recent traces, newest first (default `1`).
    Last(u64),
    /// The trace of one request id, if still retained.
    ById(u64),
    /// The trace of one distributed trace id (128-bit hex), if retained.
    /// On a router this fans out and returns the *stitched* multi-process
    /// trace.
    ByTraceId(String),
}

/// A distributed trace context carried on an `infer` frame. The outermost
/// tier (the router, or a client driving a daemon directly) mints the
/// 128-bit `trace_id` and decides sampling; every process downstream
/// honors that decision instead of its own head/tail sampling policy, and
/// stamps its recorded spans with the shared id so the per-process traces
/// are joinable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id as exactly 32 hex digits.
    pub trace_id: String,
    /// The minting process's span id this process's work nests under
    /// (e.g. the router's `upstream_rtt` span).
    pub parent_span_id: Option<u64>,
    /// Whether the minting tier chose to record this request. `false`
    /// suppresses local head sampling too — at most one tier decides.
    pub sampled: bool,
}

/// `true` iff `s` is a well-formed 128-bit hex trace id.
pub fn valid_trace_id(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The `infer` verb's payload.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// Full MiniLang source text.
    pub program: String,
    /// Entry function; defaults to the program's first function.
    pub func: Option<String>,
    /// Per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// `TestGenConfig::max_runs` override.
    pub tests: Option<usize>,
    /// Distributed trace context minted upstream, if any.
    pub trace: Option<TraceContext>,
}

/// Typed error codes (`PROTOCOL.md`, "Error codes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or its JSON payload could not be understood.
    BadRequest,
    /// The declared frame length was out of range.
    FrameTooLarge,
    /// The admission queue is full; retry later.
    Overloaded,
    /// The daemon is draining; no new work is admitted.
    ShuttingDown,
    /// The submitted program failed to compile.
    CompileError,
    /// The daemon dropped the request internally (worker died).
    Internal,
    /// The connection sat idle past the per-connection deadline and is
    /// being closed.
    IdleTimeout,
    /// The router could not reach the shard this request routes to.
    UpstreamUnavailable,
}

impl ErrorCode {
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::CompileError => "compile_error",
            ErrorCode::Internal => "internal",
            ErrorCode::IdleTimeout => "idle_timeout",
            ErrorCode::UpstreamUnavailable => "upstream_unavailable",
        }
    }
}

/// Parses a request payload. `Err` carries a human-readable reason for the
/// `bad_request` response.
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let v = json::parse(payload).map_err(|e| e.to_string())?;
    let id = v.str_field("id").map(str::to_string);
    match v.str_field("verb") {
        Some("ping") => Ok(Request::Ping { id }),
        Some("stats") => Ok(Request::Stats { id }),
        Some("metrics") => Ok(Request::Metrics { id }),
        Some("trace") => {
            let request_id = match v.get("request_id") {
                None | Some(Json::Null) => None,
                Some(j) => Some(
                    j.as_u64()
                        .ok_or_else(|| "`request_id` must be a non-negative integer".to_string())?,
                ),
            };
            let last = match v.get("last") {
                None | Some(Json::Null) => None,
                Some(j) => Some(
                    j.as_u64()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "`last` must be a positive integer".to_string())?,
                ),
            };
            let trace_id = match v.get("trace_id") {
                None | Some(Json::Null) => None,
                Some(j) => Some(
                    j.as_str()
                        .filter(|s| valid_trace_id(s))
                        .map(str::to_string)
                        .ok_or_else(|| "`trace_id` must be 32 hex digits".to_string())?,
                ),
            };
            let select = match (request_id, last, trace_id) {
                (None, None, Some(tid)) => TraceSelect::ByTraceId(tid),
                (Some(rid), None, None) => TraceSelect::ById(rid),
                (None, k, None) => TraceSelect::Last(k.unwrap_or(1)),
                _ => {
                    return Err(
                        "`trace` takes one of `last`, `request_id` or `trace_id`".to_string()
                    )
                }
            };
            Ok(Request::Trace { id, select })
        }
        Some("infer") => {
            let program = v
                .str_field("program")
                .ok_or_else(|| "infer requires a string `program` field".to_string())?
                .to_string();
            let func = v.str_field("func").map(str::to_string);
            let deadline_ms =
                match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(j.as_u64().ok_or_else(|| {
                        "`deadline_ms` must be a non-negative integer".to_string()
                    })?),
                };
            let tests = match v.get("tests") {
                None | Some(Json::Null) => None,
                Some(j) => Some(
                    j.as_u64()
                        .ok_or_else(|| "`tests` must be a non-negative integer".to_string())?
                        as usize,
                ),
            };
            let trace = match v.get("trace") {
                None | Some(Json::Null) => None,
                Some(t) => {
                    let trace_id = t
                        .str_field("trace_id")
                        .filter(|s| valid_trace_id(s))
                        .ok_or_else(|| "`trace.trace_id` must be 32 hex digits".to_string())?
                        .to_string();
                    let parent_span_id = match t.get("parent_span_id") {
                        None | Some(Json::Null) => None,
                        Some(j) => Some(j.as_u64().ok_or_else(|| {
                            "`trace.parent_span_id` must be a non-negative integer".to_string()
                        })?),
                    };
                    let sampled = match t.get("sampled") {
                        None | Some(Json::Null) => true,
                        Some(j) => j
                            .as_bool()
                            .ok_or_else(|| "`trace.sampled` must be a boolean".to_string())?,
                    };
                    Some(TraceContext { trace_id, parent_span_id, sampled })
                }
            };
            Ok(Request::Infer {
                id,
                infer: InferRequest { program, func, deadline_ms, tests, trace },
            })
        }
        Some(other) => Err(format!("unknown verb `{other}`")),
        None => Err("missing string `verb` field".to_string()),
    }
}

// ---- request rendering (client side) ---------------------------------------

/// Renders a `ping` request.
pub fn render_ping(id: Option<&str>) -> String {
    ObjBuilder::new().str("verb", "ping").opt_str("id", id).build()
}

/// Renders a `stats` request.
pub fn render_stats(id: Option<&str>) -> String {
    ObjBuilder::new().str("verb", "stats").opt_str("id", id).build()
}

/// Renders a `metrics` request.
pub fn render_metrics(id: Option<&str>) -> String {
    ObjBuilder::new().str("verb", "metrics").opt_str("id", id).build()
}

/// Renders a `trace` request.
pub fn render_trace(id: Option<&str>, select: &TraceSelect) -> String {
    let b = ObjBuilder::new().str("verb", "trace").opt_str("id", id);
    match select {
        TraceSelect::Last(k) => b.u64("last", *k),
        TraceSelect::ById(rid) => b.u64("request_id", *rid),
        TraceSelect::ByTraceId(tid) => b.str("trace_id", tid),
    }
    .build()
}

/// Renders a trace context as a JSON object (the `trace` field of an
/// `infer` frame).
pub fn render_trace_context(ctx: &TraceContext) -> String {
    let mut b = ObjBuilder::new().str("trace_id", &ctx.trace_id);
    if let Some(p) = ctx.parent_span_id {
        b = b.u64("parent_span_id", p);
    }
    b.bool("sampled", ctx.sampled).build()
}

/// Renders an `infer` request.
pub fn render_infer(id: Option<&str>, req: &InferRequest) -> String {
    let mut b =
        ObjBuilder::new().str("verb", "infer").opt_str("id", id).str("program", &req.program);
    if let Some(f) = &req.func {
        b = b.str("func", f);
    }
    if let Some(ms) = req.deadline_ms {
        b = b.u64("deadline_ms", ms);
    }
    if let Some(t) = req.tests {
        b = b.u64("tests", t as u64);
    }
    if let Some(ctx) = &req.trace {
        b = b.raw("trace", render_trace_context(ctx));
    }
    b.build()
}

/// Renders a typed error response.
pub fn render_error(id: Option<&str>, code: ErrorCode, message: &str) -> String {
    ObjBuilder::new()
        .bool("ok", false)
        .opt_str("id", id)
        .str("error", code.as_str())
        .str("message", message)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"verb\":\"ping\"}").unwrap();
        write_frame(&mut buf, "{\"verb\":\"stats\"}").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), "{\"verb\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap(), "{\"verb\":\"stats\"}");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge(n) if n == u32::MAX as usize));
    }

    #[test]
    fn zero_length_is_rejected() {
        let buf = 0u32.to_be_bytes().to_vec();
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(FrameError::TooLarge(0))));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc"); // 3 of 10 declared bytes
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(FrameError::Truncated)));
    }

    #[test]
    fn truncated_prefix_is_detected() {
        let buf = vec![0u8, 0u8]; // 2 of 4 prefix bytes
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(FrameError::Truncated)));
    }

    #[test]
    fn non_utf8_payload_is_detected() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(FrameError::NotUtf8)));
    }

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        let req = InferRequest {
            program: "fn f(x int) -> int { return 1 / x; }".to_string(),
            func: Some("f".to_string()),
            deadline_ms: Some(250),
            tests: Some(40),
            trace: None,
        };
        let Request::Infer { id, infer } = parse_request(&render_infer(Some("r1"), &req)).unwrap()
        else {
            panic!("wrong verb")
        };
        assert_eq!(id.as_deref(), Some("r1"));
        assert_eq!(infer.program, req.program);
        assert_eq!(infer.func, req.func);
        assert_eq!(infer.deadline_ms, Some(250));
        assert_eq!(infer.tests, Some(40));
        assert_eq!(infer.trace, None);
        // Unknown fields are ignored, so an older client's `jobs` still parses.
        let old = "{\"verb\":\"infer\",\"program\":\"fn\",\"jobs\":0}";
        assert!(matches!(parse_request(old), Ok(Request::Infer { .. })));
        assert!(matches!(parse_request(&render_ping(None)).unwrap(), Request::Ping { id: None }));
        assert!(matches!(parse_request(&render_stats(None)).unwrap(), Request::Stats { .. }));
        assert!(matches!(parse_request(&render_metrics(None)).unwrap(), Request::Metrics { .. }));
    }

    #[test]
    fn trace_contexts_round_trip_on_infer_frames() {
        let ctx = TraceContext {
            trace_id: "00112233445566778899aabbccddeeff".to_string(),
            parent_span_id: Some(3),
            sampled: true,
        };
        let req = InferRequest {
            program: "fn f() -> int { return 1; }".to_string(),
            func: None,
            deadline_ms: None,
            tests: None,
            trace: Some(ctx.clone()),
        };
        let Request::Infer { infer, .. } = parse_request(&render_infer(None, &req)).unwrap() else {
            panic!("wrong verb")
        };
        assert_eq!(infer.trace, Some(ctx));
        // `sampled: false` and an absent parent survive too.
        let req2 = InferRequest {
            trace: Some(TraceContext {
                trace_id: "00112233445566778899AABBCCDDEEFF".to_string(),
                parent_span_id: None,
                sampled: false,
            }),
            ..req
        };
        let Request::Infer { infer, .. } = parse_request(&render_infer(None, &req2)).unwrap()
        else {
            panic!("wrong verb")
        };
        let got = infer.trace.expect("context survives");
        assert_eq!(got.parent_span_id, None);
        assert!(!got.sampled);
        // Malformed contexts are rejected with a reason.
        for bad in [
            "{\"verb\":\"infer\",\"program\":\"fn\",\"trace\":{}}",
            "{\"verb\":\"infer\",\"program\":\"fn\",\"trace\":{\"trace_id\":\"zz\"}}",
            "{\"verb\":\"infer\",\"program\":\"fn\",\
             \"trace\":{\"trace_id\":\"00112233445566778899aabbccddeeff\",\"sampled\":3}}",
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn trace_requests_select_last_request_id_or_trace_id() {
        assert!(matches!(
            parse_request(&render_trace(None, &TraceSelect::Last(5))).unwrap(),
            Request::Trace { select: TraceSelect::Last(5), .. }
        ));
        assert!(matches!(
            parse_request(&render_trace(Some("t1"), &TraceSelect::ById(9))).unwrap(),
            Request::Trace { select: TraceSelect::ById(9), .. }
        ));
        let tid = "00112233445566778899aabbccddeeff".to_string();
        match parse_request(&render_trace(None, &TraceSelect::ByTraceId(tid.clone()))).unwrap() {
            Request::Trace { select: TraceSelect::ByTraceId(got), .. } => assert_eq!(got, tid),
            other => panic!("wrong parse: {other:?}"),
        }
        // Default selection: the most recent trace.
        assert!(matches!(
            parse_request("{\"verb\":\"trace\"}").unwrap(),
            Request::Trace { select: TraceSelect::Last(1), .. }
        ));
        for bad in [
            "{\"verb\":\"trace\",\"last\":0}",
            "{\"verb\":\"trace\",\"last\":-2}",
            "{\"verb\":\"trace\",\"request_id\":\"x\"}",
            "{\"verb\":\"trace\",\"last\":1,\"request_id\":1}",
            "{\"verb\":\"trace\",\"trace_id\":\"tooshort\"}",
            "{\"verb\":\"trace\",\"request_id\":1,\
             \"trace_id\":\"00112233445566778899aabbccddeeff\"}",
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for bad in [
            "[]",
            "{}",
            "{\"verb\":\"nope\"}",
            "{\"verb\":\"infer\"}",
            "{\"verb\":\"infer\",\"program\":7}",
            "{\"verb\":\"infer\",\"program\":\"fn\",\"deadline_ms\":-4}",
            "not json",
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad}");
        }
    }

    /// The `deadline_ms` an infer frame carrying the JSON number `n` parses to.
    fn deadline_of(n: &str) -> Result<Option<u64>, String> {
        let frame = format!("{{\"verb\":\"infer\",\"program\":\"fn\",\"deadline_ms\":{n}}}");
        match parse_request(&frame)? {
            Request::Infer { infer, .. } => Ok(infer.deadline_ms),
            other => panic!("not an infer: {other:?}"),
        }
    }

    #[test]
    fn integer_fields_are_exact_and_out_of_range_is_rejected() {
        for (n, want) in [
            ("9007199254740991", (1u64 << 53) - 1),
            ("9007199254740992", 1 << 53),
            ("9007199254740993", (1 << 53) + 1),
            ("18446744073709551615", u64::MAX),
        ] {
            assert_eq!(deadline_of(n), Ok(Some(want)), "deadline_ms {n}");
        }
        assert!(deadline_of("18446744073709551616").is_err(), "2^64 must be a bad_request");
        let span = "{\"verb\":\"infer\",\"program\":\"fn\",\"trace\":{\"trace_id\":\"\
                    0123456789abcdef0123456789abcdef\",\"parent_span_id\":18446744073709551616}}";
        assert!(parse_request(span).is_err(), "2^64 parent_span_id must be a bad_request");
        let trace = "{\"verb\":\"trace\",\"request_id\":18446744073709551616}";
        assert!(parse_request(trace).is_err(), "2^64 request_id must be a bad_request");
    }

    proptest! {
        #[test]
        fn every_u64_reads_exactly_and_every_larger_integer_is_rejected(
            n in proptest::num::u64::ANY,
        ) {
            prop_assert_eq!(deadline_of(&n.to_string()), Ok(Some(n)));
            prop_assert!(deadline_of(&(u128::from(n) + (1 << 64)).to_string()).is_err());
        }
    }
}
