//! A minimal blocking client for the `preinferd` protocol, shared by the
//! `preinfer-client` binary and the integration tests.

use crate::protocol::{self, FrameError, InferRequest};
use obs::json::{self, Json};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// One connection to a `preinferd` instance.
pub struct Client {
    stream: TcpStream,
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Frame(FrameError),
    /// The response was not parseable JSON.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::BadResponse(s) => write!(f, "unparseable response: {s}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7071`).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Generous response timeout so a wedged daemon cannot hang the
        // client forever; inference deadlines are the daemon's job.
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        Ok(Client { stream })
    }

    /// Sends one rendered request payload and reads one response.
    pub fn round_trip(&mut self, payload: &str) -> Result<Json, ClientError> {
        protocol::write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    /// Reads one response frame without sending anything first (tests use
    /// this after pushing raw bytes through [`Client::stream_mut`]).
    pub fn read_response(&mut self) -> Result<Json, ClientError> {
        let resp = protocol::read_frame(&mut self.stream).map_err(ClientError::Frame)?;
        json::parse(&resp).map_err(|e| ClientError::BadResponse(e.to_string()))
    }

    pub fn ping(&mut self) -> Result<Json, ClientError> {
        self.round_trip(&protocol::render_ping(None))
    }

    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.round_trip(&protocol::render_stats(None))
    }

    /// Scrapes the daemon's Prometheus exposition (the `metrics` verb).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.round_trip(&protocol::render_metrics(None))
    }

    /// Fetches retained request traces (the `trace` verb).
    pub fn trace(&mut self, select: crate::protocol::TraceSelect) -> Result<Json, ClientError> {
        self.round_trip(&protocol::render_trace(None, &select))
    }

    pub fn infer(&mut self, req: &InferRequest) -> Result<Json, ClientError> {
        self.round_trip(&protocol::render_infer(None, req))
    }

    /// The raw stream (tests use it to send hostile bytes).
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// Extracts the served ψ strings of an `infer` response, in ACL order.
/// `None` when the response is not a successful inference.
pub fn served_psis(resp: &Json) -> Option<Vec<String>> {
    if resp.get("ok")?.as_bool()? {
        Some(
            resp.get("acls")?
                .as_array()?
                .iter()
                .filter_map(|a| a.str_field("psi").map(str::to_string))
                .collect(),
        )
    } else {
        None
    }
}

/// The ψ strings an offline run computes for `func`, in ACL order: the
/// ground truth a served answer must match byte for byte. Default
/// configuration, inline calls, one job and no solver cache, so nothing
/// it returns can depend on what a daemon's warm cache has seen.
pub fn offline_psis(program: &minilang::TypedProgram, func: &str) -> Vec<String> {
    let run = preinfer_core::SummaryBuildConfig::default().run(program, func, None);
    run.inferences.iter().map(|(_, inf)| inf.precondition.psi.to_string()).collect()
}
