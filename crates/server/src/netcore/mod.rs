//! # netcore — the std-only event-driven connection core
//!
//! An epoll-backed reactor ([`Poller`], [`Waker`]), a framed non-blocking
//! connection state machine ([`FramedConn`]), and the client-connection
//! lifecycle built on them (`Clients`, which keeps the shared
//! [`ConnCounters`]), written directly on `epoll(7)`/`eventfd(2)` FFI — no
//! async runtime, no external crates. The parts of the serving shell
//! (`crate::shell`) that sit on the OS live here too: one
//! [`ShutdownHandle`] type, the shutdown step both run loops take
//! (`Clients::drained`), and one SIGTERM/SIGINT wait
//! ([`wait_for_signal`]).
//!
//! Two run loops share it:
//!
//! * the daemon's connection core (`server::eio`): non-blocking accept,
//!   per-connection incremental frame decode, request pipelining with
//!   worker completions delivered back through an eventfd wakeup, write
//!   buffering with `EAGAIN` backpressure, and per-connection idle
//!   deadlines;
//! * the `preinfer-router` front (`server::router`): the same client
//!   lifecycle, plus pooled pipelined upstream connections to the shard
//!   daemons.
//!
//! Design notes live in DESIGN.md §6.

mod client;
pub mod conn;
pub mod poll;
mod sys;

pub(crate) use client::{ClientConn, Clients, Reactor, SWEEP_MS, TOKEN_LISTENER, TOKEN_WAKER};
pub use client::{ConnCounters, ShutdownHandle};
pub use conn::{ConnError, FramedConn, WRITE_BACKPRESSURE_BYTES};
pub use poll::{Event, Interest, Poller, Waker};
pub(crate) use sys::resident_bytes;
pub use sys::wait_for_signal;
