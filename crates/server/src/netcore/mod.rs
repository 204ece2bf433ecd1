//! # netcore — the std-only event-driven connection core
//!
//! An epoll-backed reactor ([`Poller`], [`Waker`]), a framed non-blocking
//! connection state machine ([`FramedConn`]), and the client-connection
//! lifecycle built on them (`Clients`), written directly on
//! `epoll(7)`/`eventfd(2)` FFI in the same spirit as the daemon's
//! `signal(2)` handler — no async runtime, no external crates.
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
pub use conn::{ConnError, FramedConn, WRITE_BACKPRESSURE_BYTES};
pub use poll::{Event, Interest, Poller, Waker};
