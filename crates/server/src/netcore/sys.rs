//! Raw Linux syscall FFI for the connection core: `epoll(7)`,
//! `eventfd(2)`, the `signal(2)` handler the serving binaries wait on, and
//! the page size behind the resident-memory gauge.
//!
//! The offline build environment has no `libc` crate, so the handful of
//! symbols the reactor needs are declared directly against the C library
//! every Rust binary already links. Constants are the x86-64 Linux UAPI
//! values (the only target this repository builds on).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `EPOLL_CLOEXEC` for [`epoll_create1`].
pub const EPOLL_CLOEXEC: i32 = 0o2000000;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

/// `EFD_CLOEXEC | EFD_NONBLOCK` for [`eventfd`].
pub const EFD_CLOEXEC: i32 = 0o2000000;
pub const EFD_NONBLOCK: i32 = 0o4000;

/// One readiness record. On x86-64 the kernel ABI packs this struct to 12
/// bytes (`__EPOLL_PACKED` in the UAPI headers); other architectures use
/// natural alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn signal(signum: i32, handler: usize) -> usize;
    fn sysconf(name: i32) -> i64;
}

/// Checked `epoll_create1`.
pub fn sys_epoll_create1() -> io::Result<i32> {
    match unsafe { epoll_create1(EPOLL_CLOEXEC) } {
        -1 => Err(io::Error::last_os_error()),
        fd => Ok(fd),
    }
}

/// Checked `epoll_ctl`. `event` may be null only for `EPOLL_CTL_DEL`.
pub fn sys_epoll_ctl(epfd: i32, op: i32, fd: i32, event: Option<EpollEvent>) -> io::Result<()> {
    let mut ev = event;
    let ptr = ev.as_mut().map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
    match unsafe { epoll_ctl(epfd, op, fd, ptr) } {
        -1 => Err(io::Error::last_os_error()),
        _ => Ok(()),
    }
}

/// Checked `epoll_wait`; retries `EINTR` internally so signal delivery
/// (SIGTERM sets a flag the caller polls) never surfaces as an error.
pub fn sys_epoll_wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Checked `eventfd` (non-blocking, close-on-exec).
pub fn sys_eventfd() -> io::Result<i32> {
    match unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) } {
        -1 => Err(io::Error::last_os_error()),
        fd => Ok(fd),
    }
}

/// Best-effort `close(2)` (used by the RAII fd owners; errors ignored —
/// there is nothing useful to do with them at drop time).
pub fn sys_close(fd: i32) {
    unsafe {
        close(fd);
    }
}

/// Adds `1` to an eventfd counter. Async-signal-safe and non-blocking; a
/// full counter (`EAGAIN`) means a wakeup is already pending, which is all
/// the caller wants.
pub fn sys_eventfd_write(fd: i32) {
    let one: u64 = 1;
    unsafe {
        write(fd, &one as *const u64 as *const u8, 8);
    }
}

/// Drains an eventfd counter to zero (non-blocking read; `EAGAIN` means
/// already drained).
pub fn sys_eventfd_drain(fd: i32) {
    let mut buf = [0u8; 8];
    unsafe {
        read(fd, buf.as_mut_ptr(), 8);
    }
}

/// The process's resident set size in bytes: `/proc/self/statm`'s
/// resident page count times the page size. 0 if procfs cannot be read.
pub fn resident_bytes() -> u64 {
    const SC_PAGESIZE: i32 = 30;
    let pages = std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .unwrap_or(0);
    // SAFETY: `sysconf` takes a plain integer and touches no memory of ours.
    let page = unsafe { sysconf(SC_PAGESIZE) };
    pages.saturating_mul(u64::try_from(page).unwrap_or(0))
}

/// Blocks until SIGTERM or SIGINT arrives. The handlers are installed
/// before `ready` runs, so a signal sent by anyone who observed `ready`'s
/// effect (a supervisor that read the announced address) sets the flag
/// instead of killing the process with the default action.
pub fn wait_for_signal(ready: impl FnOnce()) {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: flip the flag.
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    let handler = on_signal as *const () as usize;
    // SAFETY: both are valid signal numbers and the handler only stores
    // to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    ready();
    while !SIGNALLED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
}
