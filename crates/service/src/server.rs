//! The TCP layer of `xqd-server`: thread-per-connection over one shared
//! [`QueryService`], newline-delimited JSON frames ([`crate::proto`]),
//! graceful shutdown.
//!
//! Connection reads run with a short socket timeout so every thread
//! periodically rechecks the shutdown flag; partial lines survive
//! timeout ticks in the connection's own buffer. Shutdown (from
//! [`ServerHandle::shutdown`] or a client `shutdown` frame) sets the
//! flag and wakes the blocking `accept` with a throwaway self-connect,
//! then joins every thread — no connection is torn down mid-frame.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{self, Control};
use crate::service::QueryService;

/// How long a connection read blocks before rechecking the shutdown
/// flag (and how long `accept` can take to notice it, worst case).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A line longer than this is a protocol violation and closes the
/// connection (bounds per-connection memory against garbage input).
const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4555` (port `0` picks a free
    /// port; read the real one from [`ServerHandle::addr`]).
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:4555".to_string(),
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running for the
/// process lifetime (the binary's main thread parks on
/// [`ServerHandle::wait`] instead).
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Bind `config.addr` and serve `service` until shutdown.
pub fn serve(service: Arc<QueryService>, config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("xqd-accept".to_string())
            .spawn(move || accept_loop(listener, addr, service, shutdown))?
    };
    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (counters, direct embedding access).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Whether shutdown has been requested (by a client frame or
    /// [`ServerHandle::shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the accept loop exits (i.e. until some client sends
    /// `shutdown` or another thread calls [`ServerHandle::shutdown`]).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Request graceful shutdown and wait for every thread to finish.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        self.wait();
    }
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
) {
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let service = Arc::clone(&service);
        let shutdown_flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("xqd-conn".to_string())
            .spawn(move || {
                let stop = serve_connection(stream, &service, &shutdown_flag);
                if stop {
                    shutdown_flag.store(true, Ordering::SeqCst);
                    // Wake the acceptor so it observes the flag.
                    let _ = TcpStream::connect(addr);
                }
            });
        if let Ok(h) = handle {
            let mut threads = conn_threads.lock().expect("thread list lock");
            // Reap finished threads opportunistically so the list does
            // not grow with connection count.
            threads.retain(|t| !t.is_finished());
            threads.push(h);
        }
    }
    let threads = std::mem::take(&mut *conn_threads.lock().expect("thread list lock"));
    for t in threads {
        let _ = t.join();
    }
}

/// Decrements the active-session gauge when a connection thread exits,
/// whichever return path it takes.
struct SessionGuard<'a>(&'a QueryService);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.0.metrics().session_ended();
    }
}

/// Serve one connection to completion. Returns `true` when the client
/// requested server shutdown.
fn serve_connection(stream: TcpStream, service: &QueryService, shutdown: &AtomicBool) -> bool {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return false,
    };
    // Active-session gauge: decremented on every exit path by the guard.
    service.metrics().session_started();
    let _session = SessionGuard(service);
    let _ = reader.set_read_timeout(Some(POLL_INTERVAL));
    let mut writer = stream;
    // Replies are small and the client waits for each: send them now
    // rather than letting Nagle hold a segment for the peer's delayed
    // ACK. Each frame leaves in one write, newline included, from a
    // buffer the connection keeps.
    let _ = writer.set_nodelay(true);
    let mut out: Vec<u8> = Vec::new();
    let mut emit = |frame: &str| -> bool {
        out.clear();
        out.extend_from_slice(frame.as_bytes());
        out.push(b'\n');
        writer.write_all(&out).is_ok()
    };

    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Handle the complete lines already buffered, each parsed where
        // it lies, before reading more.
        let mut consumed = 0;
        while let Some(len) = buf[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[consumed..consumed + len]);
            consumed += len + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match proto::handle_line(service, line, &mut emit) {
                Control::Continue => {}
                Control::Close => return false,
                Control::Shutdown => return true,
            }
        }
        buf.drain(..consumed);
        if shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if buf.len() > MAX_FRAME_BYTES {
            emit(&proto::error_frame("frame too large"));
            return false;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return false, // EOF — client hung up.
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                continue; // Poll tick: recheck the shutdown flag.
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}
