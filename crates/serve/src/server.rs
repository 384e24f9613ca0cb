//! The threaded TCP server: one acceptor thread feeding a fixed worker
//! pool over an `mpsc` channel.
//!
//! Workers block on a shared `Mutex<Receiver>` — the classic std-only
//! work queue — so a slow request occupies one worker while the others
//! keep draining connections. Each connection may carry any number of
//! request frames back-to-back; the worker answers them in order and
//! hangs up when the peer does (or after the first unparseable frame,
//! since framing cannot resync past garbage).
//!
//! Shutdown is deterministic without read timeouts: every worker parks a
//! clone of its active stream in a per-worker slot, and
//! [`Server::shutdown`] closes those sockets after stopping the
//! acceptor, which unblocks any worker waiting in a read and lets every
//! thread be joined.

use crate::handler::ServeState;
use crate::protocol::{err, read_frame, write_frame};
use std::io::{self, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads (each handles one connection at a time).
    pub workers: usize,
    /// Per-request budgets, shared by every worker.
    pub budgets: crate::handler::Budgets,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            budgets: crate::handler::Budgets::default(),
        }
    }
}

/// One worker's view of the shared server machinery.
struct WorkerShared {
    rx: Mutex<Receiver<TcpStream>>,
    stop: AtomicBool,
    /// Slot `i` holds a clone of worker `i`'s in-flight connection so
    /// shutdown can unblock a worker parked in a read.
    active: Vec<Mutex<Option<TcpStream>>>,
}

/// A running compile server. Dropping it without calling
/// [`Server::shutdown`] detaches the threads (they exit with the
/// process); tests call `shutdown` for a deterministic teardown.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shared: Arc<WorkerShared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor plus `config.workers` worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServeState::new(config.budgets));
        let workers_n = config.workers.max(1);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let shared = Arc::new(WorkerShared {
            rx: Mutex::new(rx),
            stop: AtomicBool::new(false),
            active: (0..workers_n).map(|_| Mutex::new(None)).collect(),
        });
        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(i, &shared, &state))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                // `tx` moves in here: when this thread exits, the channel
                // closes and every idle worker unblocks and exits too.
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(Server {
            addr,
            state,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (exposed so tests can inspect cache counters).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops accepting, closes every in-flight connection and joins all
    /// threads. A request currently being *computed* still finishes (the
    /// worker only notices the closed socket at its next read), but
    /// idle keep-alive connections are dropped immediately.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept with a throwaway
        // connection; it then observes the stop flag and exits, closing
        // the channel behind it.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Unblock workers parked in a read on a live connection.
        for slot in &self.shared.active {
            if let Ok(mut guard) = slot.lock() {
                if let Some(s) = guard.take() {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(index: usize, shared: &WorkerShared, state: &ServeState) {
    loop {
        // Hold the queue lock only while dequeuing, never while serving.
        let stream = match shared.rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let stream = match stream {
            Ok(s) => s,
            Err(_) => return, // channel closed: server shut down
        };
        if shared.stop.load(Ordering::SeqCst) {
            continue; // drop connections queued behind a shutdown
        }
        if let Ok(mut guard) = shared.active[index].lock() {
            *guard = stream.try_clone().ok();
        }
        // Re-check after publishing the clone: a shutdown that raced the
        // publication above may have already swept the slots.
        if shared.stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
        } else {
            serve_connection(stream, state);
        }
        if let Ok(mut guard) = shared.active[index].lock() {
            *guard = None;
        }
    }
}

/// Answers frames on one connection until the peer hangs up or sends a
/// frame the protocol cannot recover from.
fn serve_connection(mut stream: TcpStream, state: &ServeState) {
    // Responses go out as soon as they are written (see `protocol`).
    let _ = stream.set_nodelay(true);
    loop {
        let req = match read_frame(&mut stream, state.budgets.max_frame_bytes) {
            Ok(req) => req,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Oversized or malformed frame: report, then hang up —
                // the stream position is unknowable past a bad frame.
                let _ = write_frame(&mut stream, &err("protocol", &e.to_string(), None));
                return;
            }
            Err(_) => return, // EOF or I/O error: peer is gone
        };
        let resp = state.handle(&req);
        if write_frame(&mut stream, &resp).is_err() {
            return;
        }
    }
}
