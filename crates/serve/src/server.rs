//! The TCP daemon: an accept loop and one handler thread per connection,
//! all calling one shared [`Service`].
//!
//! Threading model:
//!
//! * **one accept thread** hands each connection to a handler thread;
//! * **per-connection handler threads** read NDJSON lines, parse them
//!   ([`parse_request`]), and call [`Service::handle`] directly. The
//!   service's pending-batch lock orders every state change and bounds how
//!   many requests may wait for it (backpressure); reads answer from the
//!   committed snapshot without the lock (see [`crate::service`]). An
//!   `apply` waits for its commit on its own handler thread;
//! * the service's solver thread (`mmd-ingest-solver`) and the `mmd-par`
//!   pool run the re-solves.
//!
//! Parse failures are answered by the handler itself and never reach the
//! service. A line longer than [`max_request_line`] of the configured
//! `max_batch` is answered with a `parse` error frame and its connection is
//! closed, so no client can make the daemon buffer without bound.
//!
//! Shutdown: a `shutdown` frame drains the service (subsequent state
//! changes answer `unavailable`), stops the accept loop, and
//! [`ServerHandle::join`] returns once in-flight connections close.

use crate::protocol::{
    max_request_line, parse_request, print_response, ErrorCode, FrameError, Request, Response,
};
use crate::service::Service;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running daemon: join handles plus the bound address.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<Service>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the daemon is listening on (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown from outside the protocol (e.g. on a signal):
    /// stops the accept loop; in-flight connections finish.
    pub fn shutdown(&self) {
        stop_accepting(&self.stop, self.addr);
    }

    /// Blocks until the daemon has fully stopped (accept loop exited, all
    /// connections closed), returning the final [`Service`] state for
    /// inspection.
    pub fn join(self) -> Service {
        let _ = self.accept.join();
        // Every handler thread has been joined, so this is the last
        // reference.
        Arc::try_unwrap(self.service)
            .unwrap_or_else(|_| unreachable!("connection handlers outlived the accept loop"))
    }
}

fn stop_accepting(stop: &AtomicBool, addr: SocketAddr) {
    if !stop.swap(true, Ordering::SeqCst) {
        // The accept loop blocks in `accept`; a throwaway connection wakes
        // it so it can observe the flag and exit.
        let _ = TcpStream::connect(addr);
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and spawns
/// the daemon threads.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(service: Service, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let service = Arc::new(service);
    let stop = Arc::new(AtomicBool::new(false));

    let accept = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &service, &stop, addr);
                }));
            }
            for h in handlers {
                let _ = h.join();
            }
        })
    };

    Ok(ServerHandle {
        addr,
        stop,
        service,
        accept,
    })
}

/// One connection: read a line, answer a line, until EOF, an overlong
/// line, or shutdown.
fn handle_connection(stream: TcpStream, service: &Service, stop: &AtomicBool, addr: SocketAddr) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let limit = max_request_line(service.config().max_batch);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the limit is enough to tell an overlong line.
        let Ok(1..) = (&mut reader)
            .take((limit as u64).saturating_add(1))
            .read_until(b'\n', &mut line)
        else {
            break;
        };
        let overlong = line.len() > limit && line.last() != Some(&b'\n');
        let parsed = if overlong {
            Err(FrameError {
                code: ErrorCode::Parse,
                message: format!("request line longer than {limit} bytes"),
            })
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                break;
            };
            // Strip the terminator exactly like `BufRead::lines`.
            let text = text
                .strip_suffix('\n')
                .map_or(text, |t| t.strip_suffix('\r').unwrap_or(t));
            if text.trim().is_empty() {
                continue;
            }
            parse_request(text)
        };
        let response = match &parsed {
            Ok(request) => service.handle(request),
            Err(e) => service.reject(e),
        };
        if write_frame(&mut writer, &response).is_err() {
            break;
        }
        if overlong {
            // Consume the rest of the line, so the client reads the frame
            // and then EOF rather than a connection reset.
            skip_line(&mut reader);
            break;
        }
        if matches!(parsed, Ok(Request::Shutdown)) && !matches!(response, Response::Error { .. }) {
            stop_accepting(stop, addr);
        }
    }
}

/// Discards input up to and including the next newline, in bounded memory.
fn skip_line(reader: &mut impl BufRead) {
    while let Ok(buf) = reader.fill_buf() {
        let (used, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(newline) => (newline + 1, true),
            None => (buf.len(), buf.is_empty()),
        };
        reader.consume(used);
        if done {
            return;
        }
    }
}

fn write_frame(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = print_response(response);
    line.push('\n');
    writer.write_all(line.as_bytes())
}
