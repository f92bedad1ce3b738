//! HTTP load generator, open or closed loop.
//!
//! Each of at most `nproc` client threads owns one keep-alive connection
//! and takes the next scheduled request when it is free. In an open loop
//! requests follow a fixed schedule of due times, so a request due while
//! every connection is busy goes out late. Latency is timed from the due
//! time, which charges a stall to every request it delays; how late the
//! generator sent (`lag`) is recorded beside it. In a closed loop a
//! request is due when a connection is free.

use crate::trace::Tracer;
use hbm_serve::http::{read_response, write_request};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request body and the response it must produce.
pub struct Body {
    /// Endpoint path.
    pub path: &'static str,
    /// HTTP method.
    pub method: &'static str,
    /// Request body.
    pub bytes: Vec<u8>,
    /// Exact expected response body; `None` keeps the response instead.
    pub expected: Option<Vec<u8>>,
}

/// One scheduled request: its due time (seconds after the schedule
/// starts) and the index of its body.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// Due time; `None` for a closed loop (due when a connection is free).
    pub due: Option<f64>,
    /// Body index.
    pub body: usize,
}

/// The outcome of one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Schedule index.
    pub index: usize,
    /// Body index.
    pub body: usize,
    /// Due time, send time and completion time, in seconds after start.
    pub due: f64,
    /// When the request was written.
    pub sent: f64,
    /// When the response was read (or the request failed).
    pub done: f64,
    /// True on a 200 whose body matched the expected bytes.
    pub ok: bool,
    /// HTTP status (0 on a transport failure).
    pub status: u16,
    /// The response body, for bodies without an expected response.
    pub response: Option<Vec<u8>>,
}

impl Outcome {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the request was sent, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }

    /// Round trip from send to response, in milliseconds.
    pub fn service_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }
}

/// A keep-alive connection that re-dials after a transport error.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` (connects on first use).
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    /// One exchange; `Err` on a transport failure or timeout.
    pub fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> Result<(u16, Vec<u8>), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(Duration::from_millis(50)))
                .map_err(|e| format!("read timeout: {e}"))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let deadline = Instant::now() + timeout;
        let r = write_request(stream, method, path, body)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream, deadline).map_err(|e| format!("read: {e:?}")));
        if r.is_err() {
            self.stream = None;
        }
        r
    }
}

/// Sleeps until `t`, spinning through the last 200 µs so requests leave
/// on time.
fn wait_until(t: Instant) {
    let spin = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs `schedule` against `addr` on `clients` threads and connections.
/// A schedule whose requests are all due at once is a closed loop: each
/// client sends its next request as soon as the previous one returns.
/// Each request is recorded as a `serve.request` span (request id = its
/// schedule index) when `tracer` is enabled.
pub fn run(
    addr: SocketAddr,
    bodies: &[Body],
    schedule: &[Scheduled],
    clients: usize,
    tracer: &Tracer,
    timeout: Duration,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(schedule.len()));
    // Lead time so every client is connected and waiting before the first
    // request falls due.
    let start = Instant::now() + Duration::from_millis(20);
    let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut client = Client::new(addr);
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = schedule.get(i) else { break };
                    if let Some(due) = req.due {
                        wait_until(start + Duration::from_secs_f64(due));
                    }
                    let body = &bodies[req.body];
                    let sent = Instant::now();
                    let due = req.due.map_or(sent, |d| start + Duration::from_secs_f64(d));
                    let result = client.roundtrip(body.method, body.path, &body.bytes, timeout);
                    let done = Instant::now();
                    tracer.record("serve.request", None, i as u64, due, done);
                    let (ok, status, response) = match result {
                        Ok((status, resp)) => match &body.expected {
                            Some(want) => (status == 200 && &resp == want, status, None),
                            None => (status == 200, status, Some(resp)),
                        },
                        Err(e) => {
                            eprintln!("loadgen: request {i} failed: {e}");
                            (false, 0, None)
                        }
                    };
                    mine.push(Outcome {
                        index: i,
                        body: req.body,
                        due: at(due),
                        sent: at(sent),
                        done: at(done),
                        ok,
                        status,
                        response,
                    });
                }
                outcomes
                    .lock()
                    .expect("outcome list lock poisoned")
                    .extend(mine);
            });
        }
    });
    let mut out = outcomes.into_inner().expect("outcome list lock poisoned");
    out.sort_by_key(|o| o.index);
    out
}

/// A schedule of `n` requests at `rate` per second cycling through
/// `bodies` in order, starting at `offset` seconds.
pub fn uniform(rate: f64, n: usize, bodies: &[usize], offset: f64) -> Vec<Scheduled> {
    (0..n)
        .map(|i| Scheduled {
            due: Some(offset + i as f64 / rate),
            body: bodies[i % bodies.len()],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_schedule_spacing_and_cycle() {
        let s = uniform(100.0, 5, &[3, 4], 1.0);
        assert_eq!(s.len(), 5);
        assert!((s[4].due.expect("open-loop schedule") - 1.04).abs() < 1e-12);
        assert_eq!(
            s.iter().map(|r| r.body).collect::<Vec<_>>(),
            [3, 4, 3, 4, 3]
        );
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let o = Outcome {
            index: 0,
            body: 0,
            due: 1.0,
            sent: 1.002,
            done: 1.005,
            ok: true,
            status: 200,
            response: None,
        };
        assert!((o.latency_ms() - 5.0).abs() < 1e-9);
        assert!((o.lag_ms() - 2.0).abs() < 1e-9);
    }
}
