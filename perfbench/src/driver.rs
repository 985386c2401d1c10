//! The load generator: an open-loop sender and a reader on one
//! keep-alive connection, plus a closed-loop helper.
//!
//! Request bytes are encoded before the clock starts. The sender writes
//! each request at its precomputed instant (every request already due
//! goes out in one write) and records when it actually went out. The
//! reader timestamps each response the moment its last byte is read.
//! Latency runs from the *scheduled* instant, so a stall anywhere —
//! daemon, network or generator — is charged to every request it
//! delayed.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// A request kind the daemon answers with `kind` in its envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Execute,
    Batch,
    Campaign,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Execute => "execute",
            Verb::Batch => "batch",
            Verb::Campaign => "campaign",
        }
    }
}

/// One distinct request of a workload's menu, encoded on the wire.
#[derive(Clone)]
pub struct Req {
    /// The full HTTP request.
    pub wire: Vec<u8>,
    /// The JSON body alone (what the in-process replay decodes).
    pub body: String,
    pub verb: Verb,
}

impl Req {
    pub fn post(body: String, verb: Verb) -> Req {
        let wire = format!(
            "POST /v1/lab HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Req { wire, body, verb }
    }
}

pub const STATS_REQUEST: &[u8] = b"GET /v1/stats HTTP/1.1\r\nHost: bench\r\n\r\n";

/// One parsed response.
pub struct Resp {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Incremental HTTP/1.1 response framing over a byte buffer.
#[derive(Default)]
struct Framer {
    buf: Vec<u8>,
    start: usize,
}

impl Framer {
    /// The next complete response at the front of the buffer, if any.
    fn next(&mut self) -> io::Result<Option<Resp>> {
        let data = &self.buf[self.start..];
        let Some(head_end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = &data[..head_end];
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed response head");
        let status: u16 = std::str::from_utf8(head.get(9..12).ok_or_else(bad)?)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let key = b"content-length:";
        let len = head
            .split(|&b| b == b'\n')
            .find(|line| line.len() > key.len() && line[..key.len()].eq_ignore_ascii_case(key))
            .and_then(|line| std::str::from_utf8(&line[key.len()..]).ok())
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(bad)?;
        let total = head_end + 4 + len;
        if data.len() < total {
            return Ok(None);
        }
        let body = data[head_end + 4..total].to_vec();
        self.start += total;
        Ok(Some(Resp { status, body }))
    }

    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<usize> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 1 << 20 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + 64 * 1024, 0);
        let r = stream.read(&mut self.buf[old..]);
        let n = *r.as_ref().unwrap_or(&0);
        self.buf.truncate(old + n);
        r
    }
}

/// A closed-loop connection: one request, then its response.
pub struct Conn {
    stream: TcpStream,
    framer: Framer,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            framer: Framer::default(),
        })
    }

    /// Send `wire` and wait for its response.
    pub fn query(&mut self, wire: &[u8]) -> io::Result<Resp> {
        self.stream.write_all(wire)?;
        loop {
            if let Some(resp) = self.framer.next()? {
                return Ok(resp);
            }
            if self.framer.fill(&mut self.stream)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed",
                ));
            }
        }
    }
}

/// What an open-loop phase observed, per scheduled request (times in
/// ns from the phase's start instant).
pub struct OpenRun {
    pub sched_ns: Vec<u64>,
    pub pick: Vec<u32>,
    pub sent_ns: Vec<Option<u64>>,
    pub done_ns: Vec<Option<u64>>,
    /// Responses that differed from their expected bytes.
    pub bad: Vec<usize>,
    /// The phase's start instant.
    pub t0: Instant,
}

/// A Poisson schedule of `rate`/s for `seconds`, picking menu entries
/// with `pick`.
pub fn poisson_schedule(
    rng: &mut crate::stats::Rng,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut crate::stats::Rng) -> u32,
) -> (Vec<u64>, Vec<u32>) {
    let mut t = 0.0;
    let (mut sched, mut picks) = (Vec::new(), Vec::new());
    loop {
        t += rng.exp_gap_s(rate);
        if t >= seconds {
            break;
        }
        sched.push((t * 1e9) as u64);
        picks.push(pick(rng));
    }
    (sched, picks)
}

fn ns_since(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

/// Drive one open-loop phase over a fresh connection. The reader waits
/// for answers until `drain` after the last scheduled instant.
pub fn run_open(
    addr: SocketAddr,
    menu: &Arc<Vec<Req>>,
    expect: &Arc<Vec<Vec<u8>>>,
    sched_ns: Vec<u64>,
    pick: Vec<u32>,
    drain: Duration,
) -> io::Result<OpenRun> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let n = sched_ns.len();
    let sched = Arc::new(sched_ns);
    let picks = Arc::new(pick);
    let cutoff_ns = sched.last().copied().unwrap_or(0) + drain.as_nanos() as u64;
    // Both threads start from one instant a little ahead, so neither
    // begins late.
    let t0 = Instant::now() + Duration::from_millis(20);

    let sender = {
        let (mut stream, sched, picks, menu) = (
            stream.try_clone()?,
            Arc::clone(&sched),
            Arc::clone(&picks),
            Arc::clone(menu),
        );
        thread::spawn(move || {
            // Wake at the scheduled instant, not up to the default 50 µs
            // of timer slack after it.
            // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
            // changes this thread's timer slack.
            unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
            let mut sent: Vec<Option<u64>> = vec![None; n];
            let mut buf = Vec::with_capacity(64 * 1024);
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                let due = t0 + Duration::from_nanos(sched[i]);
                if due > now {
                    thread::sleep(due - now);
                    continue;
                }
                let now_ns = ns_since(t0);
                buf.clear();
                let mut j = i;
                while j < n && sched[j] <= now_ns && buf.len() < 64 * 1024 {
                    buf.extend_from_slice(&menu[picks[j] as usize].wire);
                    j += 1;
                }
                sent[i..j].fill(Some(now_ns));
                if stream.write_all(&buf).is_err() {
                    sent[i..j].fill(None);
                    break;
                }
                i = j;
            }
            sent
        })
    };

    let reader = {
        let (mut stream, picks, expect) =
            (stream.try_clone()?, Arc::clone(&picks), Arc::clone(expect));
        thread::spawn(move || {
            let mut done: Vec<Option<u64>> = vec![None; n];

            let mut bad = Vec::new();
            let mut framer = Framer::default();
            let mut k = 0;
            while k < n {
                match framer.fill(&mut stream) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if ns_since(t0) > cutoff_ns {
                            break;
                        }
                        continue;
                    }
                    Err(_) => break,
                }
                let at = ns_since(t0);
                while k < n {
                    let Ok(Some(resp)) = framer.next() else { break };
                    done[k] = Some(at);
                    if resp.status != 200 || resp.body != expect[picks[k] as usize] {
                        bad.push(k);
                    }
                    k += 1;
                }
                if at > cutoff_ns {
                    break;
                }
            }
            (done, bad)
        })
    };

    let sent = sender.join().expect("sender thread");
    let (done, bad) = reader.join().expect("reader thread");
    let _ = stream.shutdown(Shutdown::Both);
    Ok(OpenRun {
        sched_ns: Arc::try_unwrap(sched).expect("threads joined"),
        pick: Arc::try_unwrap(picks).expect("threads joined"),
        sent_ns: sent,
        done_ns: done,
        bad,
        t0,
    })
}

/// Whether a response body is a `verb` answer rather than an error.
#[cfg(test)]
pub fn envelope_is(body: &[u8], verb: Verb) -> bool {
    let want = format!("\"kind\":\"{}\"", verb.name());
    body.windows(want.len())
        .take(64)
        .any(|w| w == want.as_bytes())
}

impl OpenRun {
    /// Latency in ms, from its scheduled instant, of each answered
    /// request `keep` selects (by index), sorted. Unanswered requests
    /// are failures, counted by the caller, not latencies.
    pub fn latencies_ms(&self, mut keep: impl FnMut(usize) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = (0..self.sched_ns.len())
            .filter(|&k| keep(k))
            .filter_map(|k| {
                self.done_ns[k].map(|d| d.saturating_sub(self.sched_ns[k]) as f64 / 1e6)
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn sent(&self) -> usize {
        self.sent_ns.iter().filter(|s| s.is_some()).count()
    }

    pub fn answered(&self) -> usize {
        self.done_ns.iter().filter(|d| d.is_some()).count()
    }

    /// Answered by `within_ns` after the last scheduled instant.
    pub fn answered_by(&self, within_ns: u64) -> usize {
        let end = self.sched_ns.last().copied().unwrap_or(0) + within_ns;
        self.done_ns
            .iter()
            .filter(|d| d.is_some_and(|t| t <= end))
            .count()
    }

    /// How late the sender ran, in ms, per sent request (sorted).
    pub fn lateness_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .sent_ns
            .iter()
            .zip(&self.sched_ns)
            .filter_map(|(s, d)| s.map(|s| s.saturating_sub(*d) as f64 / 1e6))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Wall span of the phase's schedule, seconds.
    pub fn span_s(&self) -> f64 {
        self.sched_ns.last().copied().unwrap_or(0) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const BODY: &[u8] = b"{\"v\":1,\"kind\":\"execute\"}";

    /// A stub daemon on an ephemeral port: waits `stall` before reading
    /// anything, then answers each request `delay` after reading it,
    /// except that it never answers request number `drop_at`.
    fn stub(delay: Duration, stall: Duration, drop_at: Option<usize>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("local address");
        thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("one connection");
            thread::sleep(stall);
            let mut buf = Vec::new();
            let mut chunk = [0u8; 64 * 1024];
            let mut seen = 0;
            loop {
                // answer every complete request in the buffer
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&buf[..end]).to_string();
                    let len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0);
                    if buf.len() < end + 4 + len {
                        break;
                    }
                    buf.drain(..end + 4 + len);
                    thread::sleep(delay);
                    if Some(seen) != drop_at {
                        let mut out = Vec::new();
                        harborsim_core::lab::daemon::http::render_response(
                            &mut out,
                            200,
                            std::str::from_utf8(BODY).expect("ascii"),
                        );
                        if s.write_all(&out).is_err() {
                            return;
                        }
                    }
                    seen += 1;
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        addr
    }

    fn menu(body_len: usize) -> (Arc<Vec<Req>>, Arc<Vec<Vec<u8>>>) {
        let body = "x".repeat(body_len);
        (
            Arc::new(vec![Req::post(body, Verb::Execute)]),
            Arc::new(vec![BODY.to_vec()]),
        )
    }

    fn schedule(n: usize, gap: Duration) -> (Vec<u64>, Vec<u32>) {
        (
            (0..n).map(|i| i as u64 * gap.as_nanos() as u64).collect(),
            vec![0; n],
        )
    }

    #[test]
    fn reports_the_injected_delay() {
        let delay = Duration::from_millis(5);
        let addr = stub(delay, Duration::ZERO, None);
        let (menu, expect) = menu(16);
        let (sched, pick) = schedule(40, Duration::from_millis(20));
        let run = run_open(addr, &menu, &expect, sched, pick, Duration::from_secs(2))
            .expect("drive the stub");
        assert_eq!(run.answered(), 40);
        assert!(run.bad.is_empty());
        let lat = run.latencies_ms(|_| true);
        let p50 = crate::stats::percentile(&lat, 0.5);
        assert!((5.0..9.0).contains(&p50), "p50 {p50} ms for a 5 ms delay");
    }

    #[test]
    fn counts_late_sends() {
        // The stub reads nothing for 400 ms; 8 MB of requests cannot all
        // fit in the socket buffers, so the sender blocks and later
        // requests go out late.
        let addr = stub(Duration::ZERO, Duration::from_millis(400), None);
        let (menu, expect) = menu(256 * 1024);
        let (sched, pick) = schedule(32, Duration::from_millis(1));
        let run = run_open(addr, &menu, &expect, sched, pick, Duration::from_secs(3))
            .expect("drive the stub");
        let late = run.lateness_ms();
        assert_eq!(late.len(), 32);
        assert!(
            late.last().copied().unwrap_or(0.0) > 100.0,
            "sends behind a stalled reader must show as late: {late:?}"
        );
    }

    #[test]
    fn counts_an_unanswered_request() {
        let addr = stub(Duration::ZERO, Duration::ZERO, Some(9));
        let (menu, expect) = menu(16);
        let (sched, pick) = schedule(10, Duration::from_millis(5));
        let run = run_open(
            addr,
            &menu,
            &expect,
            sched,
            pick,
            Duration::from_millis(300),
        )
        .expect("drive the stub");
        assert_eq!(run.sent(), 10);
        assert_eq!(run.answered(), 9, "the dropped request is not answered");
        let mut tally = crate::Tally::default();
        let (n, answered) = (run.sched_ns.len() as u64, run.answered() as u64);
        tally.attempted += n;
        tally.failed += n - answered;
        assert_eq!((tally.attempted, tally.failed), (10, 1));
    }

    #[test]
    fn frames_pipelined_and_split_responses() {
        let mut f = Framer::default();
        let mut one = Vec::new();
        harborsim_core::lab::daemon::http::render_response(&mut one, 200, "{\"a\":1}");
        f.buf.extend_from_slice(&one);
        f.buf.extend_from_slice(&one[..10]);
        let r = f.next().expect("frames").expect("one whole response");
        assert_eq!((r.status, r.body.as_slice()), (200, &b"{\"a\":1}"[..]));
        assert!(f.next().expect("frames").is_none(), "the second is partial");
        f.buf.extend_from_slice(&one[10..]);
        assert!(f.next().expect("frames").is_some());
    }
}
