//! The load generator's side of the line protocol: raw sockets, one
//! request line out, one response line back, every byte compared.

use crate::child::REQUEST_TIMEOUT;
use crate::stats::{Tally, FAILED_NS};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One stream connection to a daemon. Reads and writes time out after
/// [`REQUEST_TIMEOUT`].
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<Stream>,
    writer: Stream,
    line: Vec<u8>,
}

impl Conn {
    fn over(stream: Stream) -> io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            line: Vec::with_capacity(512),
        })
    }

    /// Connects over TCP (no Nagle delay: every request is one small
    /// write that must leave at once).
    pub fn tcp(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Conn::over(Stream::Tcp(s))
    }

    /// Connects over a Unix socket.
    #[cfg(unix)]
    pub fn unix(path: &Path) -> io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Conn::over(Stream::Unix(s))
    }

    /// Sends request bytes (one or more complete lines).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Receives one response line, without its newline.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
        }
        Ok(&self.line)
    }

    /// One round trip: a request line out, a response line back.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<&[u8]> {
        self.send(request)?;
        self.recv()
    }

    /// Switches the connection to protocol v2 (`MQUERY`, `PATH`,
    /// `METRICS`).
    pub fn upgrade(&mut self) -> Result<(), String> {
        match self.roundtrip(b"PROTO 2\n") {
            Ok(b"200 proto=2") => Ok(()),
            Ok(other) => Err(format!(
                "PROTO 2 answered `{}`",
                String::from_utf8_lossy(other)
            )),
            Err(e) => Err(format!("PROTO 2: {e}")),
        }
    }

    /// `METRICS`: the Prometheus text, one sample per line (v2 only).
    pub fn metrics(&mut self) -> Result<Vec<String>, String> {
        let header = self
            .roundtrip(b"METRICS\n")
            .map_err(|e| format!("METRICS: {e}"))?;
        let header = String::from_utf8_lossy(header).into_owned();
        let n: usize = header
            .strip_prefix("200 metrics lines=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("METRICS answered `{header}`"))?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            let line = self.recv().map_err(|e| format!("METRICS payload: {e}"))?;
            lines.push(String::from_utf8_lossy(line).into_owned());
        }
        Ok(lines)
    }

    /// The underlying TCP stream, for the open-loop phase (which needs
    /// nonblocking reads and writes on one socket).
    pub fn into_tcp(self) -> Option<TcpStream> {
        match self.writer {
            Stream::Tcp(s) => Some(s),
            #[cfg(unix)]
            Stream::Unix(_) => None,
        }
    }
}

/// The value of the sample `name{...labels...}` in Prometheus text.
pub fn prom_value(lines: &[String], name: &str, label: Option<&str>) -> Option<f64> {
    lines.iter().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        if !(rest.starts_with('{') || rest.starts_with(' ')) {
            return None;
        }
        if let Some(label) = label {
            if !rest.contains(label) {
                return None;
            }
        }
        rest.rsplit(' ').next()?.parse().ok()
    })
}

/// A connected UDP endpoint: one request line per datagram.
#[derive(Debug)]
pub struct Datagrams {
    socket: UdpSocket,
    buf: Vec<u8>,
}

impl Datagrams {
    /// Binds an ephemeral port and connects it to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Datagrams> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.connect(addr)?;
        socket.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Datagrams {
            socket,
            buf: vec![0; 16 * 1024],
        })
    }

    /// One datagram out, one back (trailing newline removed).
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<&[u8]> {
        self.socket.send(request)?;
        let n = self.socket.recv(&mut self.buf)?;
        let mut got = &self.buf[..n];
        if got.last() == Some(&b'\n') {
            got = &got[..n - 1];
        }
        Ok(got)
    }
}

/// A request line (with its newline) and the exact response line the
/// oracle expects (without).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    /// Bytes to send.
    pub request: Vec<u8>,
    /// Bytes that must come back.
    pub expect: Vec<u8>,
}

/// The result of a timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// One latency per operation, in nanoseconds; [`FAILED_NS`] for a
    /// failed one.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the phase, in seconds.
    pub wall_s: f64,
    /// Set when the transport failed (timeout, dead child): the phase
    /// stopped early and the run is not correct.
    pub broken: Option<String>,
}

impl Phase {
    /// Completed operations per second.
    pub fn rate(&self) -> f64 {
        (self.tally.attempted - self.tally.failed) as f64 / self.wall_s
    }

    fn fail(&mut self, why: String) {
        self.tally.record(false);
        self.latencies_ns.push(FAILED_NS);
        self.broken = Some(why);
    }
}

/// How a closed-loop phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many seconds.
    Elapsed(f64),
    /// After this many operations.
    Count(usize),
}

impl Until {
    fn done(self, start: Instant, ops: usize) -> bool {
        match self {
            Until::Elapsed(s) => start.elapsed().as_secs_f64() >= s,
            Until::Count(n) => ops >= n,
        }
    }
}

/// Closed loop, one request in flight: send `script[i]`, wait for its
/// answer, compare, repeat (cycling through the script from `*cursor`).
/// `exchange` performs one round trip on whatever transport.
pub fn closed_loop(
    script: &[Exchange],
    cursor: &mut usize,
    until: Until,
    mut exchange: impl FnMut(&Exchange) -> io::Result<bool>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while !until.done(start, phase.tally.attempted as usize) {
        let x = &script[*cursor % script.len()];
        *cursor += 1;
        let t0 = Instant::now();
        match exchange(x) {
            Ok(ok) => {
                let ns = t0.elapsed().as_nanos() as u64;
                phase.tally.record(ok);
                phase.latencies_ns.push(if ok { ns } else { FAILED_NS });
            }
            Err(e) => {
                phase.fail(format!("request failed: {e}"));
                break;
            }
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Closed loop of single round trips on a stream connection.
pub fn rtt_loop(conn: &mut Conn, script: &[Exchange], cursor: &mut usize, until: Until) -> Phase {
    closed_loop(script, cursor, until, |x| {
        conn.roundtrip(&x.request)
            .map(|got| got == x.expect.as_slice())
    })
}

/// Several requests sent as one write, then all their answers read and
/// compared. `lines` response lines answer each burst.
#[derive(Debug, Clone)]
pub struct Burst {
    /// The request bytes: one or more complete lines.
    pub request: Vec<u8>,
    /// The response lines expected back, in order.
    pub expect: Vec<Vec<u8>>,
}

/// `exchanges` in groups of `depth` request lines per write.
pub fn pipelined(exchanges: &[Exchange], depth: usize) -> Vec<Burst> {
    exchanges
        .chunks(depth)
        .map(|group| Burst {
            request: group
                .iter()
                .flat_map(|x| x.request.iter().copied())
                .collect(),
            expect: group.iter().map(|x| x.expect.clone()).collect(),
        })
        .collect()
}

/// Closed loop over bursts: one burst in flight. Each answered line is
/// one operation; the latency sample is per burst (one per operation
/// would only repeat it).
pub fn burst_loop(conn: &mut Conn, bursts: &[Burst], cursor: &mut usize, until: Until) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut sent = 0;
    'run: while !until.done(start, sent) {
        let b = &bursts[*cursor % bursts.len()];
        *cursor += 1;
        sent += 1;
        let t0 = Instant::now();
        if let Err(e) = conn.send(&b.request) {
            phase.fail(format!("burst send failed: {e}"));
            break;
        }
        let mut all_ok = true;
        for want in &b.expect {
            match conn.recv() {
                Ok(got) => {
                    let ok = got == want.as_slice();
                    all_ok &= ok;
                    phase.tally.record(ok);
                }
                Err(e) => {
                    phase.fail(format!("burst receive failed: {e}"));
                    break 'run;
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        phase.latencies_ns.push(if all_ok { ns } else { FAILED_NS });
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// Open loop: request `i` is due at `i / rate` seconds whatever became
/// of the ones before it, on one nonblocking connection, and each
/// latency runs from the due time — so a stall is charged to every
/// request it delays. Returns the phase and how late the generator
/// itself ran at worst (due time → request queued for the socket), in
/// nanoseconds. Busy-waits: a sleeping generator would add the
/// scheduler's wake-up latency to every sample.
pub fn open_loop(
    stream: TcpStream,
    script: &[Exchange],
    cursor: &mut usize,
    rate: f64,
    seconds: f64,
) -> (Phase, u64) {
    let mut phase = Phase::default();
    let mut late_max = 0u64;
    if let Err(e) = stream.set_nonblocking(true) {
        phase.fail(format!("open loop: {e}"));
        return (phase, 0);
    }
    let mut stream = stream;
    let interval_ns = 1e9 / rate;
    let total = (rate * seconds) as usize;
    let due_ns = |i: usize| (i as f64 * interval_ns) as u64;
    let first = *cursor;
    *cursor += total;
    let (mut queued, mut answered) = (0usize, 0usize);
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut out_pos = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let start = Instant::now();
    let give_up = due_ns(total) + REQUEST_TIMEOUT.as_nanos() as u64;
    while answered < total {
        let now = start.elapsed().as_nanos() as u64;
        if now > give_up {
            phase.fail(format!(
                "open loop: {} answers outstanding after the timeout",
                total - answered
            ));
            break;
        }
        let mut idle = true;
        while queued < total && due_ns(queued) <= now {
            out.extend_from_slice(&script[(first + queued) % script.len()].request);
            late_max = late_max.max(now - due_ns(queued));
            queued += 1;
        }
        if out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => {
                    out_pos += n;
                    idle = false;
                    if out_pos == out.len() {
                        out.clear();
                        out_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    phase.fail(format!("open loop write: {e}"));
                    break;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                phase.fail("open loop: daemon closed the connection".to_string());
                break;
            }
            Ok(n) => {
                idle = false;
                inbuf.extend_from_slice(&chunk[..n]);
                let done = start.elapsed().as_nanos() as u64;
                let mut from = 0;
                while let Some(nl) = inbuf[from..].iter().position(|&b| b == b'\n') {
                    let line = &inbuf[from..from + nl];
                    let want = &script[(first + answered) % script.len()].expect;
                    let ok = line == want.as_slice();
                    phase.tally.record(ok);
                    phase.latencies_ns.push(if ok {
                        done.saturating_sub(due_ns(answered))
                    } else {
                        FAILED_NS
                    });
                    answered += 1;
                    from += nl + 1;
                }
                inbuf.drain(..from);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => {
                phase.fail(format!("open loop read: {e}"));
                break;
            }
        }
        if idle {
            std::hint::spin_loop();
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    (phase, late_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_values_are_found_by_name_and_label() {
        let lines: Vec<String> = [
            "# HELP pathalias_cache_hits_total x",
            "pathalias_cache_hits_total{map=\"default\"} 12",
            "pathalias_cache_hits_totally{map=\"default\"} 99",
            "pathalias_reload_phase_seconds{map=\"default\",phase=\"map\"} 0.25",
            "pathalias_uptime_seconds 3.5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            prom_value(&lines, "pathalias_cache_hits_total", None),
            Some(12.0)
        );
        assert_eq!(
            prom_value(
                &lines,
                "pathalias_reload_phase_seconds",
                Some("phase=\"map\"")
            ),
            Some(0.25)
        );
        assert_eq!(
            prom_value(&lines, "pathalias_uptime_seconds", None),
            Some(3.5)
        );
        assert_eq!(prom_value(&lines, "pathalias_misses_total", None), None);
    }

    #[test]
    fn a_wrong_answer_is_a_failed_operation_not_a_dropped_one() {
        let script = vec![
            Exchange {
                request: b"QUERY a\n".to_vec(),
                expect: b"200 a!%s".to_vec(),
            },
            Exchange {
                request: b"QUERY b\n".to_vec(),
                expect: b"200 b!%s".to_vec(),
            },
        ];
        let mut cursor = 0;
        // A fake transport that corrupts every second response line.
        let mut n = 0;
        let phase = closed_loop(&script, &mut cursor, Until::Count(6), |x| {
            n += 1;
            let mut got = x.expect.clone();
            if n % 2 == 0 {
                got[4] ^= 0x20;
            }
            Ok(got == x.expect)
        });
        assert_eq!((phase.tally.attempted, phase.tally.failed), (6, 3));
        assert_eq!(phase.latencies_ns.len(), 6);
        assert_eq!(
            phase
                .latencies_ns
                .iter()
                .filter(|&&ns| ns == FAILED_NS)
                .count(),
            3
        );
        assert!(phase.broken.is_none());
        assert_eq!(cursor, 6);
    }

    #[test]
    fn a_dead_transport_fails_the_operation_and_stops_the_phase() {
        let script = vec![Exchange {
            request: b"QUERY a\n".to_vec(),
            expect: b"200 a!%s".to_vec(),
        }];
        let mut cursor = 0;
        let mut n = 0;
        let phase = closed_loop(&script, &mut cursor, Until::Count(100), |_| {
            n += 1;
            if n == 3 {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "gone"))
            } else {
                Ok(true)
            }
        });
        assert_eq!((phase.tally.attempted, phase.tally.failed), (3, 1));
        assert_eq!(phase.latencies_ns.last(), Some(&FAILED_NS));
        assert!(phase.broken.as_deref().unwrap().contains("gone"));
    }
}
