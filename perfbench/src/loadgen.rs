//! The load generator: a seeded request mix, a seeded Poisson arrival
//! schedule, and closed- and open-loop clients over the serving tier's
//! line protocol. Each client uses one traffic connection; an optional
//! admin connection sends `reload` commands on a timer from the same
//! thread, reading its acknowledgements without blocking the traffic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bpmf::serve::wire;

use crate::wrap::Clock;

/// SplitMix64: a tiny seeded generator for schedules and request mixes.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Arrival offsets (ns from the phase start) of a Poisson process at
/// `rate` per second over `seconds`: exponential gaps drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0x5eed_5eed_5eed_5eed);
    let horizon = seconds * 1e9;
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -rng.unit().ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// What one request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    Mean,
    Ucb,
    /// A cold-start user: rated items and their ratings.
    FoldIn(Vec<u32>, Vec<f64>),
}

/// Request `i` of a workload's mix. Recommend users walk the user space
/// with an odd stride from a seeded offset, so requests in flight name
/// distinct users (model calls are tied back to requests by user id);
/// fold-in item sets are distinct per request for the same reason.
#[derive(Clone, Debug)]
pub struct Mix {
    pub seed: u64,
    pub n_users: u32,
    pub n_items: u32,
    pub ucb_frac: f64,
    pub fold_in_frac: f64,
    pub top_n: usize,
}

impl Mix {
    fn stride(&self) -> u64 {
        // An odd stride near the golden ratio of the user space, coprime
        // with the user count.
        let n = u64::from(self.n_users);
        let mut s = (n as f64 * 0.618_033_988_7) as u64 | 1;
        while gcd(s, n) != 1 {
            s += 2;
        }
        s
    }

    pub fn request(&self, i: u64) -> (u32, Kind) {
        let mut rng = SplitMix::new(self.seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
        let offset = SplitMix::new(self.seed).next_u64() % u64::from(self.n_users);
        let user = ((offset + i * self.stride()) % u64::from(self.n_users)) as u32;
        let u = rng.unit();
        let kind = if u <= self.fold_in_frac {
            let len = 5 + (rng.next_u64() % 8) as usize;
            let first = (i % u64::from(self.n_items)) as u32;
            let mut items = vec![first];
            while items.len() < len {
                let it = (rng.next_u64() % u64::from(self.n_items)) as u32;
                if !items.contains(&it) {
                    items.push(it);
                }
            }
            let ratings = (0..len)
                .map(|_| 1.0 + (rng.next_u64() % 9) as f64 * 0.5)
                .collect();
            Kind::FoldIn(items, ratings)
        } else if u <= self.fold_in_frac + self.ucb_frac {
            Kind::Ucb
        } else {
            Kind::Mean
        };
        (user, kind)
    }

    pub fn wire_request(&self, id: u64, user: u32, kind: &Kind) -> wire::Request {
        let mut req = wire::Request::recommend(id, user);
        req.top_n = self.top_n;
        req.exclude_seen = Some(true);
        match kind {
            Kind::Mean => req.policy = "mean".to_string(),
            Kind::Ucb => req.policy = "ucb:1.0".to_string(),
            Kind::FoldIn(items, ratings) => {
                req.cmd = wire::CMD_FOLD_IN.to_string();
                req.ratings = items
                    .iter()
                    .zip(ratings)
                    .map(|(&item, &rating)| wire::RatedItem { item, rating })
                    .collect();
            }
        }
        req
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One request as the load generator saw it. Times are clock ns.
#[derive(Clone, Debug)]
pub struct Rec {
    pub id: u64,
    pub user: u32,
    pub kind: Kind,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: u64,
    pub sent: u64,
    /// 0 when no reply arrived.
    pub recv: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub req_bytes: usize,
    pub reply_bytes: usize,
    pub reply: Option<wire::Response>,
}

impl Rec {
    pub fn latency_ms(&self) -> f64 {
        (self.recv.saturating_sub(self.due)) as f64 / 1e6
    }

    pub fn answered(&self) -> bool {
        self.reply.as_ref().is_some_and(|r| r.error.is_none())
    }
}

/// One `reload` round trip on the admin connection.
#[derive(Clone, Debug)]
pub struct Reload {
    pub sent: u64,
    pub ack: u64,
    /// Index of the generation asked for.
    pub generation: usize,
    pub ok: bool,
}

/// The admin connection: alternates `reload` of the given checkpoint paths
/// on a fixed cadence, one outstanding at a time. The cadence restarts at
/// each phase ([`Admin::start`]), so every phase of every run sees its
/// reloads at the same offsets.
pub struct Admin {
    stream: TcpStream,
    buf: Vec<u8>,
    paths: Vec<String>,
    next_gen: usize,
    period_ns: u64,
    next_at: u64,
    pending: Option<(u64, usize)>,
    next_id: u64,
    pub reloads: Vec<Reload>,
}

impl Admin {
    /// Connect; `paths[first_gen]` is sent first once [`Admin::start`]
    /// schedules it, then one reload every `period`.
    pub fn connect(
        addr: SocketAddr,
        paths: Vec<String>,
        first_gen: usize,
        period: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Admin {
            stream,
            buf: Vec::new(),
            paths,
            next_gen: first_gen,
            period_ns: period.as_nanos() as u64,
            next_at: u64::MAX,
            pending: None,
            next_id: 1 << 40,
            reloads: Vec::new(),
        })
    }

    /// Schedule reloads at `first_at`, `first_at + period`, … (clock ns).
    pub fn start(&mut self, first_at: u64) {
        self.next_at = first_at;
    }

    /// Send the next reload when due (and none is outstanding); collect an
    /// acknowledgement if one has arrived. Never blocks.
    pub fn poll(&mut self, clock: &Clock) {
        let mut chunk = [0u8; 4096];
        while let Ok(n) = self.stream.read(&mut chunk) {
            if n == 0 {
                break;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            if let Some((sent, generation)) = self.pending.take() {
                let ok = wire::decode_response(&String::from_utf8_lossy(&line))
                    .is_ok_and(|r| r.error.is_none());
                self.reloads.push(Reload {
                    sent,
                    ack: clock.now(),
                    generation,
                    ok,
                });
            }
        }
        let now = clock.now();
        if self.pending.is_none() && now >= self.next_at && !self.paths.is_empty() {
            let generation = self.next_gen;
            let mut req = wire::Request::recommend(self.next_id, 0);
            req.cmd = wire::CMD_RELOAD.to_string();
            req.user = None;
            req.path = self.paths[generation].clone();
            self.next_id += 1;
            let line = format!("{}\n", wire::encode(&req));
            // The line is small; write it whole on a blocking socket.
            self.stream.set_nonblocking(false).ok();
            let sent = self.stream.write_all(line.as_bytes()).is_ok();
            self.stream.set_nonblocking(true).ok();
            if sent {
                self.pending = Some((clock.now(), generation));
                self.next_gen = (generation + 1) % self.paths.len();
                self.next_at = self.next_at.saturating_add(self.period_ns);
            }
        }
    }

    /// Stop scheduling reloads and wait (up to `timeout`) for an
    /// outstanding one to be acknowledged.
    pub fn finish(&mut self, clock: &Clock, timeout: Duration) {
        self.next_at = u64::MAX;
        let deadline = Instant::now() + timeout;
        while self.pending.is_some() && Instant::now() < deadline {
            self.poll(clock);
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn connect(
    addr: SocketAddr,
) -> std::io::Result<(BufReader<TcpStream>, std::io::BufWriter<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let writer = std::io::BufWriter::new(stream.try_clone()?);
    Ok((BufReader::new(stream), writer))
}

/// Encode request `id` of `mix`, timing the encode.
fn encode(mix: &Mix, id: u64) -> (Rec, String) {
    let (user, kind) = mix.request(id);
    let t = Instant::now();
    let line = wire::encode(&mix.wire_request(id, user, &kind));
    let encode_ns = t.elapsed().as_nanos() as u64;
    let rec = Rec {
        id,
        user,
        kind,
        due: 0,
        sent: 0,
        recv: 0,
        encode_ns,
        decode_ns: 0,
        req_bytes: line.len() + 1,
        reply_bytes: 0,
        reply: None,
    };
    (rec, line)
}

/// Read one reply line; returns `(recv time, decode ns, bytes, response)`.
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    clock: &Clock,
) -> Option<(u64, u64, usize, wire::Response)> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    let recv = clock.now();
    let t = Instant::now();
    let resp = wire::decode_response(line).ok()?;
    Some((recv, t.elapsed().as_nanos() as u64, line.len(), resp))
}

/// Closed loop on one connection: keep `outstanding` requests in flight
/// until `until` (clock ns), then drain. Request ids start at `first_id`.
pub fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    first_id: u64,
    outstanding: usize,
    until: u64,
    clock: &Clock,
    mut admin: Option<&mut Admin>,
) -> std::io::Result<Vec<Rec>> {
    let (mut reader, mut writer) = connect(addr)?;
    let mut recs: Vec<Rec> = Vec::new();
    let mut line = String::new();
    let mut inflight = 0usize;
    let mut next = first_id;
    loop {
        while inflight < outstanding && clock.now() < until {
            let (mut rec, text) = encode(mix, next);
            rec.sent = clock.now();
            rec.due = rec.sent;
            writeln!(writer, "{text}")?;
            recs.push(rec);
            next += 1;
            inflight += 1;
        }
        writer.flush()?;
        if inflight == 0 {
            break;
        }
        let Some((recv, decode_ns, bytes, resp)) = read_reply(&mut reader, &mut line, clock) else {
            break;
        };
        inflight -= 1;
        if let Some(rec) = resp
            .id
            .checked_sub(first_id)
            .and_then(|k| recs.get_mut(k as usize))
        {
            rec.recv = recv;
            rec.decode_ns = decode_ns;
            rec.reply_bytes = bytes;
            rec.reply = Some(resp);
        }
        if let Some(a) = admin.as_deref_mut() {
            a.poll(clock);
        }
    }
    Ok(recs)
}

/// Open loop on one connection: request `k` is due at `start +
/// schedule[k]` and is timed from then, however late the sender got to
/// it. A second thread reads the replies.
pub fn open_loop(
    addr: SocketAddr,
    mix: &Mix,
    first_id: u64,
    schedule: &[u64],
    start: u64,
    clock: &Clock,
    mut admin: Option<&mut Admin>,
) -> std::io::Result<Vec<Rec>> {
    let (mut reader, mut writer) = connect(addr)?;
    let n = schedule.len();
    type Reply = Option<(u64, u64, usize, wire::Response)>;
    let (sent, replies) = std::thread::scope(|s| -> std::io::Result<(Vec<Rec>, Vec<Reply>)> {
        let rx = s.spawn(move || {
            let mut got: Vec<Reply> = vec![None; n];
            let mut line = String::new();
            let mut left = n;
            while left > 0 {
                let Some(r) = read_reply(&mut reader, &mut line, clock) else {
                    break;
                };
                if let Some(slot) =
                    r.3.id
                        .checked_sub(first_id)
                        .and_then(|k| got.get_mut(k as usize))
                {
                    if slot.is_none() {
                        left -= 1;
                    }
                    *slot = Some(r);
                }
            }
            got
        });
        let mut sent = Vec::with_capacity(n);
        let mut io_err = None;
        for (k, &offset) in schedule.iter().enumerate() {
            let due = start + offset;
            loop {
                let now = clock.now();
                if now >= due {
                    break;
                }
                if let Some(a) = admin.as_deref_mut() {
                    a.poll(clock);
                }
                let wait = (due - clock.now().min(due)).min(2_000_000);
                std::thread::sleep(Duration::from_nanos(wait));
            }
            let (mut rec, text) = encode(mix, first_id + k as u64);
            rec.due = due;
            rec.sent = clock.now();
            if let Err(e) = writeln!(writer, "{text}").and_then(|_| writer.flush()) {
                io_err = Some(e);
                break;
            }
            sent.push(rec);
        }
        if let Some(a) = admin {
            a.poll(clock);
        }
        let got = rx.join().expect("reply reader thread");
        if let Some(e) = io_err {
            return Err(e);
        }
        Ok((sent, got))
    })?;
    Ok(sent
        .into_iter()
        .zip(replies)
        .map(|(mut rec, r)| {
            if let Some((recv, decode_ns, bytes, resp)) = r {
                rec.recv = recv;
                rec.decode_ns = decode_ns;
                rec.reply_bytes = bytes;
                rec.reply = Some(resp);
            }
            rec
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_schedule(7, 1000.0, 20.0);
        assert_eq!(
            a,
            poisson_schedule(7, 1000.0, 20.0),
            "same seed, same schedule"
        );
        assert_ne!(
            a,
            poisson_schedule(8, 1000.0, 20.0),
            "another seed, another schedule"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        assert!(*a.last().unwrap() < 20_000_000_000);
        // 20 000 expected arrivals; the count's sd is ~141.
        assert!(
            (a.len() as f64 - 20_000.0).abs() < 700.0,
            "{} arrivals",
            a.len()
        );
        // Exponential gaps: mean 1 ms, and about 1/e of them exceed it.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean gap {mean} ms");
        let over = gaps.iter().filter(|&&g| g > 1.0).count() as f64 / gaps.len() as f64;
        assert!(
            (over - (-1.0f64).exp()).abs() < 0.02,
            "share over the mean {over}"
        );
    }

    #[test]
    fn mix_is_seeded_and_keeps_users_in_flight_distinct() {
        let mix = Mix {
            seed: 3,
            n_users: 1000,
            n_items: 50,
            ucb_frac: 0.2,
            fold_in_frac: 0.05,
            top_n: 10,
        };
        let a: Vec<(u32, Kind)> = (0..2000).map(|i| mix.request(i)).collect();
        let b: Vec<(u32, Kind)> = (0..2000).map(|i| mix.request(i)).collect();
        assert_eq!(a, b);
        // Any 1000 consecutive requests name 1000 distinct users.
        let mut users: Vec<u32> = a[500..1500].iter().map(|(u, _)| *u).collect();
        users.sort_unstable();
        users.dedup();
        assert_eq!(users.len(), 1000);
        let ucb = a.iter().filter(|(_, k)| *k == Kind::Ucb).count() as f64 / 2000.0;
        let fold = a
            .iter()
            .filter(|(_, k)| matches!(k, Kind::FoldIn(..)))
            .count() as f64
            / 2000.0;
        assert!((ucb - 0.2).abs() < 0.04, "ucb share {ucb}");
        assert!((fold - 0.05).abs() < 0.02, "fold-in share {fold}");
        for (_, k) in &a {
            if let Kind::FoldIn(items, ratings) = k {
                assert_eq!(items.len(), ratings.len());
                assert!(items.iter().all(|&i| i < 50));
            }
        }
    }
}
