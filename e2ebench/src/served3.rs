//! `served3`: the paper's 3-server testbed served by
//! `quasaq_shell::Shell` (one acceptor thread) on loopback, driven by one
//! closed-loop client over one `WireClient` connection. The client
//! replays the fig6 arrival stream and tears each admitted session down
//! when its nominal duration ends, so the plane stays in steady state
//! instead of saturating into refusals. Each caller blocks for its reply,
//! so the loop is closed; on two cores a second pipelined client would
//! leave the shell no core.
//!
//! Here the wire, the channel and the thread hand-off dominate: the plane
//! decides in a fraction of the round trip and the fluid engine is not
//! used. The run pins itself, and so the shell's threads, to one CPU: with
//! one closed-loop client there is nothing to run in parallel, and on a
//! 2-vCPU virtual machine cross-CPU wake-ups made the rate swing between
//! 4k and 19k admits/s from run to run.
//!
//! A run is a sequence of segment runs. Each replays one segment's whole
//! stream, a fixed amount of work, through a fresh shell, so the memory a
//! run touches does not depend on how fast the shell is: a faster shell
//! gets through more segment runs within the budget. The output check
//! replays every request through an in-process `ControlPlane` and
//! compares every effect list byte for byte, and each rerun of a segment
//! must decide as its first run did.

use crate::gauge::Gauge;
use crate::timed;
use crate::{alloc, derive, stats, Report};
use quasaq_service::wire::{self, Request};
use quasaq_service::{Command, ControlPlane, Effect, SessionId};
use quasaq_shell::{Shell, ShellConfig, WireClient};
use quasaq_sim::SimTime;
use quasaq_vdbms::QueuedQuery;
use quasaq_workload::{
    arrival_stream, qop_class, CostKind, GeneratedQuery, SystemKind, Testbed, TestbedConfig,
    ThroughputConfig,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SYSTEM: SystemKind = SystemKind::Quasaq(CostKind::Lrb);

/// Set-ups timed per run; the median is reported. A set-up takes 15-25 ms
/// of CPU, much of it binding, connecting and starting threads, and with
/// five its median still spread 0.43 over ten seeds.
const SETUPS: usize = 15;

/// Segments per run, each a shell over its own seed's testbed. The
/// 15-video library's capacity swings with its seed (one segment's
/// admission ratio spread 0.13 over ten seeds), so a run covers several.
const SEGMENTS: usize = 8;

/// Arrivals per segment: under a second of work at the 36k admits/s the
/// pinned client reached on the 2-vCPU baseline host in a fast phase, two
/// seconds in a slow one.
const ARRIVALS: u64 = 30_000;

/// Exchanges logged between output checks. The client checks its log
/// against the in-process replay and clears it every `CHECK_EVERY`
/// exchanges, outside the timed span.
const CHECK_EVERY: usize = 4_096;

/// The fig6 configuration for `seed`, with a horizon long enough for
/// `arrivals` arrivals at its 1 s mean inter-arrival time.
pub fn config(seed: u64, arrivals: u64) -> ThroughputConfig {
    let testbed = TestbedConfig { seed: derive(seed, 1), ..TestbedConfig::default() };
    ThroughputConfig {
        testbed,
        horizon: SimTime::from_secs(arrivals),
        seed: derive(seed, 0),
        ..ThroughputConfig::fig6()
    }
}

/// Binds a shell for `cfg` on a loopback port and connects to it.
fn serve(cfg: &ThroughputConfig) -> std::io::Result<(Shell, WireClient)> {
    let shell_cfg = ShellConfig { system: SYSTEM, throughput: cfg.clone(), threads: 1 };
    let shell = Shell::serve("127.0.0.1:0", shell_cfg)?;
    match WireClient::connect(shell.addr()) {
        Ok(client) => Ok((shell, client)),
        Err(e) => {
            shell.shutdown();
            Err(e)
        }
    }
}

fn close((shell, client): (Shell, WireClient)) {
    drop(client);
    shell.shutdown();
}

/// Builds every segment's testbed, generates its arrival stream, binds a
/// shell and connects to it, `SETUPS` times, sampling the gauge after
/// each; returns the median set-up time.
fn setup(cfgs: &[ThroughputConfig], gauge: &mut Gauge) -> std::io::Result<f64> {
    // The shells plan on the process-wide shared testbeds: build those
    // once up front so every timed set-up does the same work.
    for cfg in cfgs {
        Testbed::shared(cfg.testbed.clone());
    }
    let mut times = Vec::new();
    for _ in 0..SETUPS {
        let t0 = timed::Stamp::now();
        let mut open = Vec::new();
        for cfg in cfgs {
            let tb = Testbed::build(cfg.testbed.clone());
            std::hint::black_box(arrival_stream(&tb, cfg));
            match serve(cfg) {
                Ok(served) => open.push(served),
                Err(e) => {
                    open.into_iter().for_each(close);
                    return Err(e);
                }
            }
        }
        times.push(t0.elapsed().cpu);
        open.into_iter().for_each(close);
        gauge.sample();
    }
    Ok(stats::median(&times))
}

/// One segment: its configuration, testbed and arrival stream.
struct Segment {
    cfg: ThroughputConfig,
    testbed: Arc<Testbed>,
    stream: Vec<GeneratedQuery>,
}

impl Segment {
    fn new(cfg: ThroughputConfig) -> Self {
        let testbed = Testbed::shared(cfg.testbed.clone());
        let stream = arrival_stream(&testbed, &cfg);
        Segment { cfg, testbed, stream }
    }

    fn checker(&self) -> Checker {
        Checker::new(Arc::clone(&self.testbed), &self.cfg)
    }

    /// Replays the whole stream through a fresh shell and checks every
    /// exchange. With `counted`, the allocator counts the client's part.
    fn run(&self, keep_latencies: bool, counted: bool) -> std::io::Result<Client> {
        let (shell, mut wire) = serve(&self.cfg)?;
        let mut checker = self.checker();
        let mut client = Client { keep_latencies, ..Client::default() };
        let mut drive = |c: &mut Client| c.drive(&mut wire, &self.stream, &mut checker);
        (client.secs, client.allocs) =
            if counted { alloc::count(|| drive(&mut client)) } else { (drive(&mut client), 0) };
        close((shell, wire));
        client.flush(&mut checker);
        // Keep the tallies only, so memory does not grow with the number
        // of segment runs, which grows with the throughput.
        (client.requests, client.replies, client.live) = Default::default();
        checker.r.rank_s = checker.tally.secs();
        checker.r.plans_ranked = checker.tally.plans();
        client.replay = checker.r;
        Ok(client)
    }
}

/// The client's side of one segment run: which sessions it holds, the
/// exchanges it has not yet checked, and what it measured.
#[derive(Default)]
struct Client {
    /// Admitted sessions by nominal end time.
    live: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Requests sent and effect lists received since the last check, as
    /// wire frames, and how many exchanges that is.
    requests: Vec<u8>,
    replies: Vec<u8>,
    logged: usize,
    exchanges: usize,
    admits: usize,
    /// Keep every round trip, in microseconds (traced runs only).
    keep_latencies: bool,
    admit_us: Vec<f64>,
    teardown_us: Vec<f64>,
    admitted: u64,
    utility_sum: f64,
    io_errors: u64,
    error_effects: u64,
    /// Time the exchanges took, checks left out.
    secs: timed::Secs,
    allocs: u64,
    replay: Replay,
}

impl Client {
    fn send(&mut self, wire: &mut WireClient, req: Request) -> bool {
        // Untraced runs keep no timer inside the measured loop.
        let t0 = self.keep_latencies.then(Instant::now);
        let result = wire.call(&req);
        let us = t0.map(|t0| t0.elapsed().as_secs_f64() * 1e6);
        let Ok(effects) = result else {
            self.io_errors += 1;
            return false;
        };
        wire::encode_request(&req, &mut self.requests);
        wire::encode_effects(&effects, &mut self.replies);
        self.logged += 1;
        self.exchanges += 1;
        match req {
            Request::Admit { now, .. } => {
                self.admits += 1;
                self.admit_us.extend(us);
                for e in &effects {
                    if let Effect::Admitted(a) = e {
                        self.admitted += 1;
                        self.utility_sum += a.utility.unwrap_or(0.0);
                        self.live.push(Reverse((now + a.nominal, a.session.0)));
                    }
                }
            }
            _ => self.teardown_us.extend(us),
        }
        self.error_effects +=
            effects.iter().filter(|e| matches!(e, Effect::Error(_))).count() as u64;
        true
    }

    /// Checks the logged exchanges and clears the log. The allocator does
    /// not count the check.
    fn flush(&mut self, checker: &mut Checker) {
        alloc::uncounted(|| checker.check(&self.requests, &self.replies));
        self.requests.clear();
        self.replies.clear();
        self.logged = 0;
    }

    /// Replays `stream`, tearing sessions down as their nominal durations
    /// end, and checks the log every `CHECK_EVERY` exchanges. Stops early
    /// only on an I/O error. Returns the time spent, checks left out.
    fn drive(
        &mut self,
        wire: &mut WireClient,
        stream: &[GeneratedQuery],
        checker: &mut Checker,
    ) -> timed::Secs {
        let mut start = timed::Stamp::now();
        for q in stream {
            if self.logged >= CHECK_EVERY {
                let t0 = timed::Stamp::now();
                self.flush(checker);
                start.skip(t0.elapsed());
            }
            while let Some(&Reverse((end, session))) = self.live.peek() {
                if end > q.at {
                    break;
                }
                self.live.pop();
                let teardown =
                    Request::Teardown { session: SessionId(session), abandoned: false, now: end };
                if !self.send(wire, teardown) {
                    return start.elapsed();
                }
            }
            let query = QueuedQuery { video: q.video, qos: q.qos.clone() };
            let admit = Request::Admit { query, class: qop_class(&q.qop), now: q.at };
            if !self.send(wire, admit) {
                break;
            }
        }
        start.elapsed()
    }

    /// What a rerun of the segment must reproduce.
    fn decisions(&self) -> (usize, usize, u64, f64) {
        (self.exchanges, self.admits, self.admitted, self.utility_sum)
    }
}

/// The command the shell makes of a request this client sends.
fn command(req: Request) -> Command {
    match req {
        Request::Admit { query, class, now } => {
            Command::Admit { query, class, brownout: false, now }
        }
        Request::Teardown { session, abandoned, now } => {
            Command::Teardown { session, abandoned, now }
        }
        other => unreachable!("the client sends only admits and teardowns, not {other:?}"),
    }
}

/// The payloads of the length-prefixed frames concatenated in `buf`.
fn frames(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = buf;
    std::iter::from_fn(move || {
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        let payload = rest.get(4..4 + len)?;
        rest = &rest[4 + len..];
        Some(payload)
    })
}

/// What the in-process replay measured.
#[derive(Default)]
struct Replay {
    mismatches: u64,
    plane_s: f64,
    codec_s: f64,
    bytes: u64,
    rank_s: f64,
    plans_ranked: u64,
}

/// The in-process side of the output check: a `ControlPlane` over the
/// segment's testbed, fed the requests the client sent, whose effect
/// lists must equal the socket's. It also times the plane, its cost model
/// and the codec on that exact stream.
struct Checker {
    testbed: Arc<Testbed>,
    plane: ControlPlane,
    tally: Arc<timed::RankTally>,
    effects: Vec<Effect>,
    req_buf: Vec<u8>,
    eff_buf: Vec<u8>,
    r: Replay,
}

impl Checker {
    fn new(testbed: Arc<Testbed>, cfg: &ThroughputConfig) -> Self {
        let (core, tally) = timed::lrb_core(&testbed, cfg);
        let plane = ControlPlane::new(core, timed::plane_config(cfg, true));
        let (effects, req_buf, eff_buf) = (Vec::new(), Vec::new(), Vec::new());
        Checker { testbed, plane, tally, effects, req_buf, eff_buf, r: Replay::default() }
    }

    /// Replays `requests` in order, counting effect lists that differ from
    /// the ones the socket returned in `replies`.
    fn check(&mut self, requests: &[u8], replies: &[u8]) {
        let r = &mut self.r;
        let (mut sent, mut received) = (frames(requests), frames(replies));
        loop {
            let (req, socket) = match (sent.next(), received.next()) {
                (Some(req), Some(socket)) => (req, socket),
                (None, None) => break,
                _ => {
                    r.mismatches += 1;
                    break;
                }
            };
            let Ok(req) = wire::decode_request(req) else {
                r.mismatches += 1;
                continue;
            };
            self.effects.clear();
            let t0 = Instant::now();
            self.plane.handle_into(&self.testbed.engine, command(req.clone()), &mut self.effects);
            r.plane_s += t0.elapsed().as_secs_f64();
            self.req_buf.clear();
            self.eff_buf.clear();
            let t0 = Instant::now();
            wire::encode_request(&req, &mut self.req_buf);
            let decoded_req = wire::decode_request(&self.req_buf[4..]);
            wire::encode_effects(&self.effects, &mut self.eff_buf);
            let decoded_eff = wire::decode_effects(&self.eff_buf[4..]);
            r.codec_s += t0.elapsed().as_secs_f64();
            if self.eff_buf[4..] != *socket || decoded_req != Ok(req) || decoded_eff.is_err() {
                r.mismatches += 1;
            }
            r.bytes += (self.req_buf.len() + self.eff_buf.len()) as u64;
        }
    }
}

/// Runs segments round robin: at least `min` of them, then more while
/// another is expected to end within `budget`. Returns each run with its
/// segment's index.
fn segment_runs(
    segments: &[Segment],
    budget: Duration,
    min: usize,
    keep_latencies: bool,
    counted: bool,
    gauge: Option<&mut Gauge>,
) -> Vec<(usize, std::io::Result<Client>)> {
    let mut k = 0;
    let runs = timed::repeat(budget, min, gauge, || {
        let i = k % segments.len();
        k += 1;
        (i, segments[i].run(keep_latencies, counted))
    });
    runs.into_iter().map(|(run, _)| run).collect()
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    if timed::pin_to_current_cpu().is_none() {
        eprintln!("served3: could not pin to one CPU; running unpinned");
    }
    let cfgs: Vec<_> =
        (0..SEGMENTS as u64).map(|k| config(derive(seed, 200 + k), ARRIVALS)).collect();
    let mut report = Report::default();
    let mut gauge = Gauge::default();
    let setup_s = match setup(&cfgs, &mut gauge) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("served3: set-up failed: {e}");
            report.check(1, false, "served3 could not bind or connect");
            return report;
        }
    };
    let segments: Vec<Segment> = cfgs.into_iter().map(Segment::new).collect();
    let plain_budget = if trace { budget / 2 } else { budget };
    let plain = segment_runs(
        &segments,
        plain_budget,
        SEGMENTS,
        trace,
        false,
        (!trace).then_some(&mut gauge),
    );
    let counted =
        if trace { segment_runs(&segments, budget / 2, 1, false, true, None) } else { vec![] };
    let (plain_n, total) = (plain.len(), plain.len() + counted.len());

    // Check every segment run: I/O, error effects, the replay, and equal
    // decisions on every rerun of a segment.
    let mut first: Vec<Option<(usize, usize, u64, f64)>> = vec![None; SEGMENTS];
    let mut runs = Vec::new();
    for (i, run) in plain.into_iter().chain(counted) {
        let client = match run {
            Ok(c) => c,
            Err(e) => {
                eprintln!("served3: segment set-up failed: {e}");
                report.check(1, false, "served3 could not bind or connect");
                continue;
            }
        };
        let same = *first[i].get_or_insert(client.decisions()) == client.decisions();
        let what =
            if same { "served3 wire I/O failed" } else { "served3 reruns of a segment differ" };
        report.check(client.exchanges as u64, client.io_errors == 0 && same, what);
        report.failed += client.error_effects;
        if client.replay.mismatches > 0 {
            report.failed += client.replay.mismatches;
            eprintln!("output check failed: served3 socket effects differ from the replay");
        }
        runs.push(client);
    }
    if runs.len() < total {
        return report;
    }
    let (plain, counted) = runs.split_at(plain_n);
    let sum = |rs: &[Client], f: fn(&Client) -> f64| rs.iter().map(f).sum::<f64>();
    if !trace {
        // Admit ratio and utility from the first pass over the segments,
        // the same work on every run of one seed.
        let pass = &plain[..SEGMENTS];
        let admitted = sum(pass, |c| c.admitted as f64);
        let rate = sum(plain, |c| c.admits as f64) / sum(plain, |c| c.secs.cpu);
        report.put("decisions_per_s", rate * gauge.slowdown());
        report.put("admit_ratio", admitted / sum(pass, |c| c.admits as f64));
        report.put("mean_utility", sum(pass, |c| c.utility_sum) / admitted.max(1.0));
        report.put("setup_s", setup_s / gauge.slowdown());
        return report;
    }

    let all = &runs[..];
    let n = sum(all, |c| c.exchanges as f64).max(1.0);
    let admits = sum(all, |c| c.admits as f64).max(1.0);
    let plain_exchanges = sum(plain, |c| c.exchanges as f64).max(1.0);
    let counted_exchanges = sum(counted, |c| c.exchanges as f64).max(1.0);
    let admit_us: Vec<f64> = plain.iter().flat_map(|c| c.admit_us.iter().copied()).collect();
    let teardown_us: Vec<f64> = plain.iter().flat_map(|c| c.teardown_us.iter().copied()).collect();
    let latencies = stats::sorted(&admit_us);
    let tail = stats::tail_percentile(latencies.len()).unwrap_or(50.0).min(99.0);
    let mean_round_trip_us =
        (admit_us.iter().sum::<f64>() + teardown_us.iter().sum::<f64>()) / plain_exchanges;
    let handle_us = sum(all, |c| c.replay.plane_s) * 1e6 / n;
    let codec_us = sum(all, |c| c.replay.codec_s) * 1e6 / n;
    report.put("admit_p50_us", stats::percentile(&latencies, 50.0));
    report.put("admit_p99_us", stats::percentile(&latencies, tail));
    report.put("admit_samples", latencies.len() as f64);
    report.put("shell.teardown_p50_us", stats::median(&teardown_us));
    report.put("service.plane.handle_us", handle_us);
    report.put("core.cost.rank_us", sum(all, |c| c.replay.rank_s) * 1e6 / admits);
    report.put("core.cost.plans_ranked", sum(all, |c| c.replay.plans_ranked as f64) / admits);
    report.put("service.wire.codec_us", codec_us);
    report.put("service.wire.bytes_per_request", sum(all, |c| c.replay.bytes as f64) / n);
    report.put("shell.transport_us", mean_round_trip_us - handle_us - codec_us);
    report.put("alloc.per_request", sum(counted, |c| c.allocs as f64) / counted_exchanges);
    report.put(
        "trace.overhead_ratio",
        (sum(counted, |c| c.secs.wall) / counted_exchanges)
            / (sum(plain, |c| c.secs.wall) / plain_exchanges),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The socket's effects equal an in-process replay of the same
    /// requests, also when the log is checked in chunks mid-run; a rerun
    /// decides as the first run did; and the replay check notices a reply
    /// that differs.
    #[test]
    fn replay_check_matches_socket_and_catches_a_difference() {
        let segment = Segment::new(config(5, 6_000));
        let first = segment.run(false, false).expect("loopback segment run");
        assert!(first.exchanges > CHECK_EVERY, "the log was checked mid-run");
        assert_eq!((first.io_errors, first.error_effects, first.replay.mismatches), (0, 0, 0));
        assert!(first.teardown_us.is_empty(), "untraced runs keep no latencies");
        let rerun = segment.run(true, true).expect("loopback segment run");
        assert_eq!(rerun.decisions(), first.decisions());
        assert_eq!(rerun.admit_us.len(), rerun.admits);
        assert!(rerun.allocs > 0);

        // A short run, left unchecked until here.
        let (shell, mut wire) = serve(&segment.cfg).expect("loopback set-up");
        let mut client = Client::default();
        client.drive(&mut wire, &segment.stream[..400], &mut segment.checker());
        close((shell, wire));
        assert_eq!(client.io_errors, 0);
        assert!(client.exchanges > client.admits && client.admitted > 10, "both commands ran");
        let mut ok = segment.checker();
        ok.check(&client.requests, &client.replies);
        assert_eq!(ok.r.mismatches, 0);
        // Turn the first admission the socket reported into a refusal.
        let mut admitted_once = false;
        let mut tampered = Vec::new();
        for payload in frames(&client.replies) {
            let mut effects = wire::decode_effects(payload).expect("logged frames decode");
            if !admitted_once && matches!(effects.first(), Some(Effect::Admitted(_))) {
                effects[0] = Effect::Queued;
                admitted_once = true;
            }
            wire::encode_effects(&effects, &mut tampered);
        }
        assert!(admitted_once);
        let mut bad = segment.checker();
        bad.check(&client.requests, &tampered);
        assert_eq!(bad.r.mismatches, 1);
    }
}
