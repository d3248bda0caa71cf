//! Cross-transport equivalence: the distributed coordinator/worker
//! protocol must reach the *same fixed point, bit for bit,* as the
//! in-process engine — over deterministic in-process channels, over real
//! TCP sockets, and over sockets with seeded fault injection.
//!
//! This is the paper's anytime-anywhere guarantee made operational:
//! min-merge on DV rows is idempotent, commutative, and monotone, so the
//! closeness at quiescence is independent of message order, retries,
//! replays, and recovery re-announcements. Any bit that differs means the
//! transport changed the *answer*, not just the schedule.

use aaa_core::{
    run_worker, AnytimeEngine, EngineConfig, NetConfig, NetOutcome, NetRunner, NoSupervisor,
    RebalancePolicy, Revive, WorkerSupervisor,
};
use aaa_graph::generators::{barabasi_albert, WeightModel};
use aaa_graph::AdjGraph;
use aaa_runtime::{
    read_hello, Backoff, Hello, LocalTransport, NetChaos, SocketTransport, Transport,
};
use std::net::TcpListener;
use std::time::Duration;

const PROCS: usize = 4;

/// The fig4-style pinned scenario, small enough for CI.
fn scenario() -> (AdjGraph, Vec<u32>, Vec<f64>) {
    let graph = barabasi_albert(180, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 42).unwrap();
    let mut engine = AnytimeEngine::new(graph.clone(), EngineConfig::deterministic(PROCS)).unwrap();
    let owner = engine.partition().assignment().to_vec();
    engine.run_to_convergence();
    (graph, owner, engine.closeness())
}

fn assert_bit_identical(got: &[f64], want: &[f64], transport: &str) {
    assert_eq!(got.len(), want.len(), "{transport}: length mismatch");
    for (v, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{transport}: closeness of vertex {v} diverged: {g} vs {w}"
        );
    }
}

#[test]
fn local_transport_matches_the_in_process_engine_bitwise() {
    let (graph, owner, oracle) = scenario();
    let mut links = Vec::new();
    let mut workers = Vec::new();
    for rank in 0..PROCS {
        let (coord, mut worker) = LocalTransport::pair("coordinator", &format!("rank{rank}"));
        links.push(coord);
        workers.push(std::thread::spawn(move || run_worker(&mut worker, Duration::from_secs(30))));
    }
    let mut runner = NetRunner::new(&graph, owner, links, NetConfig::default());
    runner.init(&mut NoSupervisor).expect("init succeeds over local transport");
    let outcome = runner.run(&mut NoSupervisor);
    runner.shutdown();
    for w in workers {
        w.join().expect("worker thread panicked").expect("worker exited cleanly");
    }
    match outcome {
        NetOutcome::Converged(summary) => {
            assert_bit_identical(&summary.closeness, &oracle, "local");
            assert_eq!(summary.recoveries, 0);
        }
        NetOutcome::Degraded(report) => panic!("degraded without faults: {:?}", report.reason),
    }
}

/// Test-only tracing shim: logs every transport call when NET_DEBUG is
/// set, so a wedged worker can be located without a debugger.
struct Traced {
    inner: SocketTransport,
    rank: u32,
    debug: bool,
}

impl Transport for Traced {
    fn send(
        &mut self,
        kind: aaa_runtime::FrameKind,
        payload: &[u8],
    ) -> Result<u64, aaa_runtime::NetError> {
        let r = self.inner.send(kind, payload);
        if self.debug {
            if let Err(e) = &r {
                eprintln!("[worker {}] send {kind:?} -> {e}", self.rank);
            }
        }
        r
    }

    fn recv(
        &mut self,
        deadline: Option<Duration>,
    ) -> Result<aaa_runtime::Frame, aaa_runtime::NetError> {
        if self.debug {
            eprintln!("[worker {}] recv...", self.rank);
        }
        let r = self.inner.recv(deadline);
        if self.debug {
            match &r {
                Ok(f) => eprintln!("[worker {}] recv {:?} seq {}", self.rank, f.kind, f.seq),
                Err(e) => eprintln!("[worker {}] recv -> {e}", self.rank),
            }
        }
        r
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

fn spawn_socket_worker(
    addr: String,
    rank: u32,
    chaos: NetChaos,
) -> std::thread::JoinHandle<Result<(), aaa_runtime::NetError>> {
    std::thread::spawn(move || {
        let hello = Hello { rank, session: rank as u64 + 1, last_recv: 0 };
        let link = SocketTransport::dial(
            &addr,
            hello,
            chaos,
            Backoff { seed: 7, ..Backoff::default() },
            40,
            Duration::from_secs(10),
        )?;
        let debug = std::env::var_os("NET_DEBUG").is_some();
        let mut link = Traced { inner: link, rank, debug };
        run_worker(&mut link, Duration::from_secs(30))
    })
}

fn accept_links(listener: &TcpListener, chaos: NetChaos) -> (Vec<SocketTransport>, Vec<u64>) {
    let mut slots: Vec<Option<SocketTransport>> = (0..PROCS).map(|_| None).collect();
    let mut sessions = vec![0u64; PROCS];
    while slots.iter().any(Option::is_none) {
        let (mut stream, _) = listener.accept().expect("accept");
        let hello = read_hello(&mut stream, Duration::from_secs(10)).expect("hello");
        let rank = hello.rank as usize;
        sessions[rank] = hello.session;
        slots[rank] = Some(SocketTransport::accept(stream, hello, chaos).expect("handshake"));
    }
    (slots.into_iter().map(Option::unwrap).collect(), sessions)
}

#[test]
fn socket_transport_matches_the_in_process_engine_bitwise() {
    let (graph, owner, oracle) = scenario();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let workers: Vec<_> = (0..PROCS)
        .map(|rank| spawn_socket_worker(addr.clone(), rank as u32, NetChaos::none()))
        .collect();
    let (links, _) = accept_links(&listener, NetChaos::none());
    let mut runner = NetRunner::new(&graph, owner, links, NetConfig::default());
    runner.init(&mut NoSupervisor).expect("init succeeds over sockets");
    let outcome = runner.run(&mut NoSupervisor);
    runner.shutdown();
    for w in workers {
        w.join().expect("worker thread panicked").expect("worker exited cleanly");
    }
    match outcome {
        NetOutcome::Converged(summary) => {
            assert_bit_identical(&summary.closeness, &oracle, "socket");
        }
        NetOutcome::Degraded(report) => panic!("degraded without faults: {:?}", report.reason),
    }
}

/// The rebalancer must work over the wire exactly as it does in-process,
/// whatever it plans: budgeted `Ps` moves and the `Rs` diff to a fresh
/// multilevel partition ride the same `Reassign` rounds between worker
/// processes, the fixed point stays bit-identical to the oracle, and the
/// ownership map ends up measurably less skewed than it started — under
/// `Rs`, on the multilevel partition itself.
#[test]
fn background_rebalancer_works_over_the_wire() {
    use aaa_partition::{MultilevelPartitioner, Partitioner};

    let graph = barabasi_albert(140, 2, WeightModel::UniformRange { lo: 1, hi: 4 }, 33).unwrap();
    let mut engine = AnytimeEngine::new(graph.clone(), EngineConfig::deterministic(PROCS)).unwrap();
    engine.run_to_convergence();
    let oracle = engine.closeness();

    // A deliberately skewed ownership map: everything on rank 0 except
    // one vertex per other rank.
    let n = graph.num_vertices();
    let mut skewed = vec![0u32; n];
    for q in 1..PROCS {
        skewed[n - q] = q as u32;
    }
    let balance = |owner: &[u32]| {
        let mut sizes = [0usize; PROCS];
        for &p in owner {
            sizes[p as usize] += 1;
        }
        let ideal = n.div_ceil(PROCS) as f64;
        sizes.iter().copied().max().unwrap() as f64 / ideal
    };
    let skew_before = balance(&skewed);
    assert!(skew_before > 2.0, "scenario must start skewed");

    for policy in [RebalancePolicy::Ps, RebalancePolicy::Rs] {
        let mut links = Vec::new();
        let mut workers = Vec::new();
        for rank in 0..PROCS {
            let (coord, mut worker) = LocalTransport::pair("coordinator", &format!("rank{rank}"));
            links.push(coord);
            workers
                .push(std::thread::spawn(move || run_worker(&mut worker, Duration::from_secs(30))));
        }
        let config = NetConfig { rebalance: policy, ..NetConfig::default() };
        let mut runner = NetRunner::new(&graph, skewed.clone(), links, config);
        runner.init(&mut NoSupervisor).expect("init succeeds over local transport");
        let outcome = runner.run(&mut NoSupervisor);
        let owner_after = runner.owner().to_vec();
        runner.shutdown();
        for w in workers {
            w.join().expect("worker thread panicked").expect("worker exited cleanly");
        }
        match outcome {
            NetOutcome::Converged(summary) => {
                assert_bit_identical(&summary.closeness, &oracle, &format!("{policy:?}"));
            }
            NetOutcome::Degraded(report) => {
                panic!("{policy:?} degraded without faults: {:?}", report.reason)
            }
        }
        let skew_after = balance(&owner_after);
        assert!(
            skew_after < skew_before,
            "{policy:?}: migration never improved balance: {skew_before} -> {skew_after}"
        );
        if policy == RebalancePolicy::Rs {
            // One `Reassign` took the fleet to the planner's fresh
            // partition (which then holds); nothing de-escalated it.
            let fresh = MultilevelPartitioner::seeded(0).partition(&graph, PROCS);
            assert_eq!(owner_after, fresh.unwrap().assignment());
        }
    }
}

/// Heals worker links in place: waits for the worker's redial on the
/// shared listener and rebinds the broken acceptor-side transport. Thread
/// workers cannot be respawned, so a dead thread is `Gone`.
struct RebindSupervisor {
    listener: TcpListener,
    chaos: NetChaos,
    sessions: Vec<u64>,
}

impl WorkerSupervisor<SocketTransport> for RebindSupervisor {
    fn revive(
        &mut self,
        rank: usize,
        link: &mut SocketTransport,
        _attempt: u32,
    ) -> Revive<SocketTransport> {
        let debug = std::env::var_os("NET_DEBUG").is_some();
        if debug {
            eprintln!("[supervisor] revive rank {rank} attempt {_attempt}");
        }
        // Poll without blocking: if the worker never redials, give up at
        // the deadline instead of hanging in accept().
        self.listener.set_nonblocking(true).expect("nonblocking listener");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false).expect("blocking stream");
                    let hello = match read_hello(&mut stream, Duration::from_secs(5)) {
                        Ok(h) => h,
                        Err(_) => continue,
                    };
                    if debug {
                        eprintln!("[supervisor] inbound hello {hello:?} while reviving {rank}");
                    }
                    if hello.rank as usize != rank {
                        // Another rank redialing mid-crisis: rebind is only
                        // possible for the failed link we were handed, so
                        // drop the stream — that worker will redial again.
                        continue;
                    }
                    if hello.session == self.sessions[rank] {
                        if link.rebind(stream, hello).is_ok() {
                            return Revive::Healed;
                        }
                        if debug {
                            eprintln!("[supervisor] rebind of rank {rank} failed");
                        }
                        continue; // handshake lost; the worker redials
                    }
                    match SocketTransport::accept(stream, hello, self.chaos) {
                        Ok(fresh) => {
                            self.sessions[rank] = hello.session;
                            return Revive::Respawned(fresh);
                        }
                        Err(_) => continue,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return Revive::Gone,
            }
        }
        Revive::Gone
    }
}

#[test]
fn chaotic_sockets_still_converge_to_the_same_bits() {
    let (graph, owner, oracle) = scenario();
    for seed in [5u64, 23] {
        // Finite horizon: injection dries up, after which the supervised
        // run must still reach the exact fixed point.
        let chaos = NetChaos::seeded(seed, 0.08, 120);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let workers: Vec<_> =
            (0..PROCS).map(|rank| spawn_socket_worker(addr.clone(), rank as u32, chaos)).collect();
        let (links, sessions) = accept_links(&listener, chaos);
        let config = NetConfig {
            max_revivals: 64,
            probe_deadline: Duration::from_millis(500),
            ..NetConfig::default()
        };
        let mut runner = NetRunner::new(&graph, owner.clone(), links, config);
        let mut supervisor = RebindSupervisor { listener, chaos, sessions };
        runner.init(&mut supervisor).expect("init under chaos");
        let outcome = runner.run(&mut supervisor);
        runner.shutdown();
        if std::env::var_os("NET_DEBUG").is_some() {
            std::thread::sleep(Duration::from_millis(300));
            for (rank, w) in workers.into_iter().enumerate() {
                if w.is_finished() {
                    eprintln!("[driver] worker {rank} exit: {:?}", w.join());
                } else {
                    eprintln!("[driver] worker {rank} still running");
                }
            }
        } else {
            drop(workers); // threads exit on Shutdown/link error
        }
        match outcome {
            NetOutcome::Converged(summary) => {
                assert_bit_identical(&summary.closeness, &oracle, &format!("chaos seed {seed}"));
            }
            NetOutcome::Degraded(report) => {
                panic!("seed {seed} degraded: {:?}", report.reason)
            }
        }
    }
}
