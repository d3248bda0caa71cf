//! Multi-process cluster harness: worker processes over real sockets,
//! supervised by the coordinator.
//!
//! The cross-transport tests in `tests/net_transport.rs` exercise the
//! socket stack with worker *threads*; this module supplies the missing
//! process pieces for the `net_cluster` binary and its end-to-end kill
//! tests:
//!
//! * [`ProcessSupervisor`] — a [`WorkerSupervisor`] whose revive ladder
//!   operates on OS processes: a dead child is respawned (fresh session →
//!   `Revive::Respawned`, coordinator re-inits and seeds it from the
//!   latest checkpoint), a live child that redials is rebound in place
//!   (same session → `Revive::Healed`), and a live child that stays
//!   silent past the deadline is killed and respawned.
//! * [`DieAtRound`] — a transport wrapper that hard-exits the worker
//!   process (exit code 137, mimicking `SIGKILL`) the moment it sees the
//!   coordinator's `Produce` for a configured round. This makes process
//!   death a *deterministic, driver-chosen* event: the test names the
//!   round, not a sleep.
//!
//! Sessions distinguish a reconnecting worker from a respawned one: every
//! spawn gets a fresh session id (carried in its [`Hello`](aaa_runtime::Hello)), so the
//! supervisor can tell "same process, new socket" (replay resumes) from
//! "new process" (sequence state must reset).

use aaa_core::{NetMsg, Revive, WorkerSupervisor};
use aaa_runtime::{read_hello, Frame, FrameKind, NetChaos, NetError, SocketTransport, Transport};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How to (re)spawn one worker process of the cluster.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Executable to run (normally `current_exe()` — the binary re-enters
    /// itself with `--role worker`).
    pub exe: PathBuf,
    /// Coordinator listen address the worker dials.
    pub addr: String,
    /// `seed:rate[:horizon]` chaos argument forwarded to workers, if any.
    pub chaos_arg: Option<String>,
}

impl WorkerSpec {
    /// Spawns one worker process. `die_at_round` arms [`DieAtRound`]
    /// inside the child; respawned replacements never inherit it.
    pub fn spawn(
        &self,
        rank: usize,
        session: u64,
        die_at_round: Option<u64>,
    ) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--role")
            .arg("worker")
            .arg("--addr")
            .arg(&self.addr)
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--session")
            .arg(session.to_string())
            .stdin(Stdio::null());
        if let Some(chaos) = &self.chaos_arg {
            cmd.arg("--chaos").arg(chaos);
        }
        if let Some(round) = die_at_round {
            cmd.arg("--die-at-round").arg(round.to_string());
        }
        cmd.spawn()
    }
}

/// Supervises worker *processes*: the revive ladder can respawn them.
pub struct ProcessSupervisor {
    pub listener: TcpListener,
    pub spec: WorkerSpec,
    pub chaos: NetChaos,
    /// One child handle per rank.
    pub children: Vec<Child>,
    /// Session id each rank's current process announced.
    pub sessions: Vec<u64>,
    /// Next fresh session id for a respawn.
    next_session: u64,
    /// How long to wait for a (re)dial before escalating.
    pub accept_deadline: Duration,
}

impl ProcessSupervisor {
    pub fn new(
        listener: TcpListener,
        spec: WorkerSpec,
        chaos: NetChaos,
        children: Vec<Child>,
        sessions: Vec<u64>,
    ) -> Self {
        let next_session = sessions.iter().copied().max().unwrap_or(0) + 1;
        Self {
            listener,
            spec,
            chaos,
            children,
            sessions,
            next_session,
            accept_deadline: Duration::from_secs(15),
        }
    }

    fn fresh_session(&mut self) -> u64 {
        let s = self.next_session;
        self.next_session += 1;
        s
    }

    /// Polls the shared listener until the awaited rank dials in (any
    /// other rank's redial mid-crisis is dropped — it will redial again),
    /// or the deadline passes.
    fn wait_for_dial(
        &mut self,
        rank: usize,
        link: &mut SocketTransport,
        expect_new: Option<u64>,
        deadline: Duration,
    ) -> Option<Revive<SocketTransport>> {
        self.listener.set_nonblocking(true).ok()?;
        let until = Instant::now() + deadline;
        while Instant::now() < until {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    let hello = match read_hello(&mut stream, Duration::from_secs(5)) {
                        Ok(h) => h,
                        Err(_) => continue,
                    };
                    if hello.rank as usize != rank {
                        continue;
                    }
                    match expect_new {
                        Some(session) if hello.session == session => {
                            match SocketTransport::accept(stream, hello, self.chaos) {
                                Ok(fresh) => {
                                    self.sessions[rank] = session;
                                    return Some(Revive::Respawned(fresh));
                                }
                                Err(_) => continue,
                            }
                        }
                        None if hello.session == self.sessions[rank] => {
                            if link.rebind(stream, hello).is_ok() {
                                return Some(Revive::Healed);
                            }
                            continue;
                        }
                        // A zombie dial from a session that no longer
                        // exists (e.g. the killed process's backlog).
                        _ => continue,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return Some(Revive::Gone),
            }
        }
        None
    }

    /// Replaces the child for `rank` with a fresh spawn and returns the
    /// new session id it will announce.
    fn respawn(&mut self, rank: usize) -> Option<u64> {
        let session = self.fresh_session();
        match self.spec.spawn(rank, session, None) {
            Ok(child) => {
                self.children[rank] = child;
                Some(session)
            }
            Err(_) => None,
        }
    }
}

impl WorkerSupervisor<SocketTransport> for ProcessSupervisor {
    fn revive(
        &mut self,
        rank: usize,
        link: &mut SocketTransport,
        _attempt: u32,
    ) -> Revive<SocketTransport> {
        // Reap first: a process that died (crash, kill, DieAtRound) needs
        // a replacement before anything can dial back in.
        let exited = matches!(self.children[rank].try_wait(), Ok(Some(_)));
        if exited {
            let Some(session) = self.respawn(rank) else {
                return Revive::Gone;
            };
            let deadline = self.accept_deadline;
            return self.wait_for_dial(rank, link, Some(session), deadline).unwrap_or(Revive::Gone);
        }
        // The process is alive: give it half the window to redial the
        // broken link, then treat it as wedged — kill and respawn.
        let half = self.accept_deadline / 2;
        if let Some(outcome) = self.wait_for_dial(rank, link, None, half) {
            return outcome;
        }
        self.children[rank].kill().ok();
        self.children[rank].wait().ok();
        let Some(session) = self.respawn(rank) else {
            return Revive::Gone;
        };
        let deadline = self.accept_deadline;
        self.wait_for_dial(rank, link, Some(session), deadline).unwrap_or(Revive::Gone)
    }
}

impl Drop for ProcessSupervisor {
    fn drop(&mut self) {
        // No orphans: whatever happens to the run, the children die with
        // the supervisor. Workers that already exited reap cleanly.
        for child in &mut self.children {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Transport wrapper that terminates the whole process (exit code 137,
/// the `SIGKILL` convention) when the coordinator's `Produce` for
/// `round` arrives — a deterministic stand-in for an OS-level kill.
pub struct DieAtRound<T: Transport> {
    pub inner: T,
    pub round: u64,
}

impl<T: Transport> Transport for DieAtRound<T> {
    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<u64, NetError> {
        self.inner.send(kind, payload)
    }

    fn recv(&mut self, deadline: Option<Duration>) -> Result<Frame, NetError> {
        let frame = self.inner.recv(deadline)?;
        if frame.kind == FrameKind::Data {
            if let Ok(NetMsg::Produce { round }) = NetMsg::decode(&frame.payload) {
                if round >= self.round {
                    // Flush nothing, say nothing: a real crash is silent.
                    std::process::exit(137);
                }
            }
        }
        Ok(frame)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}
