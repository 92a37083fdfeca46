//! W3 `serve-s4-mixed`: build an artifact store, serve it with the shipped
//! `mcml-serve` binary, and drive it with a closed loop of scripted client
//! sessions.

use crate::gate::Gate;
use crate::stats::{median, SplitMix};
use crate::workload::{BatchSpec, THREADS};
use mcml::artifact::{artifact_file_name, load_artifact, save_artifact};
use mcml::counter::CompiledCounter;
use mcml::framework::{ModelFamily, RunnerRow};
use mcml::tree2cnf::TreeLabel;
use mcml_serve::client::{self, Connection};
use mcml_serve::store::{CircuitStore, Circuits, Unit};
use relspec::properties::Property;
use satkit::cnf::Lit;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per scripted session: 30% accuracy, 60% count, 10% diff.
const SESSION: [(Verb, usize); 3] = [(Verb::Accuracy, 6), (Verb::Count, 12), (Verb::Diff, 2)];

/// Requests per session.
pub const SESSION_REQUESTS: usize = SESSION[0].1 + SESSION[1].1 + SESSION[2].1;

/// Client connections of the closed loop. One: with two, which heavy
/// requests of the two connections overlap followed the seeded order, and
/// the overlaps set the tail latency.
pub const CONNECTIONS: usize = 1;

/// Sessions per connection in which its accuracy requests cover its share
/// of the 96-unit rotation once: a load runs whole rounds, so every run
/// sends the same accuracy and diff requests.
pub const ROUND_SESSIONS: usize = 96 / CONNECTIONS / SESSION[0].1;

/// Longest conditioning cube of a `count` request.
const MAX_CUBE: usize = 6;

/// How long the server may take to print its `listening` line.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// A request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `accuracy P S F`.
    Accuracy,
    /// `count P S phi|nphi LIT...`.
    Count,
    /// `diff P S DT F`.
    Diff,
}

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The verb.
    pub verb: Verb,
    /// The property queried.
    pub property: Property,
    /// The family (accuracy) or the diff's second family.
    pub family: ModelFamily,
    /// Whether a count conditions ¬φ.
    pub negated: bool,
    /// A count's cube, as DIMACS literals over the feature variables.
    pub cube: Vec<i64>,
}

impl Request {
    /// The request line sent to the server.
    pub fn text(&self, scope: usize) -> String {
        let p = self.property.name();
        match self.verb {
            Verb::Accuracy => format!("accuracy {p} {scope} {}", self.family.name()),
            Verb::Diff => format!("diff {p} {scope} DT {}", self.family.name()),
            Verb::Count => {
                let side = if self.negated { "nphi" } else { "phi" };
                let lits: Vec<String> = self.cube.iter().map(i64::to_string).collect();
                format!("count {p} {scope} {side} {}", lits.join(" "))
                    .trim_end()
                    .to_string()
            }
        }
    }

    fn lits(&self) -> Vec<Lit> {
        self.cube.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }
}

/// The scripted session `index` of connection `connection`: a seeded
/// shuffle of [`SESSION`]'s exact verb mix, with seeded count properties,
/// sides and cubes. Accuracy units and diff pairs are not seeded: they rotate in a
/// fixed order through the 96 units (unit `k` is property `k mod 16`,
/// family `k / 16`) and the 80 `DT × {RFT, GBDT, ABT, MLP, SVM}` pairs
/// (pair `k` is property `k mod 16` against family `1 + k mod 5`), each
/// connection starting its share of a rotation further. Every run thus meets the same units
/// and pairs; the cost of the few largest region covers would otherwise
/// set the run-to-run spread.
pub fn session(seed: u64, connection: usize, index: usize, features: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(
        seed ^ (connection as u64).wrapping_mul(0x9e37_79b9)
            ^ (index as u64).wrapping_mul(0x85eb_ca6b),
    );
    let properties = Property::all();
    let families = ModelFamily::all();
    let mut script = Vec::new();
    for (verb, n) in SESSION {
        let rotation = match verb {
            Verb::Accuracy => properties.len() * families.len(),
            Verb::Diff => properties.len() * (families.len() - 1),
            Verb::Count => properties.len(),
        };
        for slot in 0..n {
            let k = match verb {
                Verb::Count => rng.below(rotation),
                _ => (connection * rotation / CONNECTIONS + index * n + slot) % rotation,
            };
            let property = properties[k % properties.len()];
            // A count conditions the property's φ or ¬φ, which every
            // family's unit shares; the DT unit stands for them.
            let family = match verb {
                Verb::Accuracy => families[k / properties.len()],
                Verb::Diff => families[1 + k % (families.len() - 1)],
                Verb::Count => families[0],
            };
            let mut cube = Vec::new();
            if verb == Verb::Count {
                let len = rng.below(MAX_CUBE + 1);
                let mut vars: Vec<i64> = (1..=features as i64).collect();
                for k in 0..len {
                    let pick = k + rng.below(vars.len() - k);
                    vars.swap(k, pick);
                    let var = vars[k];
                    cube.push(if rng.next_u64() & 1 == 1 { var } else { -var });
                }
            }
            script.push(Request {
                verb,
                property,
                family,
                negated: verb == Verb::Count && rng.next_u64() & 1 == 1,
                cube,
            });
        }
    }
    for i in (1..script.len()).rev() {
        script.swap(i, rng.below(i + 1));
    }
    script
}

/// Timings of one store build.
#[derive(Debug, Clone, Copy)]
pub struct StoreBuild {
    /// `Runner::build_artifact` seconds.
    pub build_s: f64,
    /// `artifact::save_artifact` seconds.
    pub save_s: f64,
    /// Size of the saved artifact file.
    pub bytes: u64,
}

/// The artifact file a store directory holds.
pub fn artifact_path(dir: &Path) -> PathBuf {
    dir.join(artifact_file_name("compiled"))
}

/// Builds the artifact of `spec` with a fresh compiled counter and saves it
/// under `dir`.
pub fn build_store(spec: &BatchSpec, seed: u64, dir: &Path) -> io::Result<StoreBuild> {
    std::fs::create_dir_all(dir)?;
    let start = Instant::now();
    let artifact = spec
        .runner(THREADS)
        .build_artifact(&spec.configs(seed), &CompiledCounter::new())
        .map_err(|e| io::Error::other(format!("artifact build failed: {e}")))?;
    let build_s = start.elapsed().as_secs_f64();
    let path = artifact_path(dir);
    let start = Instant::now();
    save_artifact(&path, &artifact)?;
    let save_s = start.elapsed().as_secs_f64();
    Ok(StoreBuild {
        build_s,
        save_s,
        bytes: std::fs::metadata(&path)?.len(),
    })
}

/// A running `mcml-serve serve` child process. Dropping it kills and reaps
/// the process if [`Server::shutdown`] was not called.
pub struct Server {
    child: Child,
    stdout_reader: Option<JoinHandle<()>>,
    /// The address the server listens on.
    pub addr: String,
    /// Seconds from spawn until the `listening` line.
    pub load_s: f64,
}

impl Server {
    /// Starts `binary` on the store under `dir` with [`THREADS`] count
    /// workers and waits until it listens.
    pub fn start(binary: &Path, dir: &Path) -> io::Result<Server> {
        let start = Instant::now();
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--artifact-dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--poll", "0"])
            .args(["--workers", &THREADS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // The reader ends when the server exits and closes its stdout.
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child,
            stdout_reader: Some(stdout_reader),
            addr: String::new(),
            load_s: 0.0,
        };
        server.addr = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            io::Error::other(format!("{} did not start listening", binary.display()))
        })?;
        server.load_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = client::query(&self.addr, "shutdown");
        let status = self.child.wait()?;
        self.join_reader();
        reply?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }
}

impl Server {
    fn join_reader(&mut self) {
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.join_reader();
    }
}

/// One answered (or dropped) request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The request.
    pub request: Request,
    /// Round trip in milliseconds.
    pub rtt_ms: f64,
    /// The reply, or `None` if the connection failed.
    pub reply: Option<String>,
}

/// The outcome of the closed loop.
#[derive(Debug, Default)]
pub struct LoadRun {
    /// Every request, in the order each connection sent them.
    pub answers: Vec<Answer>,
    /// Wall seconds of every completed session.
    pub session_s: Vec<f64>,
    /// Wall seconds from the first request to the last reply.
    pub elapsed_s: f64,
}

/// Drives `addr` with [`CONNECTIONS`] persistent connections, each running
/// scripted sessions back to back (a closed loop: the next request leaves
/// when the previous reply arrived) in whole rounds of [`ROUND_SESSIONS`]
/// until `seconds` have passed.
pub fn closed_loop(addr: &str, seed: u64, seconds: f64, features: usize, scope: usize) -> LoadRun {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_connection: Vec<(Vec<Answer>, Vec<f64>)> = std::thread::scope(|scope_| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                scope_.spawn(move || {
                    let mut answers = Vec::new();
                    let mut sessions = Vec::new();
                    let mut conn = Connection::connect(addr).ok();
                    let mut index = 0;
                    while index % ROUND_SESSIONS != 0 || Instant::now() < deadline {
                        let session_start = Instant::now();
                        for request in session(seed, connection, index, features) {
                            let sent = Instant::now();
                            let reply = match conn.as_mut() {
                                Some(c) => c.request(&request.text(scope)).ok(),
                                None => None,
                            };
                            if reply.is_none() {
                                // A dropped connection is replaced for the
                                // next request; the drop counts as failed.
                                conn = Connection::connect(addr).ok();
                            }
                            answers.push(Answer {
                                request,
                                rtt_ms: sent.elapsed().as_secs_f64() * 1e3,
                                reply,
                            });
                        }
                        sessions.push(session_start.elapsed().as_secs_f64());
                        index += 1;
                    }
                    (answers, sessions)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = LoadRun {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..LoadRun::default()
    };
    for (answers, sessions) in per_connection {
        run.answers.extend(answers);
        run.session_s.extend(sessions);
    }
    run
}

/// Median round trip of `n` pings over one connection, in milliseconds.
pub fn ping_rtt_ms(addr: &str, n: usize) -> io::Result<f64> {
    let mut conn = Connection::connect(addr)?;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let sent = Instant::now();
        conn.request("ping")?;
        rtts.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&rtts))
}

/// `(p50_ns, p99_ns)` from the server's `stats` verb.
pub fn server_stats(addr: &str) -> io::Result<(f64, f64)> {
    let reply = client::query(addr, "stats")?;
    let words: Vec<&str> = reply.split_whitespace().collect();
    let field = |name: &str| {
        words
            .iter()
            .position(|w| *w == name)
            .and_then(|i| words.get(i + 1))
            .and_then(|v| v.parse::<f64>().ok())
    };
    match (field("p50_ns"), field("p99_ns")) {
        (Some(p50), Some(p99)) => Ok((p50, p99)),
        _ => Err(io::Error::other(format!(
            "unexpected stats reply {reply:?}"
        ))),
    }
}

/// The served store, loaded in-process for expected values and in-process
/// sweep timings.
pub struct LocalStore {
    units: HashMap<(String, String), Unit>,
}

impl LocalStore {
    /// Loads the artifact under `dir` the way the server does.
    pub fn load(dir: &Path) -> io::Result<LocalStore> {
        let artifact = load_artifact(&artifact_path(dir), "compiled")?;
        let units = CircuitStore::from_artifact(artifact)?
            .into_units()
            .into_iter()
            .map(|((property, _scope, family), unit)| ((property, family), unit))
            .collect();
        Ok(LocalStore { units })
    }

    fn unit(&self, property: Property, family: ModelFamily) -> Option<&Unit> {
        self.units
            .get(&(property.name().to_string(), family.name().to_string()))
    }

    /// Answers `request` in-process with the same circuit sweeps the server
    /// runs, returning the comparable reply fields and the sweep's seconds.
    pub fn sweep(&self, request: &Request) -> Option<(Vec<u128>, f64)> {
        let unit = self.unit(request.property, request.family)?;
        let Circuits::Compiled { phi, not_phi } = &unit.circuits else {
            return None;
        };
        let start = Instant::now();
        let fields = match request.verb {
            Verb::Count => {
                let circuit = if request.negated { not_phi } else { phi };
                vec![circuit.count_conditioned(&request.lits())]
            }
            Verb::Accuracy => {
                let cubes: Vec<&[Lit]> = unit.regions.iter().map(|r| r.cube.as_slice()).collect();
                let (p, n) = (phi.count_cubes(&cubes), not_phi.count_cubes(&cubes));
                let mut tally = [0u128; 4];
                for (region, (p, n)) in unit.regions.iter().zip(p.into_iter().zip(n)) {
                    match region.label {
                        TreeLabel::True => {
                            tally[0] += p;
                            tally[1] += n;
                        }
                        TreeLabel::False => {
                            tally[3] += p;
                            tally[2] += n;
                        }
                    }
                }
                tally.to_vec()
            }
            Verb::Diff => {
                let dt = self.unit(request.property, ModelFamily::Dt)?;
                let mut cubes = Vec::with_capacity(dt.regions.len() * unit.regions.len());
                let mut labels = Vec::with_capacity(cubes.capacity());
                for a in dt.regions.iter() {
                    for b in unit.regions.iter() {
                        let mut cube = a.cube.clone();
                        cube.extend_from_slice(&b.cube);
                        cubes.push(cube);
                        labels.push((a.label, b.label));
                    }
                }
                let (p, n) = (phi.count_cubes(&cubes), not_phi.count_cubes(&cubes));
                let mut tally = [0u128; 4];
                for ((la, lb), (p, n)) in labels.iter().zip(p.into_iter().zip(n)) {
                    let slot = match (la, lb) {
                        (TreeLabel::True, TreeLabel::True) => 0,
                        (TreeLabel::True, TreeLabel::False) => 1,
                        (TreeLabel::False, TreeLabel::True) => 2,
                        (TreeLabel::False, TreeLabel::False) => 3,
                    };
                    tally[slot] += p + n;
                }
                tally.to_vec()
            }
        };
        Some((fields, start.elapsed().as_secs_f64()))
    }

    /// `|A|·|B|` region intersections a `diff` of `request` materialises.
    pub fn diff_cubes(&self, request: &Request) -> usize {
        match (
            self.unit(request.property, ModelFamily::Dt),
            self.unit(request.property, request.family),
        ) {
            (Some(a), Some(b)) => a.regions.len() * b.regions.len(),
            _ => 0,
        }
    }
}

/// Checks every reply: accuracy against the batch rows the store was built
/// from, count against the in-process conditioned count, diff by its total
/// and its marginals against both units' predicted-positive counts.
/// Returns the number of failed (`err` or dropped) requests.
pub fn check_answers(
    gate: &mut Gate,
    answers: &[Answer],
    rows: &[RunnerRow],
    local: &LocalStore,
    space: u128,
) -> u64 {
    let row = |p: Property, f: ModelFamily| {
        rows.iter()
            .find(|r| r.config.property == p && r.family == f)
            .and_then(|r| r.whole_space.as_ref())
    };
    let mut failed = 0;
    for answer in answers {
        let request = &answer.request;
        let what = request.text(4);
        let Some(reply) = answer.reply.as_deref().filter(|r| r.starts_with("ok")) else {
            failed += 1;
            gate.fail(format!("{what}: failed reply {:?}", answer.reply));
            continue;
        };
        let words: Vec<&str> = reply.split_whitespace().skip(1).collect();
        let ints: Vec<u128> = words.iter().map_while(|w| w.parse().ok()).collect();
        match request.verb {
            Verb::Accuracy => {
                let Some(ws) = row(request.property, request.family) else {
                    gate.fail(format!("{what}: no batch row"));
                    continue;
                };
                let c = ws.counts;
                let m = ws.metrics;
                let floats: Vec<f64> = words
                    .get(4..)
                    .unwrap_or_default()
                    .iter()
                    .take(4)
                    .filter_map(|w| w.parse().ok())
                    .collect();
                gate.check(
                    ints.get(..4) == Some(&[c.tp, c.fp, c.tn, c.fn_][..])
                        && floats == [m.accuracy, m.precision, m.recall, m.f1],
                    || format!("{what}: reply {reply:?} differs from the batch row {ws:?}"),
                );
            }
            Verb::Count => {
                let expected = local.sweep(request).map(|(fields, _)| fields);
                gate.check(expected.as_deref() == Some(&ints[..]), || {
                    format!("{what}: reply {reply:?}, in-process count {expected:?}")
                });
            }
            Verb::Diff => {
                let (a, b) = (
                    row(request.property, ModelFamily::Dt),
                    row(request.property, request.family),
                );
                let ok = match (ints.as_slice(), a, b) {
                    ([tt, tf, ft, ff, ..], Some(a), Some(b)) => {
                        tt + tf + ft + ff == space
                            && tt + tf == a.counts.tp + a.counts.fp
                            && tt + ft == b.counts.tp + b.counts.fp
                    }
                    _ => false,
                };
                gate.check(ok, || {
                    format!("{what}: diff tallies {reply:?} disagree with the accuracy rows")
                });
            }
        }
    }
    failed
}
