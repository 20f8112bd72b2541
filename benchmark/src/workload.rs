//! The four workloads: their pinned settings, and the request streams
//! generated for them from a seed.
//!
//! Everything a workload fixes lives in [`WORKLOADS`]; nothing is read
//! from the environment. The program under test receives only the
//! generated requests, never the seed.

use crate::prng::Prng;

/// Requests generated per client. A client that runs out starts over,
/// which is harmless: every stream is stationary.
pub const REQUESTS_PER_CLIENT: usize = 1 << 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SockTransfer,
    SockPipelinedFsync,
    HotAdts,
    ReplicaReads,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durable {
    /// `Db::in_memory()`.
    Memory,
    /// Every commit reaches the OS page cache; no fsync.
    Buffered,
    /// Every commit is fsynced, batched by group commit.
    Fsync,
}

impl Durable {
    pub fn label(self) -> &'static str {
        match self {
            Durable::Memory => "memory",
            Durable::Buffered => "buffered",
            Durable::Fsync => "fsync",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Load-generator threads, one connection each; pinned here, not
    /// taken from `nproc`, so two machines run the same load. The two
    /// depth-1 socket workloads use 8: with 2 callers the loop is bound
    /// by thread wake-up latency in the guest, not by the program, and
    /// throughput wandered between 21k and 44k commits/s from one second
    /// to the next; with 8 both cores stay busy and it holds within ±8%.
    pub clients: usize,
    /// Requests each connection keeps outstanding.
    pub depth: usize,
    /// The `max_in_flight` asked for at handshake. Twice the depth where
    /// the depth is above 1: see "known issues" in the README.
    pub in_flight: u32,
    /// Server worker threads (0 = no server).
    pub workers: usize,
    pub durable: Durable,
    pub accounts: usize,
    /// Opening balance of every account but `poor`.
    pub opening: i64,
    /// Items in the queue before the first request (0 = no queue).
    pub queue_items: usize,
}

/// Opening balance that no run can exhaust: 10^12 against at most a few
/// 10^7 debits of at most 16.
const DEEP: i64 = 1_000_000_000_000;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        kind: Kind::SockTransfer,
        name: "sock_transfer",
        clients: 8,
        depth: 1,
        in_flight: 8,
        workers: 2,
        durable: Durable::Buffered,
        accounts: 1024,
        opening: DEEP,
        queue_items: 0,
    },
    Workload {
        kind: Kind::HotAdts,
        name: "hot_adts",
        clients: 2,
        depth: 1,
        in_flight: 0,
        workers: 0,
        durable: Durable::Memory,
        accounts: 2,
        opening: DEEP,
        queue_items: 64,
    },
    Workload {
        kind: Kind::ReplicaReads,
        name: "replica_reads",
        clients: 8,
        depth: 1,
        in_flight: 8,
        workers: 2,
        durable: Durable::Buffered,
        accounts: 4,
        opening: DEEP,
        queue_items: 0,
    },
];

/// The fsync-bound arrangement. Not one of the gated workloads: on this
/// guest the device's `fdatasync` time wanders by half for minutes at a
/// time, and a pipeline the device bounds repeats no better than the
/// device (40 runs in a row: quartile spread of each ten 5%, 25%, 6%,
/// 31%, whichever statistic summarises the windows). Every traced run
/// drives a slice of it and reports the figures as `fsync.*` and
/// `storage.fsync_*` layer metrics; it can also be run by name.
pub const FSYNC_SLICE: Workload = Workload {
    kind: Kind::SockPipelinedFsync,
    name: "sock_pipelined_fsync",
    clients: 2,
    depth: 8,
    in_flight: 16,
    workers: 8,
    durable: Durable::Fsync,
    accounts: 1024,
    opening: DEEP,
    queue_items: 0,
};

/// The workloads `BENCHMARK.json` names, then the ungated slice.
pub fn all() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().chain([&FSYNC_SLICE])
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    all().find(|w| w.name == name)
}

/// `hot_adts` account indices. `poor` opens empty and is the source of
/// every debit, so its balance hovers near zero and debits overdraw at a
/// steady rate; `rich` is the sink.
pub const RICH: u16 = 0;
pub const POOR: u16 = 1;

/// One generated request. Accounts are indices into [`Names::accounts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// One transaction: debit `from`; credit `to` if the debit went
    /// through (over the wire, where the batch is fixed up front, the
    /// credit is unconditional — used only where no debit can overdraw).
    Transfer {
        from: u16,
        to: u16,
        amount: u16,
    },
    Credit {
        to: u16,
        amount: u16,
    },
    /// `post(0)`: the Post lock class without changing the balance.
    Post {
        on: u16,
    },
    /// Enqueue `item`, then dequeue the head, in one transaction.
    EnqDeq {
        item: u16,
    },
    /// Snapshot-read every account.
    ReadAll,
}

impl Req {
    pub fn commits(&self) -> bool {
        !matches!(self, Req::ReadAll)
    }

    fn fold_into(&self, h: &mut u64) {
        let (tag, a, b, c) = match *self {
            Req::Transfer { from, to, amount } => (1u64, from, to, amount),
            Req::Credit { to, amount } => (2, to, amount, 0),
            Req::Post { on } => (3, on, 0, 0),
            Req::EnqDeq { item } => (4, item, 0, 0),
            Req::ReadAll => (5, 0, 0, 0),
        };
        for word in [tag, u64::from(a), u64::from(b), u64::from(c)] {
            // FNV-1a over the words.
            *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Object names, built once so the hot loops never format.
pub struct Names {
    pub accounts: Vec<String>,
    pub queue: String,
}

impl Names {
    pub fn of(w: &Workload) -> Names {
        let accounts = match w.kind {
            Kind::HotAdts => vec!["rich".to_string(), "poor".to_string()],
            _ => (0..w.accounts).map(|i| format!("a{i:04}")).collect(),
        };
        Names { accounts, queue: "q".to_string() }
    }
}

/// The generated input of one run: a request stream per client.
pub struct Inputs {
    pub streams: Vec<Vec<Req>>,
    /// Hash of every stream — the same seed gives the same digest.
    pub digest: u64,
}

fn amount(rng: &mut Prng, max: u32) -> u16 {
    1 + rng.below(max) as u16
}

fn distinct_pair(rng: &mut Prng, n: u32) -> (u16, u16) {
    let from = rng.below(n);
    let to = (from + 1 + rng.below(n - 1)) % n;
    (from as u16, to as u16)
}

fn next_request(w: &Workload, rng: &mut Prng) -> Req {
    let n = w.accounts as u32;
    match w.kind {
        Kind::SockTransfer | Kind::SockPipelinedFsync => {
            let (from, to) = distinct_pair(rng, n);
            Req::Transfer { from, to, amount: amount(rng, 10) }
        }
        Kind::HotAdts => match rng.below(100) {
            // Credits average 4.5 and attempted debits 8.5, at equal
            // rates: about half of what is asked of `poor` is there.
            0..=34 => Req::Credit { to: POOR, amount: amount(rng, 8) },
            35..=69 => Req::Transfer { from: POOR, to: RICH, amount: amount(rng, 16) },
            70..=79 => Req::Post { on: rng.below(2) as u16 },
            _ => Req::EnqDeq { item: rng.below(1 << 16) as u16 },
        },
        Kind::ReplicaReads => {
            if rng.below(10) == 0 {
                let (from, to) = distinct_pair(rng, n);
                Req::Transfer { from, to, amount: amount(rng, 10) }
            } else {
                Req::ReadAll
            }
        }
    }
}

/// Generate `clients` streams for `w` from `seed`.
pub fn generate(w: &Workload, seed: u64, clients: usize) -> Inputs {
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let streams = (0..clients)
        .map(|client| {
            let mut rng = Prng::new(seed, client as u64);
            let stream: Vec<Req> =
                (0..REQUESTS_PER_CLIENT).map(|_| next_request(w, &mut rng)).collect();
            for req in &stream {
                req.fold_into(&mut digest);
            }
            stream
        })
        .collect();
    Inputs { streams, digest }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in all() {
            let a = generate(w, 11, w.clients);
            let b = generate(w, 11, w.clients);
            let c = generate(w, 12, w.clients);
            assert_eq!(a.digest, b.digest, "{}", w.name);
            assert_eq!(a.streams, b.streams, "{}", w.name);
            assert_ne!(a.digest, c.digest, "{}", w.name);
        }
    }

    #[test]
    fn transfers_never_name_one_account_twice() {
        for w in all() {
            for req in &generate(w, 3, 1).streams[0] {
                if let Req::Transfer { from, to, .. } = req {
                    assert_ne!(from, to);
                    assert!((*from as usize) < w.accounts && (*to as usize) < w.accounts);
                }
            }
        }
    }

    #[test]
    fn the_mixes_are_what_the_table_says() {
        let hot = by_name("hot_adts").unwrap();
        let stream = &generate(hot, 5, 1).streams[0];
        let share = |pred: fn(&Req) -> bool| {
            stream.iter().filter(|r| pred(r)).count() as f64 / stream.len() as f64
        };
        assert!((share(|r| matches!(r, Req::Credit { .. })) - 0.35).abs() < 0.01);
        assert!((share(|r| matches!(r, Req::Transfer { .. })) - 0.35).abs() < 0.01);
        assert!((share(|r| matches!(r, Req::Post { .. })) - 0.10).abs() < 0.01);
        assert!((share(|r| matches!(r, Req::EnqDeq { .. })) - 0.20).abs() < 0.01);

        let reads = by_name("replica_reads").unwrap();
        let stream = &generate(reads, 5, 1).streams[0];
        let read_share =
            stream.iter().filter(|r| !r.commits()).count() as f64 / stream.len() as f64;
        assert!((read_share - 0.9).abs() < 0.01);
    }
}
