//! CPU accounting read from `/proc/self`: the whole process from `stat`
//! (which keeps the time of threads that already exited), each live thread
//! from `task/*/{comm,schedstat}`, bucketed by the names the server already
//! gives its threads.

use std::collections::BTreeMap;
use std::fs;

/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux ABI std targets; `/proc`
/// reports utime/stime in these ticks.
const NS_PER_TICK: u64 = 10_000_000;

/// Prefix the benchmark gives its own threads, so their CPU can be taken
/// out of the program's.
pub const LOADGEN_PREFIX: &str = "bench-";

/// Which layer a thread's CPU is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Group {
    /// The benchmark's own threads: clients, echo peer, coordinator.
    Loadgen,
    Event,
    Dispatch,
    Worker,
    Batcher,
    Obs,
    /// Any other live thread (the offline workloads' caller, stack export).
    Other,
}

/// Bucket a thread by its `comm` (the kernel truncates names to 15 bytes,
/// so `t2v-obs-profiler` arrives as `t2v-obs-profile`). The main thread
/// coordinates the run and is load generator, whatever its name.
pub fn group_of(comm: &str, is_main: bool) -> Group {
    if is_main || comm.starts_with(LOADGEN_PREFIX) {
        Group::Loadgen
    } else if comm == "t2v-event" {
        Group::Event
    } else if comm.starts_with("t2v-dispatch-") {
        Group::Dispatch
    } else if comm.starts_with("t2v-worker-") {
        Group::Worker
    } else if comm == "t2v-batcher" {
        Group::Batcher
    } else if comm.starts_with("t2v-obs-") {
        Group::Obs
    } else {
        Group::Other
    }
}

/// utime + stime of the whole thread group, in nanoseconds, from the text
/// of `/proc/<pid>/stat`. The comm field may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * NS_PER_TICK)
}

/// Time spent on a CPU, nanoseconds: first field of `schedstat`.
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// A `kB` field of `/proc/<pid>/status`, e.g. `VmRSS`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// One reading of every CPU counter the benchmark uses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuSnapshot {
    pub process_ns: u64,
    /// Run time of each live thread: tid → (group, ns).
    pub threads: BTreeMap<u64, (Group, u64)>,
}

/// CPU spent between two snapshots, split by where it went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuDelta {
    pub process_ns: u64,
    pub by_group: BTreeMap<Group, u64>,
    /// Process CPU no live thread accounts for: threads that were spawned
    /// and joined inside the interval (the scoped scan threads).
    pub transient_ns: u64,
}

impl CpuDelta {
    pub fn group(&self, g: Group) -> u64 {
        self.by_group.get(&g).copied().unwrap_or(0)
    }

    /// Everything that is not the load generator's own.
    pub fn program_ns(&self) -> u64 {
        self.process_ns.saturating_sub(self.group(Group::Loadgen))
    }

    /// Nanoseconds by group, for the trace file.
    pub fn to_json(&self) -> t2v_engine::Json {
        use t2v_engine::Json;
        let mut out = Json::obj([
            ("process", Json::Num(self.process_ns as f64)),
            ("transient", Json::Num(self.transient_ns as f64)),
        ]);
        for (group, ns) in &self.by_group {
            out.set(&format!("{group:?}").to_lowercase(), Json::Num(*ns as f64));
        }
        out
    }
}

impl CpuSnapshot {
    /// Read `/proc/self` now. Threads that exit mid-scan are skipped: their
    /// time stays in the process total and lands in `transient_ns`.
    pub fn take() -> std::io::Result<CpuSnapshot> {
        let stat = fs::read_to_string("/proc/self/stat")?;
        let process_ns = parse_stat_cpu_ns(&stat)
            .ok_or_else(|| std::io::Error::other("unparseable /proc/self/stat"))?;
        let pid = u64::from(std::process::id());
        let mut threads = BTreeMap::new();
        for entry in fs::read_dir("/proc/self/task")? {
            let entry = entry?;
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let dir = entry.path();
            let (Ok(comm), Ok(sched)) = (
                fs::read_to_string(dir.join("comm")),
                fs::read_to_string(dir.join("schedstat")),
            ) else {
                continue;
            };
            if let Some(ns) = parse_schedstat_run_ns(&sched) {
                threads.insert(tid, (group_of(comm.trim_end(), tid == pid), ns));
            }
        }
        Ok(CpuSnapshot {
            process_ns,
            threads,
        })
    }

    /// CPU spent since `earlier`. A thread absent from `earlier` is new and
    /// counts in full; one absent from `self` has exited and its share is
    /// left to `transient_ns`.
    pub fn since(&self, earlier: &CpuSnapshot) -> CpuDelta {
        let mut by_group: BTreeMap<Group, u64> = BTreeMap::new();
        for (tid, (group, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |(_, ns)| *ns);
            *by_group.entry(*group).or_default() += ns.saturating_sub(before);
        }
        let process_ns = self.process_ns.saturating_sub(earlier.process_ns);
        let live: u64 = by_group.values().sum();
        CpuDelta {
            process_ns,
            by_group,
            transient_ns: process_ns.saturating_sub(live),
        }
    }
}

/// (resident set in MB, live thread count) of this process.
pub fn memory_and_threads() -> std::io::Result<(f64, u64)> {
    let status = fs::read_to_string("/proc/self/status")?;
    let rss_kb = parse_status_kb(&status, "VmRSS")
        .ok_or_else(|| std::io::Error::other("no VmRSS in /proc/self/status"))?;
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no Threads in /proc/self/status"))?;
    Ok((rss_kb as f64 / 1024.0, threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // comm with a space and a ')' inside; utime=250 stime=50.
        let stat =
            "4242 (t2v bench) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 75 0 1 2 3";
        assert_eq!(parse_stat_cpu_ns(stat), Some(300 * NS_PER_TICK));
        assert_eq!(parse_stat_cpu_ns("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ns("garbage"), None);
    }

    #[test]
    fn schedstat_first_field_is_run_time() {
        assert_eq!(
            parse_schedstat_run_ns("123456789 42 7\n"),
            Some(123_456_789)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("x 1 2"), None);
    }

    #[test]
    fn status_kb_matches_whole_keys_only() {
        let status = "Name:\tx\nVmRSSFoo:\t1 kB\nVmRSS:\t  20480 kB\nThreads:\t75\n";
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmHWM"), None);
    }

    #[test]
    fn threads_are_bucketed_by_truncated_comm() {
        assert_eq!(group_of("t2v-event", false), Group::Event);
        assert_eq!(group_of("t2v-dispatch-65", false), Group::Dispatch);
        assert_eq!(group_of("t2v-worker-1", false), Group::Worker);
        assert_eq!(group_of("t2v-batcher", false), Group::Batcher);
        assert_eq!(group_of("t2v-obs-profile", false), Group::Obs);
        assert_eq!(group_of("t2v-obs-sampler", false), Group::Obs);
        assert_eq!(group_of("bench-client-0", false), Group::Loadgen);
        assert_eq!(group_of("t2v-benchmark", true), Group::Loadgen);
        assert_eq!(group_of("t2v-stackexp", false), Group::Other);
        assert_eq!(group_of("t2v-eventual", false), Group::Other);
    }

    fn snap(process_ns: u64, threads: &[(u64, Group, u64)]) -> CpuSnapshot {
        CpuSnapshot {
            process_ns,
            threads: threads.iter().map(|&(t, g, ns)| (t, (g, ns))).collect(),
        }
    }

    #[test]
    fn delta_charges_new_exited_and_transient_threads_correctly() {
        let a = snap(
            1_000,
            &[
                (1, Group::Loadgen, 100),
                (2, Group::Event, 200),
                (3, Group::Worker, 300),
            ],
        );
        // tid 3 exited, tid 4 is new, 250 ns belong to no live thread.
        let b = snap(
            2_000,
            &[
                (1, Group::Loadgen, 400),
                (2, Group::Event, 350),
                (4, Group::Worker, 300),
            ],
        );
        let d = b.since(&a);
        assert_eq!(d.process_ns, 1_000);
        assert_eq!(d.group(Group::Loadgen), 300);
        assert_eq!(d.group(Group::Event), 150);
        assert_eq!(d.group(Group::Worker), 300);
        assert_eq!(d.group(Group::Batcher), 0);
        assert_eq!(d.transient_ns, 250);
        assert_eq!(d.program_ns(), 700);
    }

    #[test]
    fn live_snapshot_sees_this_process() {
        let s = CpuSnapshot::take().unwrap();
        assert!(s
            .threads
            .values()
            .any(|(g, _)| *g == Group::Loadgen || *g == Group::Other));
        let (rss_mb, threads) = memory_and_threads().unwrap();
        assert!(rss_mb > 0.0 && threads >= 1);
    }
}
