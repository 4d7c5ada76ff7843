//! Where a number came from: the commit and whether the tree was clean, the
//! seed, the machine, the toolchain and the measurement protocol.

use std::process::Command;
use t2v_engine::Json;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next().unwrap_or("").trim().to_string())
}

/// `git` confined to the current directory: the driver's checkout is not a
/// repository, and git must not wander up into whatever holds it.
fn git(args: &[&str]) -> Command {
    let mut cmd = Command::new("git");
    cmd.args(args);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(|d| d.parent())
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd
}

/// Commit and cleanliness of the tree the benchmark runs from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    /// Not a git work tree (the driver's checkout), or no `git`.
    Unknown,
    At {
        commit: String,
        dirty: bool,
    },
}

impl Tree {
    pub fn read() -> Tree {
        let Some(commit) = first_line(&mut git(&["rev-parse", "HEAD"])).filter(|c| !c.is_empty())
        else {
            return Tree::Unknown;
        };
        let dirty = git(&["status", "--porcelain"])
            .output()
            .map(|o| !o.status.success() || !o.stdout.is_empty())
            .unwrap_or(true);
        Tree::At { commit, dirty }
    }

    pub fn is_dirty(&self) -> bool {
        matches!(self, Tree::At { dirty: true, .. })
    }
}

/// The stamp carried by every output. `windows` is the measured phase's
/// window count and length in seconds.
pub fn stamp(tree: &Tree, seed: u64, nproc: usize, seconds: u64, windows: (usize, f64)) -> Json {
    let (commit, dirty) = match tree {
        Tree::Unknown => (Json::str("unknown"), Json::Null),
        Tree::At { commit, dirty } => (Json::str(commit.as_str()), Json::Bool(*dirty)),
    };
    Json::obj([
        ("commit", commit),
        ("dirty", dirty),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "t2v_threads_env",
            std::env::var("T2V_THREADS").map_or(Json::Null, Json::str),
        ),
        (
            "t2v_threads",
            Json::Num(t2v_parallel::thread_count() as f64),
        ),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or(Json::Null, |k| Json::str(k.trim())),
        ),
        (
            "rustc",
            first_line(Command::new("rustc").arg("--version")).map_or(Json::Null, Json::str),
        ),
        ("seconds", Json::Num(seconds as f64)),
        ("window_count", Json::Num(windows.0 as f64)),
        ("window_seconds", Json::Num(windows.1)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_everything_a_number_needs_to_be_reproduced() {
        let tree = Tree::At {
            commit: "0d0b2f4".to_string(),
            dirty: true,
        };
        assert!(tree.is_dirty() && !Tree::Unknown.is_dirty());
        let s = stamp(&tree, 7, 2, 15, (3, 5.0));
        for key in [
            "commit",
            "dirty",
            "seed",
            "nproc",
            "t2v_threads_env",
            "t2v_threads",
            "kernel",
            "rustc",
            "seconds",
            "window_count",
            "window_seconds",
        ] {
            assert!(s.get(key).is_some(), "{key}");
        }
        assert_eq!(s.get("dirty"), Some(&Json::Bool(true)));
        let unknown = stamp(&Tree::Unknown, 7, 2, 15, (3, 5.0));
        assert_eq!(
            unknown.get("commit").and_then(Json::as_str),
            Some("unknown")
        );
        assert_eq!(unknown.get("dirty"), Some(&Json::Null));
    }
}
