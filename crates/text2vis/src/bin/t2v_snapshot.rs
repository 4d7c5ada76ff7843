//! `t2v-snapshot` — build, inspect, and verify persistent library snapshots.
//!
//! ```text
//! t2v-snapshot build   [--corpus tiny:7|paper:N] [--out PATH]
//! t2v-snapshot inspect PATH
//! t2v-snapshot verify  PATH [--corpus tiny:7|paper:N]
//! t2v-snapshot catalog DIR
//! ```
//!
//! * `build` generates the corpus, builds the embedding library, and writes
//!   the snapshot `t2v-serve` loads with `library_snapshot=PATH`.
//! * `inspect` prints the manifest (version, fingerprints, section table
//!   with human-readable sizes) after validating framing and checksums —
//!   no payload reconstruction.
//! * `verify` fully decodes the snapshot and re-derives both fingerprints
//!   from the reconstructed state; with `--corpus` it additionally proves
//!   the snapshot matches that corpus. Exit status 0 only when everything
//!   holds.
//! * `catalog` scans a directory and lists every valid snapshot with its
//!   fingerprints — and, for files following the tenant naming convention
//!   (`{id}@{profile}-{seed}.t2vsnap`), the tenant they declare to a
//!   `tenant_dir=` boot of `t2v-serve`.
//!
//! Every failure is a one-line diagnostic + non-zero exit, never a panic.
//! An argument a subcommand does not take exits 2 and names it.

use std::time::Instant;
use text2vis::corpus::generate;
use text2vis::embed::EmbedConfig;
use text2vis::store::{self, LibrarySource, Manifest};
use text2vis::tenant::parse_snapshot_filename;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    match args[0].as_str() {
        "build" => build(&args[1..]),
        "inspect" => inspect(&args[1..]),
        "verify" => verify(&args[1..]),
        "catalog" => catalog(&args[1..]),
        other => die(&format!(
            "unknown subcommand '{other}' (build|inspect|verify|catalog)"
        )),
    }
}

/// Each subcommand's synopsis, as `--help` prints it and a rejected
/// argument quotes it.
const BUILD: &str = "build [--corpus tiny:7|paper:N] [--out PATH]";
const INSPECT: &str = "inspect PATH";
const VERIFY: &str = "verify PATH [--corpus tiny:7|paper:N]";
const CATALOG: &str = "catalog DIR";

fn usage() {
    println!("usage:");
    for synopsis in [BUILD, INSPECT, VERIFY, CATALOG] {
        let (cmd, rest) = synopsis.split_once(' ').unwrap_or((synopsis, ""));
        println!("  t2v-snapshot {cmd:<7} {rest}");
    }
}

fn die(message: &str) -> ! {
    eprintln!("t2v-snapshot: {message}");
    std::process::exit(2)
}

/// One subcommand's arguments: its bare operand (if it takes one) and
/// the `--flag VALUE` pairs it was given.
struct Parsed<'a> {
    operand: Option<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl Parsed<'_> {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Parse a subcommand's arguments against its `synopsis`: `operand` names
/// the one bare argument it requires (if any), `flags` the `--flag VALUE`
/// pairs it accepts. Anything else exits 2 with one line naming it.
fn parse<'a>(
    args: &'a [String],
    synopsis: &str,
    operand: Option<&str>,
    flags: &[&str],
) -> Parsed<'a> {
    let cmd = synopsis.split_whitespace().next().unwrap_or_default();
    let mut parsed = Parsed {
        operand: None,
        flags: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.contains(&arg.as_str()) {
            let Some(value) = it.next() else {
                die(&format!("{arg} needs a value"))
            };
            parsed.flags.push((arg, value));
        } else if operand.is_some() && parsed.operand.is_none() && !arg.starts_with('-') {
            parsed.operand = Some(arg);
        } else {
            die(&format!(
                "{cmd}: unknown argument `{arg}` (usage: t2v-snapshot {synopsis})"
            ))
        }
    }
    if let (Some(what), None) = (operand, parsed.operand) {
        die(&format!("{cmd} needs {what}"));
    }
    parsed
}

/// Parse `tiny:SEED` / `paper:SEED` using the serve config's parser so the
/// CLI and the server accept exactly the same spellings.
fn corpus_profile(spec: &str) -> text2vis::serve::CorpusProfile {
    let mut probe = text2vis::serve::ServeConfig::default();
    if let Err(e) = probe.set("corpus", spec) {
        die(&e.message);
    }
    probe.corpus
}

fn build(args: &[String]) {
    let args = parse(args, BUILD, None, &["--corpus", "--out"]);
    let spec = args.flag("--corpus").unwrap_or("tiny:7");
    let out = args.flag("--out").unwrap_or("library.t2vsnap");
    let profile = corpus_profile(spec);

    eprintln!("t2v-snapshot: generating the {spec} corpus...");
    let corpus = generate(&profile.corpus_config());
    eprintln!(
        "t2v-snapshot: building the embedding library over {} training pairs...",
        corpus.train.len()
    );
    let t0 = Instant::now();
    let resolved = match LibrarySource::Build.resolve(&corpus, &EmbedConfig::default()) {
        Ok(r) => r,
        Err(e) => die(&e.to_string()),
    };
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let manifest = match store::save(out, &resolved.library, &resolved.embedder) {
        Ok(m) => m,
        Err(e) => die(&e.to_string()),
    };
    println!(
        "wrote {out}: {} entries, {} dims, {} bytes (library built in {build_ms:.0} ms)",
        manifest.entries, manifest.dims, manifest.file_len
    );
    print_manifest(&manifest);
}

fn inspect(args: &[String]) {
    let path = parse(args, INSPECT, Some("a snapshot path"), &[]).operand;
    match store::inspect(path.unwrap_or_default()) {
        Ok(manifest) => print_manifest(&manifest),
        Err(e) => die(&e.to_string()),
    }
}

fn verify(args: &[String]) {
    let args = parse(args, VERIFY, Some("a snapshot path"), &["--corpus"]);
    let path = args.operand.unwrap_or_default();
    let t0 = Instant::now();
    let manifest = match store::verify(path) {
        Ok(m) => m,
        Err(e) => die(&e.to_string()),
    };
    // Optional provenance check against a freshly generated corpus.
    if let Some(spec) = args.flag("--corpus") {
        let corpus = generate(&corpus_profile(spec).corpus_config());
        let expected = store::corpus_fingerprint(&corpus);
        if manifest.corpus_fingerprint != expected {
            die(&format!(
                "snapshot was not built from the {spec} corpus: expected {expected:#018x}, \
                 snapshot has {:#018x}",
                manifest.corpus_fingerprint
            ));
        }
        let expected_embedder = store::expected_embedder_fingerprint(&EmbedConfig::default());
        if manifest.embedder_fingerprint != expected_embedder {
            die(&format!(
                "snapshot embedder differs from the default model: expected \
                 {expected_embedder:#018x}, snapshot has {:#018x}",
                manifest.embedder_fingerprint
            ));
        }
    }
    println!(
        "ok: {path} verified in {:.0} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
    print_manifest(&manifest);
}

/// `1234567` → `1.2 MiB` — section sizes are for humans; exact byte counts
/// stay in the `bytes` column.
fn human_size(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// One table: provenance rows (the library fingerprint first — it doubles
/// as the corpus fingerprint by construction) followed by the section
/// rows with human-readable sizes.
fn print_manifest(m: &Manifest) {
    println!(
        "format v{}, {} entries, {} dims, {} ({} bytes)",
        m.format_version,
        m.entries,
        m.dims,
        human_size(m.file_len),
        m.file_len
    );
    println!(
        "  {:<22} {:>10} {:>12}  {:>18}",
        "row", "offset", "size", "value/checksum"
    );
    println!(
        "  {:<22} {:>10} {:>12}  {:#018x}",
        "library fingerprint", "-", "-", m.corpus_fingerprint
    );
    println!(
        "  {:<22} {:>10} {:>12}  {:#018x}",
        "embedder fingerprint", "-", "-", m.embedder_fingerprint
    );
    for s in &m.sections {
        println!(
            "  {:<22} {:>10} {:>12}  {:#018x}",
            format!("section {}", s.kind.name()),
            s.offset,
            format!("{} ", human_size(s.len)),
            s.checksum
        );
    }
}

/// `catalog DIR` — list every snapshot under a directory: validity,
/// fingerprint, size, and (for conforming names) the tenant it declares.
fn catalog(args: &[String]) {
    let dir = parse(args, CATALOG, Some("a directory"), &[])
        .operand
        .unwrap_or_default();
    let entries = match store::scan_snapshots(dir) {
        Ok(e) => e,
        Err(e) => die(&format!("cannot scan {dir}: {e}")),
    };
    if entries.is_empty() {
        println!("no *.t2vsnap files under {dir}");
        return;
    }
    let mut invalid = 0usize;
    println!(
        "{:<34} {:>8} {:>10}  {:<18}  tenant",
        "snapshot", "entries", "size", "fingerprint"
    );
    for entry in &entries {
        let tenant = match parse_snapshot_filename(entry.file_name()) {
            Some(spec) => format!("{} ({})", spec.id, spec.corpus.label()),
            None => "-".to_string(),
        };
        match &entry.manifest {
            Ok(m) => println!(
                "{:<34} {:>8} {:>10}  {:#018x}  {tenant}",
                entry.file_name(),
                m.entries,
                human_size(m.file_len),
                m.corpus_fingerprint
            ),
            Err(e) => {
                invalid += 1;
                println!("{:<34} INVALID: {e}", entry.file_name());
            }
        }
    }
    println!(
        "{} snapshot(s), {} valid, {} invalid",
        entries.len(),
        entries.len() - invalid,
        invalid
    );
    if invalid > 0 {
        std::process::exit(1);
    }
}
