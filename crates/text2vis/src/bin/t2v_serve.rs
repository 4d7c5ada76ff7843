//! `t2v-serve` — run the translation service from the command line.
//!
//! ```text
//! t2v-serve [--config PATH] [key=value ...]
//! ```
//!
//! Configuration precedence: defaults < `--config` file < `T2V_SERVE_*`
//! environment < trailing `key=value` arguments. `t2v-serve --help` prints
//! the knob table (key, default, summary) that DESIGN.md §7 embeds.

use text2vis::serve::{config::knob_table, serve, ServeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: t2v-serve [--config PATH] [key=value ...]\n");
        print!("{}", knob_table());
        println!(
            "\nenvironment: T2V_SERVE_<KEY> overrides the file; key=value args override both."
        );
        return;
    }

    let config_path = args.iter().position(|a| a == "--config").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| die("--config needs a path"))
    });
    let mut config = ServeConfig::load(config_path.as_deref()).unwrap_or_else(|e| die(&e.message));

    let mut skip = false;
    for arg in args.iter() {
        if skip {
            skip = false;
            continue;
        }
        if arg == "--config" {
            skip = true;
            continue;
        }
        let Some((key, value)) = arg.split_once('=') else {
            die(&format!(
                "unrecognised argument '{arg}' (expected key=value)"
            ));
        };
        config
            .set(key.trim(), value.trim())
            .unwrap_or_else(|e| die(&e.message));
    }
    // Environment validation runs *before* anything expensive: a
    // snapshot_save path whose parent does not exist, or a missing
    // tenant_dir, dies here in milliseconds — not after the library build
    // finally tries to use it.
    config.validate().unwrap_or_else(|e| die(&e.message));

    eprintln!(
        "t2v-serve: preparing backends [{}] over the {:?} corpus ({} workers, queue {} per four workers, cache {} entries/{} shards/ttl {}s, library {})...",
        config.backends,
        config.corpus,
        config.effective_workers(),
        config.queue_capacity,
        config.cache_capacity,
        config.effective_cache_shards(),
        config.cache_ttl_secs,
        if config.library_snapshot.is_empty() {
            "build".to_string()
        } else {
            format!("snapshot {}", config.library_snapshot)
        },
    );
    // Startup failures — unparseable knobs above, a corrupt or mismatched
    // library snapshot, an unbindable address — all exit through `die`:
    // one-line diagnostic, non-zero status, no panic/backtrace noise.
    let server = serve(config).unwrap_or_else(|e| die(&e.to_string()));
    eprintln!(
        "t2v-serve: serving the {} library ({}, fingerprint {:#018x}) on http://{} (POST /v1/translate, POST /v1/translate/batch, GET /v1/backends, /v1/t/{{tenant}}/{{translate,translate/batch,backends}}, POST /v1/admin/snapshot, GET /v1/admin/{{status,tsdb,alerts,profile,tenants}}, GET /v1/admin/trace/{{recent,ID}}, POST /v1/admin/tenants/attach, DELETE /v1/admin/tenants/detach, GET /healthz, GET /metrics)",
        server.state().gred.library().len(),
        server.state().default_tenant.library_provenance.label(),
        server.state().default_tenant.library_fingerprint,
        server.addr()
    );
    let tenants = server.state().tenants();
    eprintln!(
        "t2v-serve: {} tenant(s): {}",
        tenants.len(),
        tenants
            .iter()
            .map(|t| format!(
                "{} ({}, {}, {} entries)",
                t.id,
                t.corpus_label,
                t.library_provenance.label(),
                t.gred.library().len()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

fn die(message: &str) -> ! {
    eprintln!("t2v-serve: {message}");
    std::process::exit(2)
}
