//! `warlockd` — the long-lived WARLOCK advisory server.
//!
//! Loads one or more warehouse descriptions at startup and serves the
//! versioned JSON protocol of [`warlock::service`] over stdio, TCP
//! and/or HTTP, dispatching every request to its named warehouse:
//!
//! ```text
//! warlockd <config-file> --stdio
//! warlockd --warehouse us=us.cfg --warehouse eu=eu.cfg \
//!          --listen 127.0.0.1:7341 --http 127.0.0.1:7342
//! ```
//!
//! - The positional `<config-file>` loads as a warehouse named
//!   `default`; `--warehouse NAME=PATH` (repeatable) loads more. The
//!   first loaded warehouse is the **default route** for unrouted
//!   requests unless `--default-warehouse NAME` picks another.
//! - `--stdio` reads requests from stdin and writes responses to
//!   stdout, one JSON object per line — scriptable from anything that
//!   can spawn a process. This is the default when no transport flag is
//!   given.
//! - `--listen ADDR` accepts any number of concurrent TCP connections,
//!   one thread per connection, speaking the same line protocol. Each
//!   request is evaluated on its connection's thread; that is the
//!   server's only parallelism.
//! - `--http ADDR` serves the same op set as minimal HTTP/1.1
//!   (`POST /v2/<op>`, JSON body in/out — see [`warlock::http`]), and
//!   may be combined with `--listen`. Both network transports run the
//!   same accept loop, [`warlock::http::serve_connections`].
//! - `--max-request-bytes N` bounds each request line / HTTP body
//!   (default 16 MiB): over-limit requests are answered with a typed
//!   `bad_request` error instead of buffering without bound, and the
//!   connection stays usable.
//!
//! The advisor's knobs (`max_candidates`, `chunk_size`, …) come from
//! each warehouse's configuration file alone, so what a wire `reload`
//! re-reads is exactly what was served before it. A `parallelism` key
//! is accepted there but has no effect.
//!
//! A `{"op":"shutdown"}` request over *any* transport stops the whole
//! server after the response is flushed (as does EOF on stdin in stdio
//! mode): the shared [`ShutdownSignal`] wakes every accept loop
//! deterministically via self-connect, so the process exits promptly
//! instead of blocking in `accept` until a next client arrives. Exit
//! codes: 0 on clean shutdown, 1 on startup failure, 2 on usage errors.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use warlock::http::{serve_connections, serve_http, ShutdownSignal};
use warlock::registry::Registry;
use warlock::service::{Service, ServiceReply};
use warlock::Warlock;

const USAGE: &str = "usage: warlockd [<config-file>] [--warehouse NAME=PATH]... \
[--default-warehouse NAME] [--stdio | --listen ADDR] [--http ADDR] [--max-request-bytes N]";

/// The default per-request size bound: far above any real advisory
/// request, far below anything that could stress the server's memory.
const DEFAULT_MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

struct Options {
    /// `(name, path)` per warehouse, in load order; a positional
    /// `<config-file>` is the warehouse named `default`.
    warehouses: Vec<(String, String)>,
    /// The default route; the first loaded warehouse when absent.
    default_warehouse: Option<String>,
    listen: Option<String>,
    http: Option<String>,
    stdio: bool,
    max_request_bytes: usize,
}

fn parse_args(mut args: Vec<String>) -> Result<Options, String> {
    /// The (already validated to exist) value of `flag`, parsed.
    fn value_of<T: std::str::FromStr>(
        args: &mut Vec<String>,
        flag: &str,
        what: &str,
    ) -> Result<T, String> {
        if args.is_empty() {
            return Err(format!("`{flag}` needs {what}"));
        }
        let value = args.remove(0);
        value
            .parse::<T>()
            .map_err(|_| format!("invalid {what} `{value}` for `{flag}`"))
    }
    let mut warehouses: Vec<(String, String)> = Vec::new();
    let mut default_warehouse = None;
    let mut listen = None;
    let mut http = None;
    let mut stdio = false;
    let mut max_request_bytes = DEFAULT_MAX_REQUEST_BYTES;
    let mut positional = Vec::new();
    while !args.is_empty() {
        let arg = args.remove(0);
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--listen" => listen = Some(value_of::<String>(&mut args, &arg, "an address")?),
            "--http" => http = Some(value_of::<String>(&mut args, &arg, "an address")?),
            "--warehouse" => {
                let spec = value_of::<String>(&mut args, &arg, "a NAME=PATH pair")?;
                let (name, path) = spec
                    .split_once('=')
                    .filter(|(n, p)| !n.is_empty() && !p.is_empty())
                    .ok_or_else(|| format!("`--warehouse` wants NAME=PATH, got `{spec}`"))?;
                warehouses.push((name.to_owned(), path.to_owned()));
            }
            "--default-warehouse" => {
                default_warehouse = Some(value_of::<String>(&mut args, &arg, "a warehouse name")?);
            }
            "--max-request-bytes" => {
                max_request_bytes = value_of::<usize>(&mut args, &arg, "a byte count")?;
                if max_request_bytes == 0 {
                    return Err("`--max-request-bytes` must be positive".into());
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            _ => positional.push(arg),
        }
    }
    if stdio && (listen.is_some() || http.is_some()) {
        return Err("`--stdio` and `--listen`/`--http` are mutually exclusive".into());
    }
    let mut positional = positional.into_iter();
    if let Some(config_path) = positional.next() {
        warehouses.insert(0, ("default".to_owned(), config_path));
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    if warehouses.is_empty() {
        return Err("missing <config-file> (or --warehouse NAME=PATH)".into());
    }
    for (i, (name, _)) in warehouses.iter().enumerate() {
        if warehouses[..i].iter().any(|(n, _)| n == name) {
            return Err(format!("warehouse `{name}` is given twice"));
        }
    }
    if let Some(name) = &default_warehouse {
        if !warehouses.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "`--default-warehouse {name}` names no loaded warehouse"
            ));
        }
    }
    Ok(Options {
        warehouses,
        default_warehouse,
        listen,
        http,
        stdio,
        max_request_bytes,
    })
}

/// One bounded line read: a complete line (≤ limit bytes of content),
/// end of input, or an over-limit line (drained so the stream stays
/// aligned on the next request).
enum LineRead {
    Line(String),
    Eof,
    TooLong,
}

fn read_bounded_line<R: BufRead>(input: &mut R, limit: usize) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    input
        .by_ref()
        .take(limit as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(LineRead::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() > limit {
        // The cap cut the line off mid-way: discard the rest of it so
        // the next read starts on the next request, not on this line's
        // tail masquerading as one.
        drain_line(input)?;
        return Ok(LineRead::TooLong);
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()))
}

/// Discards input until (and including) the next newline, in O(1)
/// memory.
fn drain_line<R: BufRead>(input: &mut R) -> std::io::Result<()> {
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                input.consume(len);
            }
        }
    }
}

/// Serves one request stream: reads JSON lines from `input`, writes one
/// response line per request to `output`. Returns `true` when the peer
/// asked the whole server to shut down.
fn serve<R: BufRead, W: Write>(
    service: &Service,
    mut input: R,
    mut output: W,
    max_request_bytes: usize,
) -> bool {
    loop {
        let reply = match read_bounded_line(&mut input, max_request_bytes) {
            Err(_) => return false, // peer vanished mid-line
            Ok(LineRead::Eof) => return false,
            Ok(LineRead::TooLong) => ServiceReply::error(
                "bad_request",
                &format!("request line exceeds the {max_request_bytes}-byte limit"),
            ),
            Ok(LineRead::Line(line)) if line.trim().is_empty() => continue,
            Ok(LineRead::Line(line)) => service.handle_line(&line),
        };
        if writeln!(output, "{}", reply.line)
            .and_then(|_| output.flush())
            .is_err()
        {
            return false;
        }
        if reply.shutdown {
            return true;
        }
    }
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("warlockd: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let default = options
        .default_warehouse
        .clone()
        .unwrap_or_else(|| options.warehouses[0].0.clone());
    let registry = Arc::new(Registry::new(default));
    for (name, path) in &options.warehouses {
        let session = match Warlock::from_config_path(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warlockd: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = registry.insert(name.clone(), Some(path.clone()), session) {
            eprintln!("warlockd: {e}");
            return ExitCode::FAILURE;
        }
    }
    let service = Arc::new(Service::with_registry(registry));

    if options.stdio || (options.listen.is_none() && options.http.is_none()) {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve(
            &service,
            stdin.lock(),
            stdout.lock(),
            options.max_request_bytes,
        );
        return ExitCode::SUCCESS;
    }

    // Bind every requested transport before serving on any, so address
    // conflicts fail the whole startup instead of half of it.
    let bind = |addr: &str| match TcpListener::bind(addr) {
        Ok(listener) => Ok(listener),
        Err(e) => {
            eprintln!("warlockd: cannot listen on {addr}: {e}");
            Err(ExitCode::FAILURE)
        }
    };
    let tcp = match options.listen.as_deref().map(bind).transpose() {
        Ok(l) => l,
        Err(code) => return code,
    };
    let http = match options.http.as_deref().map(bind).transpose() {
        Ok(l) => l,
        Err(code) => return code,
    };

    let shutdown = Arc::new(ShutdownSignal::new());
    let max = options.max_request_bytes;
    let mut transports = Vec::new();
    if let Some(listener) = http {
        announce("http", &listener);
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        transports.push(std::thread::spawn(move || {
            serve_http(service, listener, max, shutdown)
        }));
    }
    if let Some(listener) = tcp {
        announce("listening", &listener);
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        transports.push(std::thread::spawn(move || {
            serve_connections(listener, shutdown, move |stream| match stream.try_clone() {
                Ok(reader) => serve(&service, BufReader::new(reader), stream, max),
                Err(_) => false,
            })
        }));
    }
    for transport in transports {
        let _ = transport.join();
    }
    ExitCode::SUCCESS
}

/// Announces a bound transport on stderr as `warlockd: LABEL on ADDR`.
fn announce(label: &str, listener: &TcpListener) {
    eprintln!(
        "warlockd: {label} on {}",
        listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into())
    );
}
