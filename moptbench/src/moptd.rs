//! Spawning, talking to, and stopping the release `moptd --listen`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mopt_service::{Request, Response};

/// How `moptd` is started.
#[derive(Debug, Clone)]
pub struct ServerOptions<'a> {
    /// `--db DIR`; `None` starts it without a schedule database.
    pub db: Option<&'a Path>,
    /// `--capacity N` (schedule-cache entries).
    pub capacity: usize,
    /// `--workers N`.
    pub workers: usize,
}

/// A running `moptd --listen` on a fresh loopback port. Dropping it kills
/// the process; [`stop`](Self::stop) drains it with `SIGTERM` instead.
#[derive(Debug)]
pub struct Moptd {
    child: Child,
    port: u16,
    log: std::path::PathBuf,
}

/// A port no other socket holds right now, from the kernel's ephemeral
/// range. A fresh one per server, so a stale `moptd` elsewhere is never
/// measured by mistake.
fn free_port() -> Result<u16, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot reserve a port: {e}"))?;
    listener.local_addr().map(|a| a.port()).map_err(|e| e.to_string())
}

impl Moptd {
    /// Start `bin` and wait until it answers `Ping` on its port. Its stderr
    /// goes to `log`.
    pub fn spawn(bin: &Path, options: &ServerOptions, log: &Path) -> Result<Self, String> {
        let port = free_port()?;
        let mut command = Command::new(bin);
        command
            .arg("--listen")
            .arg(format!("127.0.0.1:{port}"))
            .arg("--capacity")
            .arg(options.capacity.to_string())
            .arg("--workers")
            .arg(options.workers.to_string());
        if let Some(db) = options.db {
            command.arg("--db").arg(db);
        }
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        // SAFETY: the hook runs in the forked child before exec and only
        // calls prctl(2), which is async-signal-safe and takes no pointers.
        // It makes the kernel kill moptd if the benchmark dies first, so a
        // killed run never leaves a server behind.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL as u64) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Moptd { child, port, log: log.to_path_buf() };
        server.wait_ready()?;
        Ok(server)
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "moptd exited during start-up ({status}): {}",
                    self.log_tail()
                ));
            }
            if let Ok(mut conn) = self.connect() {
                return match conn.call("\"Ping\"")? {
                    reply if reply.starts_with("{\"Pong\"") => Ok(()),
                    reply => Err(format!("unexpected Ping reply: {reply}")),
                };
            }
            if Instant::now() > deadline {
                return Err(format!("moptd not ready after 20 s: {}", self.log_tail()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The loopback port it listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Its process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Open a new client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.port)
    }

    /// Peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }

    /// Send `SIGTERM` and wait for the drain. A non-zero exit, or no exit
    /// within `grace`, is an error (a hung drain is a failure).
    pub fn stop(mut self, grace: Duration) -> Result<(), String> {
        let pid = i32::try_from(self.pid()).map_err(|e| e.to_string())?;
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // ours; `pid` is our own still-unreaped child, so it cannot name
        // another process.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err(format!("kill(SIGTERM) failed: {}", std::io::Error::last_os_error()));
        }
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    return Err(format!("moptd exited with {status}: {}", self.log_tail()))
                }
                None if Instant::now() > deadline => {
                    return Err(format!("moptd did not drain within {grace:?} of SIGTERM"))
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Moptd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// One JSON-lines client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect to `127.0.0.1:port`.
    pub fn open(port: u16) -> Result<Self, String> {
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Send one request line (without its newline) and read the reply line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line.as_bytes())?;
        self.read_reply()
    }

    /// Write raw request bytes (one or more newline-terminated lines, or a
    /// single line without its newline).
    pub fn send(&mut self, line: &[u8]) -> Result<(), String> {
        self.stream.write_all(line).map_err(|e| format!("send failed: {e}"))?;
        if !line.ends_with(b"\n") {
            self.stream.write_all(b"\n").map_err(|e| format!("send failed: {e}"))?;
        }
        Ok(())
    }

    /// Read the next reply line, without its newline.
    pub fn read_reply(&mut self) -> Result<String, String> {
        let mut reply = String::new();
        self.read_reply_into(&mut reply)?;
        Ok(reply)
    }

    /// Read the next reply line into `buf` (cleared first).
    pub fn read_reply_into(&mut self, buf: &mut String) -> Result<(), String> {
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Err("connection closed by moptd".into()),
            Ok(_) => {
                if buf.ends_with('\n') {
                    buf.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Send a typed request and parse the typed reply. An `Error` reply is
    /// returned as `Err`.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
        let reply = self.call(&line)?;
        match serde_json::from_str::<Response>(&reply) {
            Ok(Response::Error { message }) => Err(format!("moptd error: {message}")),
            Ok(response) => Ok(response),
            Err(e) => Err(format!("unparseable reply ({e}): {}", truncate(&reply))),
        }
    }
}

/// First 200 characters of a reply, for error messages.
pub fn truncate(text: &str) -> String {
    text.chars().take(200).collect()
}
