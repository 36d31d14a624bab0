//! The line-delimited JSON wire protocol and its in-process endpoint.
//!
//! One request per line, one response per line, both JSON objects through
//! the in-tree `picos-trace` codec — no external dependencies. The grammar
//! (see also the "Service layer" section of `ARCHITECTURE.md`):
//!
//! ```text
//! request  = open | submit | barrier | advance | drain-events | stats
//!          | scrape | checkpoint | close | shutdown
//! open     = {"cmd":"open","tenant":NAME,"spec":SPEC}
//! submit   = {"cmd":"submit","tenant":NAME,"task":TASK}
//! barrier  = {"cmd":"barrier","tenant":NAME}
//! advance  = {"cmd":"advance","tenant":NAME,"cycle":INT}
//! drain    = {"cmd":"drain-events","tenant":NAME}
//!            -> {"ok":true,"events":[{"at","kind","shard","task","arg"}...]}
//! stats    = {"cmd":"stats","tenant":NAME}
//! scrape   = {"cmd":"scrape"}
//! checkpnt = {"cmd":"checkpoint"} | {"cmd":"checkpoint","tenant":NAME}
//! close    = {"cmd":"close","tenant":NAME}
//! shutdown = {"cmd":"shutdown"}
//!
//! response = {"ok":false,"error":STR}
//!          | {"ok":true, ...command-specific fields...}
//! ```
//!
//! `SPEC` is [`TenantSpec`]'s JSON form and `TASK` is the task-descriptor
//! object shared with the trace format and the session journal
//! ([`picos_trace::task_to_json`]). [`ServeHandle`] executes requests
//! against an in-process [`Service`] — the TCP server is a thin line pump
//! over it, and tests can drive the exact protocol without a socket.

use crate::service::{schedule_digest, TenantSpec};
use crate::service::{Scrape, ServeConfig, ServeError, Service, SubmitOutcome, TenantStats};
use picos_backend::SessionOutput;
use picos_metrics::span::{events_to_json, SpanEvent};
use picos_trace::{json_escape, parse_json, task_from_value, task_to_json, TaskDescriptor, Value};

/// One parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a tenant from a spec.
    Open {
        /// Tenant name.
        tenant: String,
        /// Session recipe.
        spec: TenantSpec,
    },
    /// Offer one task to a tenant.
    Submit {
        /// Tenant name.
        tenant: String,
        /// The task.
        task: TaskDescriptor,
    },
    /// Declare a taskwait barrier.
    Barrier {
        /// Tenant name.
        tenant: String,
    },
    /// Assert no earlier arrivals (open-loop pacing).
    Advance {
        /// Tenant name.
        tenant: String,
        /// Cycle to advance to.
        cycle: u64,
    },
    /// Copy out the lifecycle span events recorded since the previous
    /// drain (tenants opened with `"trace_spans":true`).
    DrainEvents {
        /// Tenant name.
        tenant: String,
    },
    /// Read a tenant's observable state.
    Stats {
        /// Tenant name.
        tenant: String,
    },
    /// Drain the service metrics snapshot.
    Scrape,
    /// Checkpoint one tenant (or, without a tenant, every recoverable
    /// one): persist an engine-state snapshot and truncate the journal to
    /// the post-snapshot tail, so a restarted service recovers by
    /// snapshot restore + tail replay.
    Checkpoint {
        /// Tenant to checkpoint; `None` checkpoints all.
        tenant: Option<String>,
    },
    /// Finish a tenant and return its run summary.
    Close {
        /// Tenant name.
        tenant: String,
    },
    /// Graceful shutdown: stop accepting, finish in-flight steps, flush
    /// journals (the SIGTERM-equivalent).
    Shutdown,
}

impl Request {
    /// Renders the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Open { tenant, spec } => format!(
                "{{\"cmd\":\"open\",\"tenant\":\"{}\",\"spec\":{}}}",
                json_escape(tenant),
                spec.to_json()
            ),
            Request::Submit { tenant, task } => {
                let mut out = format!(
                    "{{\"cmd\":\"submit\",\"tenant\":\"{}\",\"task\":",
                    json_escape(tenant)
                );
                task_to_json(&mut out, task);
                out.push('}');
                out
            }
            Request::Barrier { tenant } => {
                format!(
                    "{{\"cmd\":\"barrier\",\"tenant\":\"{}\"}}",
                    json_escape(tenant)
                )
            }
            Request::Advance { tenant, cycle } => format!(
                "{{\"cmd\":\"advance\",\"tenant\":\"{}\",\"cycle\":{cycle}}}",
                json_escape(tenant)
            ),
            Request::DrainEvents { tenant } => format!(
                "{{\"cmd\":\"drain-events\",\"tenant\":\"{}\"}}",
                json_escape(tenant)
            ),
            Request::Stats { tenant } => {
                format!(
                    "{{\"cmd\":\"stats\",\"tenant\":\"{}\"}}",
                    json_escape(tenant)
                )
            }
            Request::Scrape => "{\"cmd\":\"scrape\"}".to_string(),
            Request::Checkpoint { tenant } => match tenant {
                Some(t) => format!(
                    "{{\"cmd\":\"checkpoint\",\"tenant\":\"{}\"}}",
                    json_escape(t)
                ),
                None => "{\"cmd\":\"checkpoint\"}".to_string(),
            },
            Request::Close { tenant } => {
                format!(
                    "{{\"cmd\":\"close\",\"tenant\":\"{}\"}}",
                    json_escape(tenant)
                )
            }
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_string(),
        }
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an error response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse_json(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let obj = v.as_obj().ok_or("request must be a JSON object")?;
        let cmd = obj
            .get("cmd")
            .and_then(Value::as_string)
            .ok_or("request needs a \"cmd\" string")?;
        let tenant = || -> Result<String, String> {
            obj.get("tenant")
                .and_then(Value::as_string)
                .map(str::to_string)
                .ok_or_else(|| format!("\"{cmd}\" needs a \"tenant\" string"))
        };
        match cmd {
            "open" => {
                let spec = obj.get("spec").ok_or("\"open\" needs a \"spec\" object")?;
                Ok(Request::Open {
                    tenant: tenant()?,
                    spec: TenantSpec::from_value(spec)?,
                })
            }
            "submit" => {
                let task = obj
                    .get("task")
                    .ok_or("\"submit\" needs a \"task\" object")?;
                Ok(Request::Submit {
                    tenant: tenant()?,
                    task: task_from_value(task, 0).map_err(|e| format!("bad task: {e}"))?,
                })
            }
            "barrier" => Ok(Request::Barrier { tenant: tenant()? }),
            "advance" => {
                let cycle = obj
                    .get("cycle")
                    .and_then(Value::as_int)
                    .ok_or("\"advance\" needs an integer \"cycle\"")?;
                Ok(Request::Advance {
                    tenant: tenant()?,
                    cycle,
                })
            }
            "drain-events" => Ok(Request::DrainEvents { tenant: tenant()? }),
            "stats" => Ok(Request::Stats { tenant: tenant()? }),
            "scrape" => Ok(Request::Scrape),
            "checkpoint" => Ok(Request::Checkpoint {
                tenant: obj
                    .get("tenant")
                    .and_then(Value::as_string)
                    .map(str::to_string),
            }),
            "close" => Ok(Request::Close { tenant: tenant()? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// One protocol response, rendered with [`Response::to_line`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; nothing changed beyond what the error says.
    Err(String),
    /// Plain success (open, barrier, advance, shutdown).
    Ok,
    /// Submission verdict.
    Submitted(SubmitOutcome),
    /// Drained lifecycle span events.
    Events(Vec<SpanEvent>),
    /// Tenant state.
    Stats(TenantStats),
    /// Metrics snapshot.
    Scraped(Scrape),
    /// Number of tenants checkpointed.
    Checkpointed(u64),
    /// Run summary of a finished tenant: engine label, task count,
    /// makespan and the schedule digest (bit-exactness check without
    /// shipping the schedule).
    Closed {
        /// Engine label.
        engine: String,
        /// Tasks executed.
        tasks: u64,
        /// Total simulated cycles.
        makespan: u64,
        /// FNV-1a digest of order/start/end.
        digest: u64,
    },
}

impl Response {
    /// Summarizes a finished tenant's output.
    pub fn closed(out: &SessionOutput) -> Response {
        Response::Closed {
            engine: out.report.engine.clone(),
            tasks: out.report.order.len() as u64,
            makespan: out.report.makespan,
            digest: schedule_digest(&out.report),
        }
    }

    /// Renders the response as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Err(e) => format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(e)),
            Response::Ok => "{\"ok\":true}".to_string(),
            Response::Submitted(outcome) => {
                format!("{{\"ok\":true,\"outcome\":\"{}\"}}", outcome.label())
            }
            Response::Events(events) => {
                format!("{{\"ok\":true,\"events\":{}}}", events_to_json(events))
            }
            Response::Stats(s) => format!(
                "{{\"ok\":true,\"stats\":{{\"now\":{},\"in_flight\":{},\"quota\":{},\
                 \"submitted\":{},\"rejected_window\":{},\"rejected_quota\":{},\"steps\":{}}}}}",
                s.now,
                s.in_flight,
                s.quota,
                s.submitted,
                s.rejected_window,
                s.rejected_quota,
                s.steps
            ),
            Response::Scraped(scrape) => {
                format!("{{\"ok\":true,\"scrape\":{}}}", scrape.to_json())
            }
            Response::Checkpointed(n) => {
                format!("{{\"ok\":true,\"checkpointed\":{n}}}")
            }
            Response::Closed {
                engine,
                tasks,
                makespan,
                digest,
            } => format!(
                "{{\"ok\":true,\"engine\":\"{}\",\"tasks\":{tasks},\"makespan\":{makespan},\
                 \"digest\":{digest}}}",
                json_escape(engine)
            ),
        }
    }
}

/// Parses a response line into the generic JSON [`Value`] (clients check
/// `ok` and pick fields; the response set is open-ended by design).
///
/// # Errors
///
/// Returns the codec's error on malformed JSON.
pub fn parse_response(line: &str) -> Result<Value, picos_trace::JsonError> {
    parse_json(line)
}

/// The in-process protocol endpoint: a [`Service`] plus the
/// request-execution logic shared by the TCP server and in-process
/// clients. Tests drive the exact wire semantics without a socket.
#[derive(Debug)]
pub struct ServeHandle {
    service: Service,
    shutdown: bool,
}

impl ServeHandle {
    /// A handle over a fresh (or journal-recovered) service.
    ///
    /// # Errors
    ///
    /// See [`Service::new`].
    pub fn new(cfg: ServeConfig) -> Result<ServeHandle, ServeError> {
        Ok(ServeHandle {
            service: Service::new(cfg)?,
            shutdown: false,
        })
    }

    /// The underlying service (direct typed access).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Mutable access to the underlying service (typed in-process API:
    /// `open`/`submit`/`run_round`/`close`/... without JSON framing).
    pub fn service_mut(&mut self) -> &mut Service {
        &mut self.service
    }

    /// Whether a `shutdown` request has been executed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Executes one typed request against the service.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::Open { tenant, spec } => match self.service.open(tenant, spec) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            },
            Request::Submit { tenant, task } => match self.service.submit(tenant, task) {
                Ok(outcome) => Response::Submitted(outcome),
                Err(e) => Response::Err(e.to_string()),
            },
            Request::Barrier { tenant } => match self.service.barrier(tenant) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            },
            Request::Advance { tenant, cycle } => match self.service.advance_to(tenant, *cycle) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            },
            Request::DrainEvents { tenant } => {
                let mut events = Vec::new();
                match self.service.drain_events(tenant, &mut events) {
                    Ok(()) => Response::Events(events),
                    Err(e) => Response::Err(e.to_string()),
                }
            }
            Request::Stats { tenant } => match self.service.stats(tenant) {
                Ok(stats) => Response::Stats(stats),
                Err(e) => Response::Err(e.to_string()),
            },
            Request::Scrape => Response::Scraped(self.service.scrape()),
            Request::Checkpoint { tenant } => {
                let result = match tenant {
                    Some(t) => self.service.checkpoint(t).map(u64::from),
                    None => self.service.checkpoint_all().map(|n| n as u64),
                };
                match result {
                    Ok(n) => Response::Checkpointed(n),
                    Err(e) => Response::Err(e.to_string()),
                }
            }
            Request::Close { tenant } => match self.service.close(tenant) {
                Ok(out) => Response::closed(&out),
                Err(e) => Response::Err(e.to_string()),
            },
            Request::Shutdown => {
                self.shutdown = true;
                Response::Ok
            }
        }
    }

    /// Executes one protocol line and returns the response line (without
    /// the trailing newline). Malformed lines get an error response, not
    /// a dropped connection.
    pub fn handle_line(&mut self, line: &str) -> String {
        match Request::parse(line) {
            Ok(req) => self.handle(&req).to_line(),
            Err(e) => Response::Err(e).to_line(),
        }
    }
}
