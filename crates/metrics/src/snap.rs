//! Snapshot save/load for the telemetry types.
//!
//! Telemetry is part of a session's dynamic state: restore==continuous
//! must hold for timelines and span logs too, so a mid-run snapshot
//! carries every sample emitted so far *and* the sampler's cursor (next
//! boundary, delta baselines). Encoding follows the positional
//! [`Enc`]/[`Dec`] convention of `picos_trace::snap`.

use crate::span::{SpanEvent, SpanKind, SpanLog};
use crate::{SeriesKind, SeriesSpec, Timeline, WindowSampler};
use picos_trace::snap::{Dec, Enc, SnapError};
use picos_trace::Value;

impl Timeline {
    /// Serializes the full timeline (series specs and all samples).
    pub fn save_state(&self) -> Value {
        let mut e = Enc::new();
        e.u64(self.window)
            .seq(&self.series, |e, s| {
                e.str(&s.name).bool(s.kind == SeriesKind::Delta);
            })
            .u64s(self.starts.iter().copied())
            .u64s(self.ends.iter().copied())
            .u64s(self.values.iter().copied());
        e.done()
    }

    /// Rebuilds a timeline serialized by [`Timeline::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record.
    pub fn load_state(v: &Value) -> Result<Timeline, SnapError> {
        let mut d = Dec::new(v, "timeline")?;
        let window = d.u64()?;
        let series = d.seq(|d| {
            let name = d.str()?.to_string();
            let delta = d.bool()?;
            Ok(SeriesSpec {
                name,
                kind: if delta {
                    SeriesKind::Delta
                } else {
                    SeriesKind::Gauge
                },
            })
        })?;
        let starts = d.u64s()?;
        let ends = d.u64s()?;
        let values = d.u64s()?;
        if window == 0 {
            return Err(SnapError::new("timeline: zero window"));
        }
        if starts.len() != ends.len() || values.len() != starts.len() * series.len() {
            return Err(SnapError::new("timeline: sample table shape mismatch"));
        }
        Ok(Timeline {
            window,
            series,
            starts,
            ends,
            values,
        })
    }
}

impl WindowSampler {
    /// Serializes the sampler mid-run: the samples emitted so far plus the
    /// cursor state a continuation needs (next boundary, delta baselines).
    pub fn save_state(&self) -> Value {
        let mut e = Enc::new();
        e.u64(self.next)
            .val(self.timeline.save_state())
            .u64s(self.last.iter().copied());
        e.done()
    }

    /// Rebuilds a sampler serialized by [`WindowSampler::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record.
    pub fn load_state(v: &Value) -> Result<WindowSampler, SnapError> {
        let mut d = Dec::new(v, "sampler")?;
        let next = d.u64()?;
        let timeline = Timeline::load_state(d.val()?)?;
        let last = d.u64s()?;
        let n = timeline.series.len();
        if last.len() != n {
            return Err(SnapError::new("sampler: delta baseline shape mismatch"));
        }
        Ok(WindowSampler {
            window: timeline.window,
            next,
            timeline,
            last,
            scratch: vec![0; n],
            row: vec![0; n],
        })
    }
}

impl SpanLog {
    /// Serializes the drain cursor and the recorded events.
    pub fn save_state(&self) -> Value {
        let mut e = Enc::new();
        e.usize(self.drained).seq(self.events(), |e, ev| {
            e.u64(ev.at)
                .u64(ev.kind as u8 as u64)
                .u64(ev.shard as u64)
                .u32(ev.task)
                .u32(ev.arg);
        });
        e.done()
    }

    /// Rebuilds a log serialized by [`SpanLog::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on a malformed record, an unknown event kind
    /// or a drain cursor past the last event.
    pub fn load_state(v: &Value) -> Result<SpanLog, SnapError> {
        let mut d = Dec::new(v, "spans")?;
        let drained = d.usize()?;
        let events = d.seq(|d| {
            let at = d.u64()?;
            let kind = span_kind(d.u64()?)?;
            let shard = d.u16()?;
            let task = d.u32()?;
            let arg = d.u32()?;
            Ok(SpanEvent {
                at,
                kind,
                shard,
                task,
                arg,
            })
        })?;
        if drained > events.len() {
            return Err(SnapError::new("spans: drain cursor past the last event"));
        }
        Ok(SpanLog { events, drained })
    }
}

fn span_kind(code: u64) -> Result<SpanKind, SnapError> {
    Ok(match code {
        0 => SpanKind::Submitted,
        1 => SpanKind::DepsRegistered,
        2 => SpanKind::LastDepReleased,
        3 => SpanKind::Ready,
        4 => SpanKind::Dispatched,
        5 => SpanKind::Started,
        6 => SpanKind::Finished,
        7 => SpanKind::MsgSend,
        8 => SpanKind::MsgDeliver,
        9 => SpanKind::MsgRetry,
        10 => SpanKind::Fault,
        other => return Err(SnapError::new(format!("spans: unknown kind {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeriesSpec;

    #[test]
    fn sampler_roundtrip_continues_identically() {
        let series = vec![SeriesSpec::gauge("occ"), SeriesSpec::delta("busy")];
        let mut a = WindowSampler::new(10, series.clone());
        a.advance(25, |v| {
            v[0] = 3;
            v[1] = 17;
        });

        let mut b = WindowSampler::load_state(&a.save_state()).unwrap();
        // Drive both through the same tail; the finished timelines must be
        // bit-equal (restore==continuous for telemetry).
        let drive = |s: &mut WindowSampler| {
            s.advance(41, |v| {
                v[0] = 5;
                v[1] = 23;
            });
        };
        drive(&mut a);
        drive(&mut b);
        let ta = a.finish(47, |v| {
            v[0] = 1;
            v[1] = 30;
        });
        let tb = b.finish(47, |v| {
            v[0] = 1;
            v[1] = 30;
        });
        assert_eq!(ta, tb);
        assert_eq!(tb.column("busy").unwrap().iter().sum::<u64>(), 30);
    }

    #[test]
    fn span_log_roundtrips_with_its_drain_cursor() {
        let mut log = SpanLog::new();
        log.record(SpanKind::Submitted, 0, 1, 7, 0);
        log.drain_new(&mut Vec::new());
        log.record(SpanKind::MsgSend, 9, 2, u32::MAX, 3);
        let mut back = SpanLog::load_state(&log.save_state()).unwrap();
        assert_eq!(log, back);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        log.drain_new(&mut a);
        back.drain_new(&mut b);
        assert_eq!(a, b, "the restored log resumes draining where it stopped");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn timeline_shape_mismatch_rejected() {
        let mut tl = Timeline::new(5, vec![SeriesSpec::gauge("a")]);
        tl.push_sample(0, 5, &[1]);
        let mut v = tl.save_state();
        // Corrupt the values column length.
        if let Value::Arr(items) = &mut v {
            items[4] = Value::Arr(vec![]);
        }
        assert!(Timeline::load_state(&v).is_err());
    }
}
