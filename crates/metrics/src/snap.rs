//! Snapshot codecs for the telemetry types.
//!
//! Telemetry is part of a session's dynamic state: restore==continuous
//! must hold for timelines and span logs too, so a mid-run snapshot
//! carries every sample emitted so far *and* the sampler's cursor (next
//! boundary, delta baselines). Each type has one [`Snap`] impl; sessions
//! nest the sampler and the span log as one slot each.

use crate::span::{SpanEvent, SpanKind, SpanLog};
use crate::{SeriesKind, SeriesSpec, Timeline, WindowSampler};
use picos_trace::snap::{Dec, Enc, Snap, SnapError};
use picos_trace::{snap_code, snap_record};

/// A series kind is one bool: `true` for [`SeriesKind::Delta`].
impl Snap for SeriesKind {
    const SCALAR: bool = true;

    fn put(&self, e: &mut Enc) {
        e.put(&(*self == SeriesKind::Delta));
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(if d.take()? {
            SeriesKind::Delta
        } else {
            SeriesKind::Gauge
        })
    }
}

snap_record!(SeriesSpec { name, kind });

/// The full timeline: window, series specs and every sample.
impl Snap for Timeline {
    fn put(&self, e: &mut Enc) {
        let Self {
            window,
            series,
            starts,
            ends,
            values,
        } = self;
        e.put(window).put(series).put(starts).put(ends).put(values);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let tl = Timeline {
            window: d.take()?,
            series: d.take()?,
            starts: d.take()?,
            ends: d.take()?,
            values: d.take()?,
        };
        if tl.window == 0 {
            return Err(SnapError::new("timeline: zero window"));
        }
        if tl.starts.len() != tl.ends.len() || tl.values.len() != tl.starts.len() * tl.series.len()
        {
            return Err(SnapError::new("timeline: sample table shape mismatch"));
        }
        Ok(tl)
    }
}

/// The sampler mid-run: the next boundary, the samples emitted so far
/// (nested) and the delta baselines. The window and the scratch rows are
/// derived on load.
impl Snap for WindowSampler {
    fn put(&self, e: &mut Enc) {
        let Self {
            window: _,
            next,
            timeline,
            last,
            scratch: _,
            row: _,
        } = self;
        e.put(next).nest(timeline).put(last);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let next = d.take()?;
        let timeline: Timeline = d.nest()?;
        let last: Vec<u64> = d.take()?;
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

snap_code!(SpanKind {
    Submitted = 0,
    DepsRegistered = 1,
    LastDepReleased = 2,
    Ready = 3,
    Dispatched = 4,
    Started = 5,
    Finished = 6,
    MsgSend = 7,
    MsgDeliver = 8,
    MsgRetry = 9,
    Fault = 10,
});

snap_record!(SpanEvent {
    at,
    kind,
    shard,
    task,
    arg
});

/// The drain cursor and the recorded events.
impl Snap for SpanLog {
    fn put(&self, e: &mut Enc) {
        let Self { events, drained } = self;
        e.put(drained).put(events);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let drained = d.take()?;
        let events: Vec<SpanEvent> = d.take()?;
        if drained > events.len() {
            return Err(SnapError::new("spans: drain cursor past the last event"));
        }
        Ok(SpanLog { events, drained })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picos_trace::Value;

    fn save<T: Snap>(v: &T) -> Value {
        let mut e = Enc::new();
        e.put(v);
        e.done()
    }

    fn load<T: Snap>(v: &Value) -> Result<T, SnapError> {
        Dec::new(v, "test")?.take()
    }

    #[test]
    fn sampler_roundtrip_continues_identically() {
        let series = vec![SeriesSpec::gauge("occ"), SeriesSpec::delta("busy")];
        let mut a = WindowSampler::new(10, series.clone());
        a.advance(25, |v| {
            v[0] = 3;
            v[1] = 17;
        });

        let mut b: WindowSampler = load(&save(&a)).unwrap();
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
        let mut back: SpanLog = load(&save(&log)).unwrap();
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
        let mut v = save(&tl);
        // Corrupt the values column length.
        if let Value::Arr(items) = &mut v {
            items[4] = Value::Arr(vec![]);
        }
        assert!(load::<Timeline>(&v).is_err());
    }
}
