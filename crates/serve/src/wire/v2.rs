//! The **v2** session vocabulary: multiplexed pipelined sessions.
//!
//! Every envelope carries a `u64` correlation id; a session opens with
//! [`HelloWire`]/[`HelloAckWire`] negotiation, and in-flight requests can
//! be cancelled (`Cancel`) and stream [`ProgressWire`]/[`PartialWire`]
//! updates. `Explain` payloads end in a [`CallOverrides`] section. v2 is
//! the only version the server speaks; version 1, which had neither
//! correlation ids nor sessions, is retired.

use super::{put_str, put_u32, Reader, Result, WireError};

/// The v2 protocol version byte.
pub const VERSION: u16 = 2;

/// Session opener: the first envelope of every v2 connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloWire {
    /// Highest protocol version the client speaks.
    pub max_version: u16,
}

/// Negotiation answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAckWire {
    /// The version the server will speak on this connection.
    pub version: u16,
    /// Most requests the server will track in flight per connection;
    /// further `Explain`s draw a `BUSY` error for their corr id.
    pub max_inflight: u32,
}

/// Stage-boundary progress notification for an in-flight request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressWire {
    /// Pipeline stage now starting (`"assemble"`, `"prune-offline"`,
    /// `"prune-online"`, `"bias"`, `"select"`).
    pub stage: String,
}

/// Top-k-so-far streaming update: the selection committed another
/// confounder.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialWire {
    /// Names of all attributes selected so far, in selection order.
    pub selected: Vec<String>,
    /// `I(O;T|C,E)` after conditioning on the selected set.
    pub cmi_so_far: f64,
    /// The `I(O;T|C)` baseline the run started from.
    pub initial_cmi: f64,
}

/// Per-call option overrides carried by a v2 `Explain` payload.
///
/// Each field overrides one knob of the server's base `NexusOptions` for
/// this request only; `None` (or empty) leaves the server default in
/// force, and the all-default value encodes as a single zero flag byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallOverrides {
    /// Explanation size bound `k` (`max_explanation_size`).
    pub top_k: Option<u32>,
    /// Selection-bias handling: detect MNAR attributes and apply IPW
    /// weights (`handle_selection_bias`).
    pub weights: Option<bool>,
    /// Offline pruning toggle.
    pub offline_pruning: Option<bool>,
    /// Online pruning toggle.
    pub online_pruning: Option<bool>,
    /// Candidate mask: base-table columns excluded from the candidate
    /// pool (`excluded_columns`).
    pub excluded: Vec<String>,
}

const FLAG_TOP_K: u8 = 1 << 0;
const FLAG_WEIGHTS: u8 = 1 << 1;
const FLAG_OFFLINE: u8 = 1 << 2;
const FLAG_ONLINE: u8 = 1 << 3;
const FLAG_EXCLUDED: u8 = 1 << 4;
const FLAG_ALL: u8 = FLAG_TOP_K | FLAG_WEIGHTS | FLAG_OFFLINE | FLAG_ONLINE | FLAG_EXCLUDED;

impl CallOverrides {
    /// Whether every field is at its server-default (no override) value.
    pub fn is_none(&self) -> bool {
        *self == CallOverrides::default()
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        let mut flags = 0u8;
        if self.top_k.is_some() {
            flags |= FLAG_TOP_K;
        }
        if self.weights.is_some() {
            flags |= FLAG_WEIGHTS;
        }
        if self.offline_pruning.is_some() {
            flags |= FLAG_OFFLINE;
        }
        if self.online_pruning.is_some() {
            flags |= FLAG_ONLINE;
        }
        if !self.excluded.is_empty() {
            flags |= FLAG_EXCLUDED;
        }
        out.push(flags);
        if let Some(k) = self.top_k {
            put_u32(out, k);
        }
        if let Some(w) = self.weights {
            out.push(w as u8);
        }
        if let Some(p) = self.offline_pruning {
            out.push(p as u8);
        }
        if let Some(p) = self.online_pruning {
            out.push(p as u8);
        }
        if !self.excluded.is_empty() {
            put_u32(out, self.excluded.len() as u32);
            for column in &self.excluded {
                put_str(out, column);
            }
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<CallOverrides> {
        let flags = r.u8()?;
        if flags & !FLAG_ALL != 0 {
            return Err(WireError::Malformed("unknown override flag"));
        }
        let top_k = if flags & FLAG_TOP_K != 0 {
            Some(r.u32()?)
        } else {
            None
        };
        let weights = if flags & FLAG_WEIGHTS != 0 {
            Some(r.bool()?)
        } else {
            None
        };
        let offline_pruning = if flags & FLAG_OFFLINE != 0 {
            Some(r.bool()?)
        } else {
            None
        };
        let online_pruning = if flags & FLAG_ONLINE != 0 {
            Some(r.bool()?)
        } else {
            None
        };
        let excluded = if flags & FLAG_EXCLUDED != 0 {
            let n = r.u32()? as usize;
            if n == 0 {
                return Err(WireError::Malformed("empty excluded-column list"));
            }
            if n > r.remaining() {
                return Err(WireError::Malformed("excluded-column count"));
            }
            let mut excluded = Vec::with_capacity(n);
            for _ in 0..n {
                excluded.push(r.str()?);
            }
            excluded
        } else {
            Vec::new()
        };
        Ok(CallOverrides {
            top_k,
            weights,
            offline_pruning,
            online_pruning,
            excluded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(o: &CallOverrides) -> CallOverrides {
        let mut buf = Vec::new();
        o.write(&mut buf);
        let mut r = Reader::new(&buf);
        let back = CallOverrides::read(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        back
    }

    #[test]
    fn overrides_round_trip() {
        let cases = [
            CallOverrides::default(),
            CallOverrides {
                top_k: Some(3),
                ..Default::default()
            },
            CallOverrides {
                weights: Some(false),
                offline_pruning: Some(true),
                ..Default::default()
            },
            CallOverrides {
                top_k: Some(1),
                weights: Some(true),
                offline_pruning: Some(false),
                online_pruning: Some(false),
                excluded: vec!["Gender".into(), "Age".into()],
            },
        ];
        for o in &cases {
            assert_eq!(&round_trip(o), o);
        }
    }

    #[test]
    fn default_overrides_cost_one_byte() {
        let mut buf = Vec::new();
        CallOverrides::default().write(&mut buf);
        assert_eq!(buf, vec![0]);
        assert!(CallOverrides::default().is_none());
        assert!(!CallOverrides {
            top_k: Some(5),
            ..Default::default()
        }
        .is_none());
    }

    #[test]
    fn unknown_flag_bits_are_malformed() {
        let buf = vec![0x20];
        let mut r = Reader::new(&buf);
        assert!(matches!(
            CallOverrides::read(&mut r),
            Err(WireError::Malformed(_))
        ));
    }
}
