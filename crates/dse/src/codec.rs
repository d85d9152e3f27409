//! The one JSON codec behind everything the DSE persists: checkpoints
//! (`checkpoint.rs`) and evaluation-store entries (`store.rs`).
//!
//! Each persisted type implements [`Codec`] once, symmetrically: `put`
//! appends its JSON form to a buffer through [`json::Obj`] and
//! [`json::arr`], `take` rebuilds it from a parsed [`Value`]. The
//! primitives, the containers and the ADG, schedule and evaluation types
//! both files share live here; each file keeps the impls only it uses.
//!
//! **Lossless hex.** Every integer is written as a hex *string*, and an
//! `f64` as the hex string of its bit pattern. The parser reads numbers as
//! `f64`, which cannot hold a full 64-bit integer, and a float that round
//! trips through decimal is not guaranteed bit-identical; hex strings make
//! every field lossless. An integer narrower than `u64` is range-checked
//! on the way back.
//!
//! The trait lives in this crate rather than next to the writer in
//! `overgen-telemetry`: the orphan rule would forbid implementing a
//! telemetry trait for the ADG, model and scheduler types here.

use std::borrow::BorrowMut;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use overgen_adg::{
    Adg, AdgNode, DmaNode, GenNode, InPortNode, NodeId, OutPortNode, PeNode, PortableAdg, RecNode,
    RegNode, SpadNode, SwitchNode, SystemParams,
};
use overgen_ir::{DataType, FuCap, Op};
use overgen_mdfg::MdfgNodeId;
use overgen_model::{PerfEstimate, Placement, PlacementMetrics, Resources};
use overgen_scheduler::Schedule;
use overgen_telemetry::json::{self, Obj, Value};

use crate::eval::EvalState;

/// A type's persisted JSON form.
pub(crate) trait Codec {
    /// Append the JSON form of `self` to `out`.
    fn put(&self, out: &mut String);

    /// Rebuild a value from its JSON form, or say what is wrong with it.
    fn take(v: &Value) -> Result<Self, String>
    where
        Self: Sized;
}

/// Gives [`Obj`] fields that hold any [`Codec`] value.
pub(crate) trait PutField {
    /// Add field `key` holding `v`.
    fn put(self, key: &str, v: &impl Codec) -> Self;
}

impl<B: BorrowMut<String>> PutField for Obj<B> {
    fn put(self, key: &str, v: &impl Codec) -> Self {
        self.with(key, |out| v.put(out))
    }
}

/// Field `key` of object `v`.
pub(crate) fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// Field `key` of object `v`, decoded; an error names the field.
pub(crate) fn field<T: Codec>(v: &Value, key: &str) -> Result<T, String> {
    T::take(get(v, key)?).map_err(|e| format!("{key}: {e}"))
}

/// The items of an array.
pub(crate) fn items(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Arr(a) => Ok(a),
        _ => Err("expected an array".into()),
    }
}

/// The contents of a string.
pub(crate) fn text(v: &Value) -> Result<&str, String> {
    v.as_str().ok_or_else(|| "expected a string".into())
}

/// Append `["tag",items...]`, the form of an enum variant.
pub(crate) fn put_tagged(out: &mut String, tag: &str, items: &[&dyn Codec]) {
    out.push('[');
    json::string(out, tag);
    for item in items {
        out.push(',');
        item.put(out);
    }
    out.push(']');
}

/// Split what [`put_tagged`] wrote into its tag and items.
pub(crate) fn tagged(v: &Value) -> Result<(&str, &[Value]), String> {
    match items(v)? {
        [tag, rest @ ..] => Ok((text(tag)?, rest)),
        [] => Err("expected a tagged array".into()),
    }
}

/// Append `[items...]`, the form of a tuple.
fn put_seq(out: &mut String, items: &[&dyn Codec]) {
    json::arr(out, items, |o, item| item.put(o));
}

/// Decode every item of an array; an error names the bad item.
fn each<T: Codec>(v: &Value) -> Result<impl Iterator<Item = Result<T, String>> + '_, String> {
    Ok(items(v)?
        .iter()
        .enumerate()
        .map(|(i, item)| T::take(item).map_err(|e| format!("item {i}: {e}"))))
}

/// Implement [`Codec`] for a struct written as a JSON object: each
/// `field: "key"` pair is one object field, in order, and each field after
/// the `;` is not written and is rebuilt from its expression. One list
/// drives both directions, so `put` and `take` cannot drift apart.
macro_rules! object_codec {
    ($t:ty {
        $($field:ident: $key:literal),+ $(,)?
        $(; $($skip:ident: $val:expr),+ $(,)?)?
    }) => {
        impl $crate::codec::Codec for $t {
            fn put(&self, out: &mut String) {
                let o = overgen_telemetry::json::Obj::into(out);
                $(let o = $crate::codec::PutField::put(o, $key, &self.$field);)+
                o.finish();
            }

            fn take(v: &overgen_telemetry::json::Value) -> Result<Self, String> {
                Ok(Self {
                    $($field: $crate::codec::field(v, $key)?,)+
                    $($($skip: $val,)+)?
                })
            }
        }
    };
}

pub(crate) use object_codec;

// ---------------------------------------------------------------------------
// Primitives.

impl Codec for u64 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "\"{self:x}\"");
    }

    fn take(v: &Value) -> Result<Self, String> {
        let s = text(v)?;
        u64::from_str_radix(s, 16).map_err(|_| format!("`{s}` is not a hex integer"))
    }
}

/// Narrower integers travel as `u64` and are range-checked on the way back.
macro_rules! via_u64 {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, out: &mut String) {
                (*self as u64).put(out);
            }

            fn take(v: &Value) -> Result<Self, String> {
                let n = u64::take(v)?;
                <$t>::try_from(n)
                    .map_err(|_| format!("{n:#x} is out of range for {}", stringify!($t)))
            }
        }
    )*};
}

via_u64!(u8, u16, u32, usize);

impl Codec for f64 {
    fn put(&self, out: &mut String) {
        self.to_bits().put(out);
    }

    fn take(v: &Value) -> Result<Self, String> {
        u64::take(v).map(f64::from_bits)
    }
}

impl Codec for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn take(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a bool".into())
    }
}

impl Codec for String {
    fn put(&self, out: &mut String) {
        json::string(out, self);
    }

    fn take(v: &Value) -> Result<Self, String> {
        text(v).map(str::to_string)
    }
}

// ---------------------------------------------------------------------------
// Containers.

impl<T: Codec> Codec for Option<T> {
    /// `null` for `None`.
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }

    fn take(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::take(v).map(Some),
        }
    }
}

/// A shared value is written as the value itself.
impl<T: Codec> Codec for Arc<T> {
    fn put(&self, out: &mut String) {
        (**self).put(out);
    }

    fn take(v: &Value) -> Result<Self, String> {
        T::take(v).map(Arc::new)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut String) {
        json::arr(out, self, |o, item| item.put(o));
    }

    fn take(v: &Value) -> Result<Self, String> {
        each(v)?.collect()
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn put(&self, out: &mut String) {
        json::arr(out, self, |o, item| item.put(o));
    }

    fn take(v: &Value) -> Result<Self, String> {
        each(v)?.collect()
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn put(&self, out: &mut String) {
        json::arr(out, self, |o, item| item.put(o));
    }

    fn take(v: &Value) -> Result<Self, String> {
        let items = items(v)?;
        if items.len() != N {
            return Err(format!("expected {N} items, found {}", items.len()));
        }
        let mut taken = [T::default(); N];
        for (slot, item) in taken.iter_mut().zip(items) {
            *slot = T::take(item)?;
        }
        Ok(taken)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, out: &mut String) {
        put_seq(out, &[&self.0, &self.1]);
    }

    fn take(v: &Value) -> Result<Self, String> {
        match items(v)? {
            [a, b] => Ok((A::take(a)?, B::take(b)?)),
            other => Err(format!("expected 2 items, found {}", other.len())),
        }
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn put(&self, out: &mut String) {
        put_seq(out, &[&self.0, &self.1, &self.2]);
    }

    fn take(v: &Value) -> Result<Self, String> {
        match items(v)? {
            [a, b, c] => Ok((A::take(a)?, B::take(b)?, C::take(c)?)),
            other => Err(format!("expected 3 items, found {}", other.len())),
        }
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    /// An array of `[key, value]` pairs.
    fn put(&self, out: &mut String) {
        json::arr(out, self, |o, (k, v)| put_seq(o, &[k, v]));
    }

    fn take(v: &Value) -> Result<Self, String> {
        each::<(K, V)>(v)?.collect()
    }
}

// ---------------------------------------------------------------------------
// ADG nodes and graphs, via the faithful `PortableAdg` mirror.

impl Codec for NodeId {
    fn put(&self, out: &mut String) {
        self.index().put(out);
    }

    fn take(v: &Value) -> Result<Self, String> {
        usize::take(v).map(NodeId::from_index)
    }
}

impl Codec for MdfgNodeId {
    fn put(&self, out: &mut String) {
        self.index().put(out);
    }

    fn take(v: &Value) -> Result<Self, String> {
        usize::take(v).map(MdfgNodeId::from_index)
    }
}

/// A PE capability as its `"op.dtype"` name.
impl Codec for FuCap {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }

    fn take(v: &Value) -> Result<Self, String> {
        let s = text(v)?;
        let (op_s, dt_s) = s
            .split_once('.')
            .ok_or_else(|| format!("bad capability `{s}`"))?;
        let op = Op::ALL
            .into_iter()
            .find(|o| o.to_string() == op_s)
            .ok_or_else(|| format!("unknown op `{op_s}`"))?;
        let dtype = DataType::ALL
            .into_iter()
            .find(|d| d.to_string() == dt_s)
            .ok_or_else(|| format!("unknown dtype `{dt_s}`"))?;
        Ok(FuCap::new(op, dtype))
    }
}

impl Codec for AdgNode {
    fn put(&self, out: &mut String) {
        let o = Obj::into(out);
        match self {
            AdgNode::Pe(p) => o
                .str("k", "pe")
                .put("caps", &p.caps)
                .put("fifo", &p.delay_fifo_depth),
            AdgNode::Switch(_) => o.str("k", "switch"),
            AdgNode::InPort(p) => o
                .str("k", "in")
                .put("w", &p.width_bytes)
                .put("pad", &p.padding)
                .put("ss", &p.stream_state),
            AdgNode::OutPort(p) => o.str("k", "out").put("w", &p.width_bytes),
            AdgNode::Dma(d) => o.str("k", "dma").put("bw", &d.bw_bytes),
            AdgNode::Gen(g) => o.str("k", "gen").put("bw", &g.bw_bytes),
            AdgNode::Rec(r) => o.str("k", "rec").put("bw", &r.bw_bytes),
            AdgNode::Reg(r) => o.str("k", "reg").put("bw", &r.bw_bytes),
            AdgNode::Spad(s) => o
                .str("k", "spad")
                .put("cap", &s.capacity_kb)
                .put("bw", &s.bw_bytes)
                .put("ind", &s.indirect),
        }
        .finish();
    }

    fn take(v: &Value) -> Result<Self, String> {
        Ok(match text(get(v, "k")?)? {
            "pe" => AdgNode::Pe(PeNode {
                caps: field(v, "caps")?,
                delay_fifo_depth: field(v, "fifo")?,
            }),
            "switch" => AdgNode::Switch(SwitchNode {}),
            "in" => AdgNode::InPort(InPortNode {
                width_bytes: field(v, "w")?,
                padding: field(v, "pad")?,
                stream_state: field(v, "ss")?,
            }),
            "out" => AdgNode::OutPort(OutPortNode {
                width_bytes: field(v, "w")?,
            }),
            "dma" => AdgNode::Dma(DmaNode {
                bw_bytes: field(v, "bw")?,
            }),
            "gen" => AdgNode::Gen(GenNode {
                bw_bytes: field(v, "bw")?,
            }),
            "rec" => AdgNode::Rec(RecNode {
                bw_bytes: field(v, "bw")?,
            }),
            "reg" => AdgNode::Reg(RegNode {
                bw_bytes: field(v, "bw")?,
            }),
            "spad" => AdgNode::Spad(SpadNode {
                capacity_kb: field(v, "cap")?,
                bw_bytes: field(v, "bw")?,
                indirect: field(v, "ind")?,
            }),
            k => return Err(format!("unknown node kind `{k}`")),
        })
    }
}

object_codec!(PortableAdg {
    slots: "slots",
    out_adj: "out",
    in_adj: "in",
});

impl Codec for Adg {
    fn put(&self, out: &mut String) {
        debug_assert!(!self.journal_open(), "ADG encoded under an open journal");
        self.to_portable().put(out);
    }

    fn take(v: &Value) -> Result<Self, String> {
        Adg::from_portable(PortableAdg::take(v)?).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Schedules and evaluation states: shared by checkpoint chains and store
// entries.

/// The four resource channels, in `Resources::to_array` order.
impl Codec for Resources {
    fn put(&self, out: &mut String) {
        self.to_array().put(out);
    }

    fn take(v: &Value) -> Result<Self, String> {
        <[f64; 4]>::take(v).map(Resources::from_array)
    }
}

object_codec!(PlacementMetrics {
    wirelength: "wirelength",
    congestion: "congestion",
    slr_crossings: "slr_crossings",
    fmax_mhz: "fmax_mhz",
});

object_codec!(SystemParams {
    tiles: "tiles",
    l2_banks: "l2_banks",
    l2_kb: "l2_kb",
    noc_bw_bytes: "noc_bw",
    dram_channels: "dram",
});

/// Routes are flat `[src,dst,[path]]` triples.
impl Codec for Schedule {
    fn put(&self, out: &mut String) {
        Obj::into(out)
            .str("name", &self.mdfg_name)
            .put("variant", &self.variant)
            .put("assign", &self.assignment)
            .put("engines", &self.stream_engines)
            .with("routes", |o| {
                json::arr(o, &self.routes, |o, ((src, dst), path)| {
                    put_seq(o, &[src, dst, path]);
                });
            })
            .put("spads", &self.placement.spad_arrays)
            .put("ipc", &self.est.ipc)
            .put("tile_ipc", &self.est.per_tile_ipc)
            .put("factors", &self.est.factors)
            .put("balance", &self.balance_penalty)
            .finish();
    }

    fn take(v: &Value) -> Result<Self, String> {
        let routes: Vec<(MdfgNodeId, MdfgNodeId, Vec<NodeId>)> = field(v, "routes")?;
        Ok(Schedule {
            mdfg_name: field(v, "name")?,
            variant: field(v, "variant")?,
            assignment: field(v, "assign")?,
            stream_engines: field(v, "engines")?,
            routes: routes
                .into_iter()
                .map(|(src, dst, path)| ((src, dst), path))
                .collect(),
            placement: Placement {
                spad_arrays: field(v, "spads")?,
            },
            est: PerfEstimate {
                ipc: field(v, "ipc")?,
                per_tile_ipc: field(v, "tile_ipc")?,
                factors: field(v, "factors")?,
            },
            balance_penalty: field(v, "balance")?,
        })
    }
}

/// Schedules are written as an array and re-keyed by name on load.
impl Codec for EvalState {
    fn put(&self, out: &mut String) {
        Obj::into(out)
            .put("sys", &self.sys)
            .with("schedules", |o| {
                json::arr(o, self.schedules.values(), |o, s| s.put(o));
            })
            .put("variants", &self.variants)
            .put("objective", &self.objective)
            .put("fitness", &self.fitness)
            .put("resources", &self.resources)
            .put("placement", &self.placement)
            .finish();
    }

    fn take(v: &Value) -> Result<Self, String> {
        let schedules: Vec<Schedule> = field(v, "schedules")?;
        Ok(EvalState {
            sys: field(v, "sys")?,
            schedules: schedules
                .into_iter()
                .map(|s| (s.mdfg_name.clone(), s))
                .collect(),
            variants: field(v, "variants")?,
            objective: field(v, "objective")?,
            fitness: field(v, "fitness")?,
            resources: field(v, "resources")?,
            placement: field(v, "placement")?,
        })
    }
}
