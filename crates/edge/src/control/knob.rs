//! The knob table: the one declaration of every live knob.
//!
//! Each [`Knob`] is a row holding its wire name on `POST /control/tune`,
//! its journal label, its range under a [`ControlBounds`], and the index of
//! its cell in the [`TuneTable`](crate::runtime::TuneTable). Everything that
//! reads a knob — the tune table, bounds validation, the controller's
//! `apply`, the gateway's tune parser — goes through this table instead of
//! spelling the knob out again.

use super::ControlBounds;

/// A live knob. Cooldowns are tracked per knob: two actions on the same
/// knob are never closer than the configured cooldown, while distinct
/// knobs may fire on consecutive ticks (escalation).
///
/// The four knobs with a [`TuneTable`](crate::runtime::TuneTable) cell come
/// first, in the order `POST /control/tune` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Producer batch threshold in encoded bytes (0 = serial transfers).
    Batch,
    /// Producer linger window in µs. Turned only by external operators
    /// (the gateway's `POST /control/tune`), never by the controller core.
    Linger,
    /// Consumer look-ahead depth in batches.
    Prefetch,
    /// Per-partition fetch budget in records.
    Fetch,
    /// Consumer-pool size (`scale_processors`).
    Processors,
    /// Intra-task compute-pool width (`ComputePool::set_width`).
    Compute,
    /// Where the processing function runs (model migration; 0 = cloud,
    /// 1 = edge).
    Placement,
}

/// One row of the knob table.
struct Row {
    /// Query parameter on `POST /control/tune`; `None` = not tunable from
    /// outside.
    wire: Option<&'static str>,
    /// Journal label of a `Set` on this knob.
    label: &'static str,
    /// The knob's `[min, max]` under the given bounds.
    range: fn(&ControlBounds) -> (usize, usize),
    /// Index of the knob's `TuneTable` cell; `None` = the level lives in
    /// the consumer pool, the compute pool or the cloud slot.
    cell: Option<usize>,
}

/// Indexed by `Knob as usize`.
const ROWS: [Row; Knob::COUNT] = [
    Row {
        wire: Some("batch_max_bytes"),
        label: "set_batch_max_bytes",
        range: |b| (b.min_batch_bytes, b.max_batch_bytes),
        cell: Some(0),
    },
    Row {
        wire: Some("linger_us"),
        label: "set_linger",
        // 10 s: the controller never turns linger, so its ceiling is a
        // sanity bound of its own rather than a `ControlBounds` field.
        range: |_| (0, 10_000_000),
        cell: Some(1),
    },
    Row {
        wire: Some("prefetch_depth"),
        label: "set_prefetch_depth",
        range: |b| (b.min_prefetch, b.max_prefetch),
        cell: Some(2),
    },
    Row {
        wire: Some("fetch_max"),
        label: "set_fetch_max",
        range: |b| (b.min_fetch_max, b.max_fetch_max),
        cell: Some(3),
    },
    Row {
        wire: None,
        label: "scale_processors",
        range: |b| (b.min_processors, b.max_processors),
        cell: None,
    },
    Row {
        wire: None,
        label: "resize_compute_pool",
        range: |b| (b.min_compute, b.max_compute),
        cell: None,
    },
    Row {
        wire: None,
        label: "set_placement",
        range: |_| (0, 1),
        cell: None,
    },
];

impl Knob {
    pub(crate) const COUNT: usize = 7;

    /// Number of `TuneTable` cells.
    pub(crate) const CELLS: usize = 4;

    /// Every knob, in table order.
    pub(crate) const ALL: [Knob; Knob::COUNT] = [
        Knob::Batch,
        Knob::Linger,
        Knob::Prefetch,
        Knob::Fetch,
        Knob::Processors,
        Knob::Compute,
        Knob::Placement,
    ];

    fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// The knob's query parameter on `POST /control/tune`, when operators
    /// may set it.
    pub(crate) fn wire(self) -> Option<&'static str> {
        self.row().wire
    }

    /// The tunable knob whose wire name is `name`.
    pub(crate) fn parse(name: &str) -> Option<Knob> {
        Knob::ALL.into_iter().find(|k| k.wire() == Some(name))
    }

    /// The wire names of every tunable knob, comma-separated — the
    /// "supported:" list of `POST /control/tune`.
    pub(crate) fn supported() -> String {
        let names: Vec<&str> = Knob::ALL.iter().filter_map(|k| k.wire()).collect();
        names.join(", ")
    }

    /// Journal label of a `Set` on this knob.
    pub(crate) fn label(self) -> &'static str {
        self.row().label
    }

    /// The knob's `TuneTable` cell, if it has one.
    pub(crate) fn cell(self) -> Option<usize> {
        self.row().cell
    }
}

impl ControlBounds {
    /// The `[min, max]` a knob may take: the matching pair of fields, or
    /// the knob's fixed range when it has none (linger, placement). Used by
    /// bounds validation, the controller and the gateway alike.
    pub fn range(&self, knob: Knob) -> (usize, usize) {
        (knob.row().range)(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_table_is_the_one_declaration() {
        for (i, knob) in Knob::ALL.into_iter().enumerate() {
            assert_eq!(knob.index(), i, "{knob:?} out of table order");
            if let Some(name) = knob.wire() {
                assert_eq!(Knob::parse(name), Some(knob), "{name} parses back");
                assert!(knob.cell().is_some(), "tunable {knob:?} needs a cell");
            }
        }
        assert_eq!(Knob::parse("warp_factor"), None);
        let cells: Vec<usize> = Knob::ALL.iter().filter_map(|k| k.cell()).collect();
        assert_eq!(cells, (0..Knob::CELLS).collect::<Vec<_>>());

        let b = ControlBounds {
            min_processors: 1,
            max_processors: 2,
            min_compute: 3,
            max_compute: 4,
            min_batch_bytes: 5,
            max_batch_bytes: 6,
            min_prefetch: 7,
            max_prefetch: 8,
            min_fetch_max: 9,
            max_fetch_max: 10,
        };
        assert_eq!(
            b.range(Knob::Processors),
            (b.min_processors, b.max_processors)
        );
        assert_eq!(b.range(Knob::Compute), (b.min_compute, b.max_compute));
        assert_eq!(b.range(Knob::Batch), (b.min_batch_bytes, b.max_batch_bytes));
        assert_eq!(b.range(Knob::Prefetch), (b.min_prefetch, b.max_prefetch));
        assert_eq!(b.range(Knob::Fetch), (b.min_fetch_max, b.max_fetch_max));
        assert_eq!(b.range(Knob::Linger), (0, 10_000_000), "the 10 s ceiling");
        assert_eq!(b.range(Knob::Placement), (0, 1));

        // The tune endpoint's grammar, built from the table.
        let wires: Vec<&str> = Knob::ALL.iter().filter_map(|k| k.wire()).collect();
        assert_eq!(Knob::supported(), wires.join(", "));
        assert_eq!(
            Knob::supported(),
            "batch_max_bytes, linger_us, prefetch_depth, fetch_max"
        );
    }
}
