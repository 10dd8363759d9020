//! The **access-path recipe IR**.
//!
//! An [`AccessRecipe`] is the single declarative description of one
//! index-backed quantifier join: how candidates are obtained per probe
//! tuple ([`Driver`]), which value-index node set backs the probe
//! (`uri` + `pattern`), how full build rows are reconstructed from a
//! candidate (doc seeds, [`AncestorMode`], composite member seeds), which
//! operators are replayed over the reconstruction (`ops`), and which
//! residual predicate filters the rows.
//!
//! The recipe is emitted once, by the tracer ([`super::trace`]), and then
//! consumed *unchanged* by two parties:
//!
//! * the executor's index-join cursor ([`crate::pipeline::join::IndexJoin`]),
//!   serial or in a parallel segment's workers, through
//!   [`super::probe::IndexJoinAccess`], so probe semantics and
//!   `index_lookups`/`index_hits` accounting have one definition, and
//! * the cost model (`unnest::CostModel`), which prices a quantifier
//!   join as an index probe **iff** the tracer emits a recipe for it —
//!   the "never price what the engine declines" invariant holds because
//!   there is no second convertibility predicate to drift.

use nal::{ProjOp, Scalar, Sym};
use xmldb::{AncestorChainSpec, CompositeSpec, PathPattern};

use crate::nested::Blocks;
use crate::plan::JoinKind;

/// One range/filter conjunct of a [`Driver::Range`] recipe: the
/// predicate `side θ key`, where `side` references only probe-side
/// attributes (or constants) and θ is `=`, `<`, `≤`, `>`, or `≥`.
#[derive(Clone, Debug)]
pub struct RangeProbe {
    /// The probe-side scalar (pure and replay-safe).
    pub side: Scalar,
    /// The comparison, oriented `side θ key`.
    pub op: nal::CmpOp,
}

/// How an index join obtains candidate entries for one probe tuple.
#[derive(Clone, Debug)]
pub enum Driver {
    /// Typed point probe: the left attribute's key against the value
    /// index — the hash semi/anti join replacement.
    Point {
        /// The probe tuple's key attribute.
        probe: Sym,
    },
    /// Lexicographic composite probe: the left attributes (in join-key
    /// order, parallel to `spec.key`) form a `Vec<ValueKey>` probed
    /// against the composite value index — the multi-key hash semi/anti
    /// join replacement. `member_attrs` (chain order, parallel to
    /// `spec.members`) are the build attributes each entry's member
    /// nodes seed during reconstruction.
    Composite {
        /// Probe-side key attributes, in join-key order.
        probes: Vec<Sym>,
        /// Build attributes seeded from each entry's member nodes.
        member_attrs: Vec<Sym>,
        /// The composite index's build spec.
        spec: CompositeSpec,
    },
    /// Ordered-key range seek: `side θ key` conjuncts drive a
    /// [`xmldb::ValueIndex::range`] probe (`eq_probe` anchors the typed
    /// bucket lookup in the hash-join band case; `None` for pure
    /// inequality loop-join conversions).
    Range {
        /// Typed bucket probe of the band case, if any.
        eq_probe: Option<Sym>,
        /// The range/filter conjuncts.
        ranges: Vec<RangeProbe>,
    },
}

/// How bindings between the document and the key column come back when a
/// candidate's build rows are reconstructed.
#[derive(Clone, Debug)]
pub enum AncestorMode {
    /// Every seeded binding sits at a fixed depth above the candidate:
    /// plain parent hops, one reconstructed chain per candidate.
    Fixed(Vec<(Sym, usize)>),
    /// At least one referenced binding sits at **variable depth** (a
    /// descendant step between it and the key): the candidate's ancestor
    /// trail is matched against the chain's relative patterns
    /// ([`xmldb::index::matched_assignments`]); one reconstructed chain
    /// per consistent assignment, in build-row order. `attrs` lists the
    /// bound attributes deepest-first, parallel to `spec.rels`.
    Matched {
        /// Bound attributes, deepest-first (parallel to `spec.rels`).
        attrs: Vec<Sym>,
        /// The chain's base and relative patterns.
        spec: AncestorChainSpec,
    },
}

/// One post-key build operator replayed per reconstructed chain. All
/// scalars are pure (no nested algebra), so replaying them cannot write
/// Ξ output.
#[derive(Clone, Debug)]
pub enum BuildOp {
    /// χ — bind the attribute to the scalar's value, emitting what the
    /// replaced operator's [`crate::plan::Keep`] emitted.
    Map(Sym, Scalar, Option<Vec<Sym>>),
    /// Υ — fan out over the scalar's item sequence, likewise.
    UnnestMap(Sym, Scalar, Option<Vec<Sym>>),
    /// σ — keep rows satisfying the predicate.
    Select(Scalar),
    /// Π — project/rename/drop columns.
    Project(ProjOp),
}

/// The complete recipe for one index-backed semi/anti quantifier join.
#[derive(Clone, Debug)]
pub struct AccessRecipe {
    /// `Semi` or `Anti` only.
    pub kind: JoinKind,
    /// How candidates are obtained per probe tuple.
    pub driver: Driver,
    /// URI of the document whose value index backs the probe.
    pub uri: String,
    /// The document's index epoch ([`xmldb::Catalog::epoch`]) at trace
    /// time. The recipe is declarative — its correctness does not decay
    /// under incremental index maintenance, because the probe runtime
    /// resolves indexes freshly per execution — but the runtime uses
    /// the stamp to *re-validate* a recipe whose document has advanced
    /// (deltas applied, or the URI re-registered with new content): a
    /// resolution failure is then reported as recipe staleness, not as
    /// a compile-time contradiction.
    pub epoch: u64,
    /// Absolute pattern of the (primary) key column — the node set the
    /// value index is built over.
    pub pattern: PathPattern,
    /// Build attribute the candidate (primary) node seeds.
    pub key_attr: Sym,
    /// `doc(uri)` bindings, seeded with the document node.
    pub doc_seeds: Vec<Sym>,
    /// Ancestor bindings between the document and the key.
    pub ancestors: AncestorMode,
    /// Post-key build operators, replayed in execution order.
    pub ops: Vec<BuildOp>,
    /// Join residual evaluated over each reconstructed row.
    pub residual: Option<Scalar>,
    /// The residual's nested blocks, as the join's compilation made them
    /// (only a point or composite probe keeps a residual that has any).
    pub blocks: Blocks,
}

impl AccessRecipe {
    /// Operator name for explain output, by driver kind.
    pub fn op_name(&self) -> &'static str {
        let semi = matches!(self.kind, JoinKind::Semi);
        match &self.driver {
            Driver::Point { .. } => {
                if semi {
                    "IndexSemiJoin"
                } else {
                    "IndexAntiJoin"
                }
            }
            Driver::Composite { .. } => {
                if semi {
                    "IndexCompositeSemiJoin"
                } else {
                    "IndexCompositeAntiJoin"
                }
            }
            Driver::Range { .. } => {
                if semi {
                    "IndexRangeSemiJoin"
                } else {
                    "IndexRangeAntiJoin"
                }
            }
        }
    }

    /// Is the probe decision independent of the probe tuple? True for
    /// constant-bound range quantifiers (`every $x satisfies $x > 5`):
    /// no typed bucket probe, no residual, every range side closed.
    /// The index-join cursor then probes once and reuses the answer (a
    /// parallel segment once for all its workers), so metric parity with
    /// serial runs is preserved.
    pub fn probe_invariant(&self) -> bool {
        match &self.driver {
            Driver::Range { eq_probe, ranges } => {
                eq_probe.is_none()
                    && self.residual.is_none()
                    && ranges.iter().all(|rp| rp.side.free_attrs().is_empty())
            }
            _ => false,
        }
    }

    /// Does a probe reconstruct build rows (replayed pipeline or
    /// residual), or is bare candidate existence enough?
    pub fn replays_rows(&self) -> bool {
        !self.ops.is_empty() || self.residual.is_some()
    }

    /// Can reconstruction actually *reject* a candidate — a residual, a
    /// replayed filter, or a fan-out that may come back empty? When
    /// `false`, the first candidate always decides the probe (χ and Π
    /// replay 1:1), which is what existence-only cost pricing assumes.
    pub fn filters_rows(&self) -> bool {
        self.residual.is_some()
            || self
                .ops
                .iter()
                .any(|o| matches!(o, BuildOp::Select(_) | BuildOp::UnnestMap(..)))
    }

    /// The element tag of the key column — the pattern's last
    /// non-attribute step, which must be a *literal* name — for
    /// statistics lookups in the cost model. `None` for wildcard-final
    /// patterns: their statistics would describe a different node set,
    /// so pricing conservatively skips the index discount (exactly the
    /// old `final_name` behaviour).
    pub fn key_tag(&self) -> Option<&str> {
        self.pattern
            .steps
            .iter()
            .rev()
            .find(|s| !matches!(s, xmldb::PatternStep::Attribute(_)))
            .and_then(|s| match s {
                xmldb::PatternStep::Child(t) | xmldb::PatternStep::Descendant(t) => t.as_deref(),
                xmldb::PatternStep::Attribute(_) => None,
            })
    }
}
