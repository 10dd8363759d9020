//! The arena-backed document store, its builder, and the update API.
//!
//! Nodes live in a flat arena; each node carries a **gap-based ordering
//! key** ([`NodeId`] compares by it), assigned with a 2³²-wide stride at
//! build time so that mid-document inserts can take keys from the
//! enclosing gap without renumbering the arena. When a gap is exhausted
//! (≈32 inserts splitting the same spot), a *local* region of
//! document-order neighbours is renumbered ([`Document::order_epoch`]
//! records it) — see `ROADMAP.md` for the sizing rationale.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::dtd::Dtd;
use crate::node::{NodeData, NodeId, NodeKind, NONE, ORDER_STRIDE};
use crate::schema::SchemaFacts;

/// Minimum inter-node gap a rebalance restores: 2¹⁶ leaves another ~16
/// same-spot splits before the next rebalance of the region.
const REBALANCE_MIN_GAP: u64 = 1 << 16;

/// Why a document update was rejected. Updates validate their handles
/// (stale ids from before a delete or rebalance are detected by their
/// ordering key) instead of corrupting the tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateError {
    /// The target handle does not name a live node of this document
    /// (wrong document, deleted node, or a pre-rebalance id).
    StaleNode,
    /// `insert_subtree` requires an element parent and an element
    /// fragment root.
    NotAnElement,
    /// The `before` sibling is not a (non-attribute) child of the parent.
    NotAChild,
    /// `replace_text` requires a text or attribute node.
    NotText,
    /// The document node itself cannot be deleted.
    CannotDeleteRoot,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            UpdateError::StaleNode => "stale or foreign node handle",
            UpdateError::NotAnElement => "insert requires element parent and fragment root",
            UpdateError::NotAChild => "`before` is not a child of the insert parent",
            UpdateError::NotText => "replace_text requires a text or attribute node",
            UpdateError::CannotDeleteRoot => "the document node cannot be deleted",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for UpdateError {}

/// An XML document.
///
/// Nodes live in a flat arena; navigation uses first-child/next-sibling
/// links, and every node carries the ordering key that makes [`NodeId`]
/// comparison document order. Names are interned per document so name
/// tests are integer comparisons.
///
/// Documents are built once (parser or generator) and then *updated in
/// place* through [`Document::insert_subtree`],
/// [`Document::delete_subtree`], and [`Document::replace_text`] — or,
/// when the document is registered in a [`crate::Catalog`], through the
/// catalog's wrappers of the same names, which additionally keep the
/// built indexes and statistics consistent. [`Document::epoch`] counts
/// updates; [`Document::order_epoch`] counts ordering-key rebalances
/// (which invalidate outstanding [`NodeId`]s of the renumbered region).
#[derive(Clone)]
pub struct Document {
    /// Document URI within the catalog, e.g. `"bib.xml"`.
    pub uri: String,
    /// The internal DTD subset, if the document carried one (or if the
    /// generator attached one), with the schema facts derived from it.
    /// Written only by [`DocumentBuilder::set_dtd`], which analyzes the
    /// DTD as it attaches it, so the facts always describe this DTD;
    /// clones of the document (clone-on-write snapshots) share them.
    /// Updates do **not** revalidate against it.
    schema: Option<Arc<SchemaFacts>>,
    nodes: Vec<NodeData>,
    names: Vec<Box<str>>,
    name_index: HashMap<Box<str>, u32>,
    /// Live (reachable) nodes, including the document node. Deleted
    /// slots stay allocated but dead.
    live_count: usize,
    /// Bumped once per completed update (insert/delete/replace).
    epoch: u64,
    /// Bumped once per ordering-key rebalance.
    order_epoch: u64,
}

impl Document {
    /// Number of live nodes (including the document node). Deleted
    /// subtrees no longer count.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_count
    }

    /// Update counter: bumped once per completed
    /// [`Document::insert_subtree`] / [`Document::delete_subtree`] /
    /// [`Document::replace_text`]. Consumers caching derived state
    /// (statistics, indexes) key their validity on it.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rebalance counter: bumped whenever an insert exhausted its gap
    /// and a local region was renumbered. Outstanding [`NodeId`]s of the
    /// renumbered region are invalid after the bump (their ordering key
    /// no longer matches), so index deltas do not apply across it — the
    /// catalog falls back to a rebuild.
    #[inline]
    pub fn order_epoch(&self) -> u64 {
        self.order_epoch
    }

    /// The internal DTD subset, if the document has one.
    #[inline]
    pub fn dtd(&self) -> Option<&Dtd> {
        self.schema.as_deref().map(SchemaFacts::dtd)
    }

    /// Schema facts of [`Document::dtd`] for the rewriter — analyzed
    /// once, when the DTD was attached, and lent out from there.
    #[inline]
    pub fn schema_facts(&self) -> Option<&SchemaFacts> {
        self.schema.as_deref()
    }

    /// Resolve an interned name index to the name string.
    #[inline]
    pub fn name(&self, idx: u32) -> &str {
        &self.names[idx as usize]
    }

    /// Look up the interned index for `name` without interning it.
    /// Returns `None` if no node in this document uses the name.
    #[inline]
    pub fn find_name(&self, name: &str) -> Option<u32> {
        self.name_index.get(name).copied()
    }

    #[inline]
    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Current handle of an arena slot (its stored ordering key).
    #[inline]
    fn id(&self, slot: u32) -> NodeId {
        NodeId::new(slot, self.nodes[slot as usize].order)
    }

    #[inline]
    fn wrap(&self, raw: u32) -> Option<NodeId> {
        if raw == NONE {
            None
        } else {
            Some(self.id(raw))
        }
    }

    /// Is `id` a live node of this document with a current ordering key?
    /// `false` for deleted nodes and for handles stamped before a
    /// rebalance renumbered their region.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.index())
            .is_some_and(|d| d.live && d.order == id.order)
    }

    /// Validate a handle for mutation, returning its slot.
    fn live_slot(&self, id: NodeId) -> Result<u32, UpdateError> {
        if self.is_live(id) {
            Ok(id.index() as u32)
        } else {
            Err(UpdateError::StaleNode)
        }
    }

    /// The kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.data(id).kind
    }

    /// The element/attribute name of `id`, if it has one.
    #[inline]
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.data(id).kind.name_index().map(|i| self.name(i))
    }

    /// Parent node, `None` for the document node.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.wrap(self.data(id).parent)
    }

    /// First child (text or element), if any.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.wrap(self.data(id).first_child)
    }

    /// Next sibling in document order, if any.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.wrap(self.data(id).next_sibling)
    }

    /// Iterator over the children of `id` in document order
    /// (attributes are *not* children).
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.wrap(self.data(id).first_child),
        }
    }

    /// Iterator over the attribute nodes of `id` in declaration order.
    pub fn attributes(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.wrap(self.data(id).first_attr),
        }
    }

    /// The attribute node named `name` of element `id`, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<NodeId> {
        let idx = self.find_name(name)?;
        self.attributes(id)
            .find(|&a| self.data(a).kind == NodeKind::Attribute(idx))
    }

    /// Iterator over all descendants of `id` (excluding `id` itself,
    /// excluding attributes) in document order.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            root: id,
            next: self.wrap(self.data(id).first_child),
        }
    }

    /// The root element of the document, if well-formed.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(NodeId::DOCUMENT)
            .find(|&c| self.kind(c).is_element())
    }

    /// Raw text of a `Text` or `Attribute` node; empty for other kinds.
    #[inline]
    pub fn text(&self, id: NodeId) -> &str {
        &self.data(id).text
    }

    /// The string value of a node per the XPath data model: concatenated
    /// descendant text for documents/elements, stored text for
    /// text/attribute nodes. Borrowed from the arena whenever the value
    /// is one stored string — text and attribute nodes, and elements
    /// with at most one text node below them (`<title>T</title>`, but
    /// also `<author><last>L</last></author>`); only mixed content is
    /// concatenated into a fresh string.
    pub fn string_value(&self, id: NodeId) -> Cow<'_, str> {
        if self.stores_own_text(id) {
            return Cow::Borrowed(self.text(id));
        }
        let mut texts = self.descendant_texts(id);
        match (texts.next(), texts.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(only), None) => Cow::Borrowed(only),
            (Some(first), Some(second)) => {
                let mut s = String::with_capacity(first.len() + second.len());
                s.push_str(first);
                s.push_str(second);
                s.extend(texts);
                Cow::Owned(s)
            }
        }
    }

    /// [`Self::string_value`] for a caller that only looks at the text
    /// (a hash probe, a comparison): mixed content is concatenated into
    /// the caller's `scratch` buffer instead of a fresh string, in one
    /// walk of the subtree, so a loop of lookups allocates nothing once
    /// the buffer has grown. The flag says the text was assembled there
    /// — whoever keeps it has to copy it — rather than found stored.
    pub fn string_value_in<'a>(&'a self, id: NodeId, scratch: &'a mut String) -> (&'a str, bool) {
        if self.stores_own_text(id) {
            return (self.text(id), false);
        }
        let mut texts = self.descendant_texts(id);
        let (Some(first), second) = (texts.next(), texts.next()) else {
            return ("", false);
        };
        let Some(second) = second else {
            return (first, false);
        };
        scratch.clear();
        scratch.push_str(first);
        scratch.push_str(second);
        scratch.extend(texts);
        (scratch, true)
    }

    /// A text or attribute node: its string value is its stored text.
    fn stores_own_text(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Text | NodeKind::Attribute(_))
    }

    /// The text nodes below an element or the document, in order.
    fn descendant_texts(&self, id: NodeId) -> impl Iterator<Item = &str> {
        self.descendants(id)
            .filter(|&d| self.kind(d).is_text())
            .map(|d| self.text(d))
    }

    /// `true` iff `anc` is an ancestor of `id` (strictly).
    pub fn is_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Every node of `root`'s subtree in document order: `root` first,
    /// then (for elements) its attributes, then the child subtrees. The
    /// index-maintenance deltas enumerate touched subtrees with this.
    pub fn subtree_nodes(&self, root: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_subtree(root, &mut out);
        out
    }

    fn collect_subtree(&self, n: NodeId, out: &mut Vec<NodeId>) {
        out.push(n);
        for a in self.attributes(n) {
            out.push(a);
        }
        for c in self.children(n) {
            self.collect_subtree(c, out);
        }
    }

    // -----------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------

    /// Insert a copy of `frag_root`'s subtree (from another document)
    /// under `parent`, immediately before the existing child `before`
    /// (`None` appends after the last child). Returns the handle of the
    /// inserted copy's root.
    ///
    /// Ordering keys for the new nodes come from the gap between the
    /// insertion point's document-order neighbours; if the gap is too
    /// small, a local region is renumbered first (bumping
    /// [`Document::order_epoch`]). Either way the inserted nodes compare
    /// in document order against every live node, so posting lists keyed
    /// by [`NodeId`] stay mergeable without renumbering the arena.
    ///
    /// Adjacent text nodes are *not* merged across the insertion seam
    /// (element string values, which concatenate descendant text, are
    /// unaffected; the query language never enumerates text nodes).
    ///
    /// # Examples
    ///
    /// ```
    /// use xmldb::parse_document;
    ///
    /// let mut doc = parse_document("b.xml", "<bib><book>1</book></bib>").unwrap();
    /// let frag = parse_document("frag", "<book>0</book>").unwrap();
    /// let bib = doc.root_element().unwrap();
    /// let first = doc.first_child(bib).unwrap();
    /// let inserted = doc
    ///     .insert_subtree(bib, Some(first), &frag, frag.root_element().unwrap())
    ///     .unwrap();
    /// assert!(inserted < first, "NodeId order is document order after the insert");
    /// assert_eq!(doc.string_value(bib), "01");
    /// ```
    pub fn insert_subtree(
        &mut self,
        parent: NodeId,
        before: Option<NodeId>,
        frag: &Document,
        frag_root: NodeId,
    ) -> Result<NodeId, UpdateError> {
        let parent_slot = self.live_slot(parent)?;
        if !self.nodes[parent_slot as usize].kind.is_element() {
            return Err(UpdateError::NotAnElement);
        }
        let before_slot = match before {
            None => None,
            Some(b) => {
                let s = self.live_slot(b)?;
                let d = &self.nodes[s as usize];
                if d.parent != parent_slot || d.kind.is_attribute() {
                    return Err(UpdateError::NotAChild);
                }
                Some(s)
            }
        };
        if !frag.is_live(frag_root) || !frag.kind(frag_root).is_element() {
            return Err(UpdateError::NotAnElement);
        }
        let count = frag.subtree_nodes(frag_root).len();

        // Document-order neighbours of the insertion seam.
        let pred_slot = match before_slot {
            Some(s) => {
                let prev = self.nodes[s as usize].prev_sibling;
                if prev != NONE {
                    self.subtree_last_slot(prev)
                } else {
                    self.last_attr_or_self(parent_slot)
                }
            }
            None => {
                let last = self.nodes[parent_slot as usize].last_child;
                if last != NONE {
                    self.subtree_last_slot(last)
                } else {
                    self.last_attr_or_self(parent_slot)
                }
            }
        };
        let succ_slot = match before_slot {
            Some(s) => Some(s),
            None => self.next_outside_slot(parent_slot),
        };

        // Allocate keys from the gap; rebalance the region when the gap
        // is exhausted (at most once — a rebalance guarantees room).
        let mut keys = None;
        for attempt in 0..2 {
            let pred_key = self.nodes[pred_slot as usize].order;
            let succ_key = succ_slot.map(|s| self.nodes[s as usize].order);
            if let Some(ks) = alloc_keys(pred_key, succ_key, count) {
                keys = Some(ks);
                break;
            }
            assert_eq!(attempt, 0, "rebalance must open a large enough gap");
            self.rebalance(pred_slot, succ_slot, count);
        }
        let mut keys = keys.expect("key allocation").into_iter();

        // Copy the fragment subtree in document order and link it in.
        let root_slot = self.copy_subtree(frag, frag_root, parent_slot, &mut keys);
        debug_assert!(keys.next().is_none(), "every key is consumed");
        self.link_before(parent_slot, root_slot, before_slot);
        self.live_count += count;
        self.epoch += 1;
        Ok(self.id(root_slot))
    }

    /// Delete `node`'s subtree (the node, its attributes, and all
    /// descendants). Attribute nodes can be deleted individually.
    /// Returns the number of removed nodes. The slots stay allocated but
    /// dead — outstanding handles to them go stale, never dangling.
    pub fn delete_subtree(&mut self, node: NodeId) -> Result<usize, UpdateError> {
        let slot = self.live_slot(node)?;
        if slot == 0 {
            return Err(UpdateError::CannotDeleteRoot);
        }
        let d = &self.nodes[slot as usize];
        let (parent, prev, next, is_attr) = (
            d.parent,
            d.prev_sibling,
            d.next_sibling,
            d.kind.is_attribute(),
        );
        // Unlink from the sibling (or attribute) chain.
        if prev != NONE {
            self.nodes[prev as usize].next_sibling = next;
        } else if is_attr {
            self.nodes[parent as usize].first_attr = next;
        } else {
            self.nodes[parent as usize].first_child = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev_sibling = prev;
        } else if !is_attr {
            self.nodes[parent as usize].last_child = prev;
        }
        // Mark the subtree dead.
        let removed = self.subtree_nodes(node);
        for n in &removed {
            self.nodes[n.index()].live = false;
        }
        self.live_count -= removed.len();
        self.epoch += 1;
        Ok(removed.len())
    }

    /// Replace the text content of a `Text` or `Attribute` node.
    pub fn replace_text(&mut self, node: NodeId, text: &str) -> Result<(), UpdateError> {
        let slot = self.live_slot(node)?;
        let d = &mut self.nodes[slot as usize];
        if !matches!(d.kind, NodeKind::Text | NodeKind::Attribute(_)) {
            return Err(UpdateError::NotText);
        }
        d.text = text.into();
        self.epoch += 1;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Ordering-key machinery
    // -----------------------------------------------------------------

    /// Last node of `slot`'s subtree in document order: the last child's
    /// subtree end if there are children, else the last attribute, else
    /// the node itself.
    fn subtree_last_slot(&self, mut slot: u32) -> u32 {
        loop {
            let d = &self.nodes[slot as usize];
            if d.last_child != NONE {
                slot = d.last_child;
                continue;
            }
            if d.first_attr != NONE {
                return self.last_in_chain(d.first_attr);
            }
            return slot;
        }
    }

    fn last_in_chain(&self, mut slot: u32) -> u32 {
        while self.nodes[slot as usize].next_sibling != NONE {
            slot = self.nodes[slot as usize].next_sibling;
        }
        slot
    }

    /// The element's last attribute, or the element itself — the
    /// document-order position after which its first child would sit.
    fn last_attr_or_self(&self, slot: u32) -> u32 {
        let fa = self.nodes[slot as usize].first_attr;
        if fa != NONE {
            self.last_in_chain(fa)
        } else {
            slot
        }
    }

    /// First node after `slot`'s subtree in document order (climb until
    /// a next sibling exists).
    fn next_outside_slot(&self, mut slot: u32) -> Option<u32> {
        loop {
            let d = &self.nodes[slot as usize];
            if d.next_sibling != NONE {
                return Some(d.next_sibling);
            }
            if d.parent == NONE {
                return None;
            }
            slot = d.parent;
        }
    }

    /// Document-order successor of `slot` (attributes ordered after
    /// their owner, before its children).
    fn order_successor_slot(&self, slot: u32) -> Option<u32> {
        let d = &self.nodes[slot as usize];
        if !d.kind.is_attribute() {
            if d.first_attr != NONE {
                return Some(d.first_attr);
            }
            if d.first_child != NONE {
                return Some(d.first_child);
            }
            return self.next_outside_slot(slot);
        }
        // Attribute: next attribute, else the owner's first child, else
        // onward from the owner.
        if d.next_sibling != NONE {
            return Some(d.next_sibling);
        }
        let owner = d.parent;
        let oc = self.nodes[owner as usize].first_child;
        if oc != NONE {
            return Some(oc);
        }
        self.next_outside_slot(owner)
    }

    /// Document-order predecessor of `slot` (`None` for the document
    /// node).
    fn order_predecessor_slot(&self, slot: u32) -> Option<u32> {
        let d = &self.nodes[slot as usize];
        if d.kind.is_attribute() {
            return if d.prev_sibling != NONE {
                Some(d.prev_sibling)
            } else {
                Some(d.parent)
            };
        }
        if d.prev_sibling != NONE {
            return Some(self.subtree_last_slot(d.prev_sibling));
        }
        if d.parent == NONE {
            return None;
        }
        Some(self.last_attr_or_self(d.parent))
    }

    /// Renumber a local region of document-order neighbours around the
    /// insertion seam so that adjacent keys are at least
    /// `max(count + 1, 2¹⁶)` apart. The region grows one node per side
    /// until the enclosing key span allows that stride (the document
    /// node, pinned to key 0, is never included). Bumps
    /// [`Document::order_epoch`].
    fn rebalance(&mut self, pred_slot: u32, succ_slot: Option<u32>, count: usize) {
        use std::collections::VecDeque;
        let mut region: VecDeque<u32> = VecDeque::new();
        region.push_back(pred_slot);
        if let Some(s) = succ_slot {
            region.push_back(s);
        }
        let min_gap = (count as u64 + 1).max(REBALANCE_MIN_GAP);
        loop {
            let lower = self.order_predecessor_slot(*region.front().expect("non-empty"));
            let lower_key = match lower {
                Some(s) => self.nodes[s as usize].order,
                None => 0,
            };
            let upper = self.order_successor_slot(*region.back().expect("non-empty"));
            let upper_key = match upper {
                Some(s) => self.nodes[s as usize].order,
                None => u64::MAX,
            };
            let n = region.len() as u64;
            let stride = (upper_key - lower_key) / (n + 1);
            let can_grow_left = lower.is_some_and(|s| s != 0);
            if stride >= min_gap || (!can_grow_left && upper.is_none()) {
                assert!(
                    stride > count as u64,
                    "ordering key space exhausted: document too dense"
                );
                for (i, &slot) in region.iter().enumerate() {
                    self.nodes[slot as usize].order = lower_key + stride * (i as u64 + 1);
                }
                self.order_epoch += 1;
                return;
            }
            if can_grow_left {
                region.push_front(lower.expect("checked"));
            }
            if let Some(s) = upper {
                region.push_back(s);
            }
        }
    }

    // -----------------------------------------------------------------
    // Arena plumbing (shared by the builder and the update API)
    // -----------------------------------------------------------------

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.name_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.names.len()).expect("too many names");
        self.names.push(name.into());
        self.name_index.insert(name.into(), i);
        i
    }

    fn push_raw(&mut self, data: NodeData) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("document too large");
        self.nodes.push(data);
        id
    }

    /// Copy `n`'s subtree from `frag` into this arena (document order:
    /// node, attributes, children), consuming one pre-allocated ordering
    /// key per node. Links everything except the subtree root's sibling
    /// chain, which [`Self::link_before`] attaches.
    fn copy_subtree(
        &mut self,
        frag: &Document,
        n: NodeId,
        parent: u32,
        keys: &mut std::vec::IntoIter<u64>,
    ) -> u32 {
        let kind = match frag.kind(n) {
            NodeKind::Element(i) => NodeKind::Element(self.intern(frag.name(i))),
            NodeKind::Attribute(i) => NodeKind::Attribute(self.intern(frag.name(i))),
            NodeKind::Text => NodeKind::Text,
            NodeKind::Document => unreachable!("fragment roots are elements"),
        };
        let mut data = NodeData::new(kind);
        data.parent = parent;
        data.order = keys.next().expect("one key per copied node");
        data.text = frag.text(n).into();
        let slot = self.push_raw(data);
        let mut attr_tail = NONE;
        for a in frag.attributes(n) {
            let mut ad = NodeData::new(NodeKind::Attribute(
                self.intern(frag.node_name(a).expect("attribute name")),
            ));
            ad.parent = slot;
            ad.order = keys.next().expect("one key per copied node");
            ad.text = frag.text(a).into();
            ad.prev_sibling = attr_tail;
            let aslot = self.push_raw(ad);
            if attr_tail == NONE {
                self.nodes[slot as usize].first_attr = aslot;
            } else {
                self.nodes[attr_tail as usize].next_sibling = aslot;
            }
            attr_tail = aslot;
        }
        for c in frag.children(n) {
            let cslot = self.copy_subtree(frag, c, slot, keys);
            self.append_child_link(slot, cslot);
        }
        slot
    }

    /// Append `child` to `parent`'s child chain (builder order).
    fn append_child_link(&mut self, parent: u32, child: u32) {
        let p = &mut self.nodes[parent as usize];
        if p.first_child == NONE {
            p.first_child = child;
            p.last_child = child;
        } else {
            let prev = p.last_child;
            p.last_child = child;
            self.nodes[prev as usize].next_sibling = child;
            self.nodes[child as usize].prev_sibling = prev;
        }
    }

    /// Splice `child` into `parent`'s child chain before `before`
    /// (`None` appends).
    fn link_before(&mut self, parent: u32, child: u32, before: Option<u32>) {
        match before {
            None => self.append_child_link(parent, child),
            Some(b) => {
                let prev = self.nodes[b as usize].prev_sibling;
                self.nodes[child as usize].prev_sibling = prev;
                self.nodes[child as usize].next_sibling = b;
                self.nodes[b as usize].prev_sibling = child;
                if prev == NONE {
                    self.nodes[parent as usize].first_child = child;
                } else {
                    self.nodes[prev as usize].next_sibling = child;
                }
            }
        }
    }
}

/// Allocate `count` ascending ordering keys strictly between `pred` and
/// `succ` (`None`: open-ended above — build-stride steps). `None` when
/// the gap is too small (or appending would overflow), i.e. a rebalance
/// is needed.
fn alloc_keys(pred: u64, succ: Option<u64>, count: usize) -> Option<Vec<u64>> {
    let k = count as u64;
    match succ {
        Some(s) => {
            debug_assert!(s > pred, "seam neighbours must be ordered");
            let span = s - pred;
            if span <= k {
                return None;
            }
            let stride = span / (k + 1);
            Some((1..=k).map(|i| pred + stride * i).collect())
        }
        None => {
            let mut out = Vec::with_capacity(count);
            let mut cur = pred;
            for _ in 0..count {
                cur = cur.checked_add(ORDER_STRIDE)?;
                out.push(cur);
            }
            Some(out)
        }
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("uri", &self.uri)
            .field("nodes", &self.live_count)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// Iterator over a sibling chain.
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl<'a> Iterator for Children<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.next_sibling(cur);
        Some(cur)
    }
}

/// Pre-order iterator over descendants of a subtree root.
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        // Compute successor in pre-order, staying inside `root`.
        let doc = self.doc;
        self.next = if let Some(c) = doc.first_child(cur) {
            Some(c)
        } else {
            let mut n = cur;
            loop {
                if n == self.root {
                    break None;
                }
                if let Some(s) = doc.next_sibling(n) {
                    break Some(s);
                }
                match doc.parent(n) {
                    Some(p) => n = p,
                    None => break None,
                }
            }
        };
        Some(cur)
    }
}

/// Builder that constructs a [`Document`] in document order.
///
/// Used by the parser and the data generators. Elements are opened and
/// closed like a SAX stream; attributes must be added immediately after
/// opening their element (before any child), so that arena order equals
/// document order (each node's ordering key is its slot × the build
/// stride, leaving the gaps the update API allocates from).
pub struct DocumentBuilder {
    doc: Document,
    stack: Vec<u32>,
}

impl DocumentBuilder {
    /// Start a document with the given catalog URI.
    pub fn new(uri: impl Into<String>) -> DocumentBuilder {
        let mut doc = Document {
            uri: uri.into(),
            schema: None,
            nodes: Vec::new(),
            names: Vec::new(),
            name_index: HashMap::new(),
            live_count: 1,
            epoch: 0,
            order_epoch: 0,
        };
        doc.nodes.push(NodeData::new(NodeKind::Document));
        DocumentBuilder {
            doc,
            stack: vec![0],
        }
    }

    /// Attach the parsed internal DTD subset and the schema facts
    /// derived from it (the one place either is set).
    pub fn set_dtd(&mut self, dtd: Dtd) {
        self.doc.schema = Some(Arc::new(SchemaFacts::analyze(dtd)));
    }

    fn push_node(&mut self, mut data: NodeData) -> u32 {
        let id = u32::try_from(self.doc.nodes.len()).expect("document too large");
        // Build order is document order: stride-spaced keys.
        data.order = (id as u64) * ORDER_STRIDE;
        self.doc.nodes.push(data);
        self.doc.live_count += 1;
        id
    }

    fn current(&self) -> u32 {
        *self.stack.last().expect("builder stack underflow")
    }

    /// Open a new element under the current node.
    pub fn start_element(&mut self, name: &str) -> NodeId {
        let name_idx = self.doc.intern(name);
        let parent = self.current();
        let mut data = NodeData::new(NodeKind::Element(name_idx));
        data.parent = parent;
        let id = self.push_node(data);
        self.doc.append_child_link(parent, id);
        self.stack.push(id);
        self.doc.id(id)
    }

    /// Close the most recently opened element.
    pub fn end_element(&mut self) {
        assert!(self.stack.len() > 1, "end_element without start_element");
        self.stack.pop();
    }

    /// Add an attribute to the currently open element. Must be called before
    /// any child of that element is created.
    pub fn attribute(&mut self, name: &str, value: &str) -> NodeId {
        let name_idx = self.doc.intern(name);
        let owner = self.current();
        assert!(
            self.doc.nodes[owner as usize].first_child == NONE,
            "attributes must precede children"
        );
        let mut data = NodeData::new(NodeKind::Attribute(name_idx));
        data.parent = owner;
        data.text = value.into();
        let id = self.push_node(data);
        // Append to the attribute chain.
        let first_attr = self.doc.nodes[owner as usize].first_attr;
        if first_attr == NONE {
            self.doc.nodes[owner as usize].first_attr = id;
        } else {
            let tail = self.doc.last_in_chain(first_attr);
            self.doc.nodes[tail as usize].next_sibling = id;
            self.doc.nodes[id as usize].prev_sibling = tail;
        }
        self.doc.id(id)
    }

    /// Add a text node under the current node. Adjacent text is merged.
    pub fn text(&mut self, content: &str) -> NodeId {
        let parent = self.current();
        // Merge with a preceding text sibling, as XML parsers are expected to.
        let last = self.doc.nodes[parent as usize].last_child;
        if last != NONE && self.doc.nodes[last as usize].kind == NodeKind::Text {
            let mut merged = String::from(&*self.doc.nodes[last as usize].text);
            merged.push_str(content);
            self.doc.nodes[last as usize].text = merged.into();
            return self.doc.id(last);
        }
        let mut data = NodeData::new(NodeKind::Text);
        data.parent = parent;
        data.text = content.into();
        let id = self.push_node(data);
        self.doc.append_child_link(parent, id);
        self.doc.id(id)
    }

    /// Convenience: `<name>text</name>`.
    pub fn leaf(&mut self, name: &str, content: &str) -> NodeId {
        let el = self.start_element(name);
        if !content.is_empty() {
            self.text(content);
        }
        self.end_element();
        el
    }

    /// Finish building; panics if elements are left open.
    pub fn finish(self) -> Document {
        assert_eq!(self.stack.len(), 1, "unclosed elements at finish()");
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        let mut b = DocumentBuilder::new("t.xml");
        b.start_element("bib");
        b.start_element("book");
        b.attribute("year", "1994");
        b.leaf("title", "TCP/IP Illustrated");
        b.leaf("author", "Stevens");
        b.end_element();
        b.start_element("book");
        b.attribute("year", "2000");
        b.leaf("title", "Data on the Web");
        b.leaf("author", "Abiteboul");
        b.leaf("author", "Buneman");
        b.end_element();
        b.end_element();
        b.finish()
    }

    /// Every live node in document order, attributes included.
    fn full_order(d: &Document) -> Vec<NodeId> {
        d.subtree_nodes(NodeId::DOCUMENT)
    }

    fn assert_keys_ordered(d: &Document) {
        let all = full_order(d);
        for w in all.windows(2) {
            assert!(
                w[0] < w[1],
                "ordering keys must follow document order: {:?} !< {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn navigation_and_names() {
        let d = sample();
        let root = d.root_element().unwrap();
        assert_eq!(d.node_name(root), Some("bib"));
        let books: Vec<_> = d.children(root).collect();
        assert_eq!(books.len(), 2);
        assert_eq!(d.node_name(books[0]), Some("book"));
        assert_eq!(d.parent(books[0]), Some(root));
    }

    #[test]
    fn document_order_is_node_id_order() {
        let d = sample();
        let all: Vec<_> = d.descendants(NodeId::DOCUMENT).collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted, "pre-order must equal NodeId order");
        assert_keys_ordered(&d);
    }

    #[test]
    fn attributes_are_found_by_name() {
        let d = sample();
        let root = d.root_element().unwrap();
        let book = d.children(root).next().unwrap();
        let year = d.attribute(book, "year").unwrap();
        assert_eq!(d.text(year), "1994");
        assert_eq!(d.attribute(book, "missing"), None);
    }

    /// The XPath definition, spelled out: concatenate the text nodes of
    /// the subtree in document order.
    fn concatenated(d: &Document, id: NodeId) -> String {
        match d.kind(id) {
            NodeKind::Text | NodeKind::Attribute(_) => d.text(id).to_string(),
            _ => d.children(id).map(|c| concatenated(d, c)).collect(),
        }
    }

    #[test]
    fn string_value_borrowed_and_concatenated_forms_agree() {
        // Mixed content at several depths, an empty element, a lone
        // text under nested elements, adjacent texts after an update.
        let mut d = crate::parse_document(
            "m.xml",
            r#"<r a="1">lead<e/><p>one<b>two</b>three</p><q><w><x>deep</x></w></q>tail</r>"#,
        )
        .unwrap();
        let frag = crate::parse_document("f", "<z>new<y k=\"v\">er</y></z>").unwrap();
        let r = d.root_element().unwrap();
        d.insert_subtree(r, None, &frag, frag.root_element().unwrap())
            .unwrap();
        let mut borrowed = 0;
        for n in d.subtree_nodes(NodeId::DOCUMENT) {
            let v = d.string_value(n);
            assert_eq!(v, concatenated(&d, n), "node {n:?}");
            borrowed += matches!(v, Cow::Borrowed(_)) as usize;
        }
        let value_of = |name: &str| {
            let n = d
                .descendants(NodeId::DOCUMENT)
                .find(|&n| d.node_name(n) == Some(name))
                .unwrap();
            d.string_value(n)
        };
        // One stored string below the node: borrowed, however deep.
        assert!(matches!(value_of("q"), Cow::Borrowed("deep")));
        assert!(matches!(value_of("e"), Cow::Borrowed("")));
        assert!(matches!(value_of("p"), Cow::Owned(_)));
        assert_eq!(value_of("p"), "onetwothree");
        assert_eq!(value_of("r"), "leadonetwothreedeeptailnewer");
        assert!(
            borrowed >= 10,
            "texts, attributes and single-text elements borrow"
        );
    }

    #[test]
    fn string_value_concatenates_text() {
        let d = sample();
        let root = d.root_element().unwrap();
        let book = d.children(root).next().unwrap();
        assert_eq!(d.string_value(book), "TCP/IP IllustratedStevens");
        let title = d.children(book).next().unwrap();
        assert_eq!(d.string_value(title), "TCP/IP Illustrated");
    }

    #[test]
    fn descendants_stays_within_subtree() {
        let d = sample();
        let root = d.root_element().unwrap();
        let book1 = d.children(root).next().unwrap();
        let names: Vec<_> = d
            .descendants(book1)
            .filter_map(|n| d.node_name(n).map(str::to_string))
            .collect();
        assert_eq!(names, vec!["title", "author"]);
    }

    #[test]
    fn text_merging() {
        let mut b = DocumentBuilder::new("m.xml");
        b.start_element("a");
        b.text("one ");
        b.text("two");
        b.end_element();
        let d = b.finish();
        let a = d.root_element().unwrap();
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(d.text(kids[0]), "one two");
    }

    #[test]
    fn is_ancestor() {
        let d = sample();
        let root = d.root_element().unwrap();
        let book = d.children(root).next().unwrap();
        let title = d.children(book).next().unwrap();
        assert!(d.is_ancestor(root, title));
        assert!(d.is_ancestor(NodeId::DOCUMENT, title));
        assert!(!d.is_ancestor(title, root));
        assert!(!d.is_ancestor(book, book));
    }

    // -----------------------------------------------------------------
    // Updates
    // -----------------------------------------------------------------

    fn frag(xml: &str) -> Document {
        crate::parser::parse_document("frag.xml", xml).unwrap()
    }

    #[test]
    fn insert_between_siblings_preserves_order_invariant() {
        let mut d = sample();
        let root = d.root_element().unwrap();
        let books: Vec<_> = d.children(root).collect();
        let f = frag("<book year=\"1997\"><title>Middle</title></book>");
        let before = d.node_count();
        let inserted = d
            .insert_subtree(root, Some(books[1]), &f, f.root_element().unwrap())
            .unwrap();
        assert_eq!(d.node_count(), before + 4);
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.order_epoch(), 0, "one insert fits the build gap");
        assert!(books[0] < inserted && inserted < books[1]);
        let titles: Vec<String> = d
            .descendants(NodeId::DOCUMENT)
            .filter(|&n| d.node_name(n) == Some("title"))
            .map(|n| d.string_value(n).into_owned())
            .collect();
        assert_eq!(
            titles,
            vec!["TCP/IP Illustrated", "Middle", "Data on the Web"]
        );
        assert_keys_ordered(&d);
        // The inserted element's attribute is navigable.
        let y = d.attribute(inserted, "year").unwrap();
        assert_eq!(d.text(y), "1997");
    }

    #[test]
    fn append_at_document_end_extends_keys() {
        let mut d = sample();
        let root = d.root_element().unwrap();
        let f = frag("<book><title>Last</title></book>");
        let inserted = d
            .insert_subtree(root, None, &f, f.root_element().unwrap())
            .unwrap();
        let all = full_order(&d);
        assert_eq!(*all.last().unwrap(), {
            let t = d.children(inserted).next().unwrap();
            d.children(t).next().unwrap()
        });
        assert_keys_ordered(&d);
    }

    #[test]
    fn repeated_splits_trigger_local_rebalance_and_keep_order() {
        let mut d = frag("<r><a>x</a><b>y</b></r>");
        let root = d.root_element().unwrap();
        let f = frag("<m>z</m>");
        let froot = f.root_element().unwrap();
        // Always insert before the (current) second child: every insert
        // splits the same gap, so the build gap (2³²) exhausts after at
        // most ~32 splits and a local rebalance must fire — without ever
        // breaking the order invariant.
        for i in 0..80 {
            let second = d.children(root).nth(1).unwrap();
            let ins = d.insert_subtree(root, Some(second), &f, froot).unwrap();
            assert!(d.is_live(ins));
            assert_keys_ordered(&d);
            if d.order_epoch() > 0 && i < 40 {
                // Rebalanced at least once well before key exhaustion.
            }
        }
        assert!(d.order_epoch() > 0, "the gap must have exhausted");
        let kids: Vec<_> = d.children(root).collect();
        assert_eq!(kids.len(), 82);
        assert_eq!(d.node_name(kids[0]), Some("a"));
        assert_eq!(d.node_name(*kids.last().unwrap()), Some("b"));
    }

    #[test]
    fn delete_subtree_unlinks_and_kills_handles() {
        let mut d = sample();
        let root = d.root_element().unwrap();
        let books: Vec<_> = d.children(root).collect();
        let before = d.node_count();
        let removed = d.delete_subtree(books[0]).unwrap();
        assert_eq!(removed, 6, "book, @year, title+text, author+text");
        assert_eq!(d.node_count(), before - 6);
        assert!(!d.is_live(books[0]));
        assert!(d.is_live(books[1]));
        assert_eq!(d.children(root).count(), 1);
        assert_keys_ordered(&d);
        // Deleting again: the handle is stale.
        assert_eq!(d.delete_subtree(books[0]), Err(UpdateError::StaleNode));
    }

    #[test]
    fn delete_attribute_unlinks_attr_chain() {
        let mut d = frag("<r><e a=\"1\" b=\"2\" c=\"3\">t</e></r>");
        let e = d.children(d.root_element().unwrap()).next().unwrap();
        let b = d.attribute(e, "b").unwrap();
        d.delete_subtree(b).unwrap();
        let names: Vec<_> = d
            .attributes(e)
            .map(|a| d.node_name(a).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["a", "c"]);
        assert_keys_ordered(&d);
    }

    #[test]
    fn replace_text_on_text_and_attribute_nodes() {
        let mut d = sample();
        let root = d.root_element().unwrap();
        let book = d.children(root).next().unwrap();
        let title = d.children(book).next().unwrap();
        let text = d.children(title).next().unwrap();
        d.replace_text(text, "Renamed").unwrap();
        assert_eq!(d.string_value(title), "Renamed");
        let year = d.attribute(book, "year").unwrap();
        d.replace_text(year, "2024").unwrap();
        assert_eq!(d.string_value(year), "2024");
        assert_eq!(d.replace_text(title, "no"), Err(UpdateError::NotText));
        assert_eq!(d.epoch(), 2);
    }

    #[test]
    fn update_validation_rejects_bad_targets() {
        let mut d = sample();
        let root = d.root_element().unwrap();
        let book = d.children(root).next().unwrap();
        let f = frag("<x/>");
        let froot = f.root_element().unwrap();
        // `before` not a child of the parent.
        assert_eq!(
            d.insert_subtree(root, Some(d.children(book).next().unwrap()), &f, froot)
                .unwrap_err(),
            UpdateError::NotAChild
        );
        // Document node is not an element parent.
        assert_eq!(
            d.insert_subtree(NodeId::DOCUMENT, None, &f, froot)
                .unwrap_err(),
            UpdateError::NotAnElement
        );
        // Document node cannot be deleted.
        assert_eq!(
            d.delete_subtree(NodeId::DOCUMENT).unwrap_err(),
            UpdateError::CannotDeleteRoot
        );
        // Foreign/stale handles are detected.
        let other = sample();
        let foreign = other.descendants(NodeId::DOCUMENT).last().unwrap();
        let huge = NodeId::new(9999, 1);
        assert!(!d.is_live(huge));
        assert_eq!(d.delete_subtree(huge), Err(UpdateError::StaleNode));
        let _ = foreign; // same shape as `d`, so it happens to be live there
    }

    #[test]
    fn mixed_updates_keep_navigation_consistent() {
        let mut d = frag("<r><a>1</a><b>2</b><c>3</c></r>");
        let root = d.root_element().unwrap();
        let f = frag("<n><m>x</m></n>");
        let froot = f.root_element().unwrap();
        let b = d.children(root).nth(1).unwrap();
        d.delete_subtree(b).unwrap();
        let c = d.children(root).nth(1).unwrap();
        assert_eq!(d.node_name(c), Some("c"));
        let ins = d.insert_subtree(root, Some(c), &f, froot).unwrap();
        let names: Vec<_> = d
            .children(root)
            .map(|n| d.node_name(n).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["a", "n", "c"]);
        assert_eq!(d.string_value(ins), "x");
        assert_keys_ordered(&d);
        // prev/next sibling links are consistent around the splice.
        assert_eq!(d.next_sibling(ins), Some(c));
        assert_eq!(d.parent(ins), Some(root));
    }
}
