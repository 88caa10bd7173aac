//! The coordinator's flat join state, shared by LEC pruning
//! (Algorithm 2, [`crate::prune`]) and LEC assembly (Algorithm 3,
//! [`crate::assembly`]).
//!
//! A state — an LPM, a LEC feature, or a join of several — is one
//! fixed-width run of `u64` words laid out by a per-query [`Layout`]:
//!
//! ```text
//! [ fragment | sign | bound | edge mask (ew) | binding (nv) | edge table (ne) ]
//! ```
//!
//! * `fragment` — the source fragment of an LPM (`u64::MAX` once joined),
//!   or the fragment bitmask of a feature;
//! * `sign` — the internal-vertex mask (the LECSign of Definition 8);
//! * `bound` — which query vertices `binding` binds;
//! * `edge mask` — which query edges the edge table maps, one bit per
//!   query edge over `ew = ⌈ne/64⌉` words (a query may have more than 64
//!   edges over at most 64 vertices);
//! * `binding` — one data vertex per query vertex, `0` where unbound;
//! * `edge table` — per query edge, `1 +` the [`EdgeIds`] id of the
//!   `(query edge, crossing data edge)` pair it is matched to, `0` where
//!   unmatched. An edge compare is one word, and the id doubles as the
//!   pair's row in the kernels' posting indexes.
//!
//! Every unset word is zero, so two states are structurally equal exactly
//! when their word runs are equal, and two states that agree wherever
//! both are set join by OR-ing their words. A join test is mask math plus
//! word compares, and a dedup hashes a slice and confirms it by equality
//! ([`FlatSet`]). States live in arenas that keep their capacity, so the
//! join kernels stop allocating once warm.

use fxhash::FxHashMap;
use gstored_rdf::EdgeRef;
use gstored_store::LocalPartialMatch;

use crate::lec::LecFeature;

/// Word offset of the fragment word.
pub(crate) const FRAG: usize = 0;
/// Word offset of the sign (internal-vertex) mask.
pub(crate) const SIGN: usize = 1;
/// Word offset of the bound-vertex mask.
pub(crate) const BOUND: usize = 2;
/// Word offset of the first edge-mask word.
const EMASK: usize = 3;

/// The `fragment` word of a joined assembly state.
pub(crate) const JOINED: u64 = u64::MAX;

/// Dense ids for the `(query edge, data edge)` pairs one kernel call
/// meets, in first-seen order.
#[derive(Debug, Default)]
pub(crate) struct EdgeIds {
    ids: FxHashMap<(usize, EdgeRef), u32>,
}

impl EdgeIds {
    /// The id of `e` matched to query edge `qe`.
    #[inline]
    pub fn id(&mut self, qe: usize, e: EdgeRef) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry((qe, e)).or_insert(next)
    }

    /// Ids issued so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Word positions of one query's flat states.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// Query vertices (≤ 64: signs and bound sets are single words).
    pub nv: usize,
    ew: usize,
    bind: usize,
    table: usize,
    /// Words per state.
    pub width: usize,
}

impl Layout {
    /// The layout for `nv` query vertices and `ne` query edges.
    pub fn new(nv: usize, ne: usize) -> Layout {
        assert!(nv <= 64, "LECSign masks are 64-bit");
        let ew = ne.div_ceil(64);
        let bind = EMASK + ew;
        let table = bind + nv;
        Layout {
            nv,
            ew,
            bind,
            table,
            width: table + ne,
        }
    }

    /// The query edges a state maps, ascending.
    pub fn edges<'a>(&self, s: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        (0..self.ew).flat_map(move |w| BitIter(s[EMASK + w]).map(move |b| w * 64 + b))
    }

    /// The [`EdgeIds`] id of the pair query edge `qe` is matched to
    /// (`qe` must be one of [`Layout::edges`]).
    #[inline]
    pub fn edge(&self, s: &[u64], qe: usize) -> u32 {
        (s[self.table + qe] - 1) as u32
    }

    /// The binding words (one per query vertex, `0` where unbound).
    #[inline]
    pub fn binding<'a>(&self, s: &'a [u64]) -> &'a [u64] {
        &s[self.bind..self.bind + self.nv]
    }

    /// Write `lpm` as a state. A query edge listed twice keeps its last
    /// data edge; binding entries past `nv` are ignored.
    pub fn encode_lpm(&self, lpm: &LocalPartialMatch, ids: &mut EdgeIds, out: &mut [u64]) {
        out.fill(0);
        out[FRAG] = lpm.fragment as u64;
        out[SIGN] = lpm.internal_mask;
        for (v, b) in lpm.binding.iter().take(self.nv).enumerate() {
            if let Some(t) = b {
                out[BOUND] |= 1 << v;
                out[self.bind + v] = t.0;
            }
        }
        for &(e, qe) in &lpm.crossing {
            out[EMASK + qe / 64] |= 1 << (qe % 64);
            out[self.table + qe] = u64::from(ids.id(qe, e)) + 1;
        }
    }

    /// Write `f` as a state whose binding is the one its crossing-edge
    /// mapping implies through `query_edges`. Returns `false` when that
    /// implied binding contradicts itself — such a feature fails the
    /// endpoint condition of Definition 9 against every partner, so it
    /// can never join — or when the mapping sends one query edge to two
    /// data edges, which no local partial match can: such a malformed
    /// feature is treated as never joining.
    pub fn encode_feature(
        &self,
        f: &LecFeature,
        query_edges: &[(usize, usize)],
        ids: &mut EdgeIds,
        out: &mut [u64],
    ) -> bool {
        out.fill(0);
        out[FRAG] = f.fragments;
        out[SIGN] = f.sign;
        let mut consistent = true;
        for &(e, qe) in &f.mapping {
            let id = u64::from(ids.id(qe, e)) + 1;
            out[EMASK + qe / 64] |= 1 << (qe % 64);
            consistent &= out[self.table + qe] == 0 || out[self.table + qe] == id;
            out[self.table + qe] = id;
            let (qf, qt) = query_edges[qe];
            for (qv, dv) in [(qf, e.from.0), (qt, e.to.0)] {
                consistent &= out[BOUND] & (1 << qv) == 0 || out[self.bind + qv] == dv;
                out[BOUND] |= 1 << qv;
                out[self.bind + qv] = dv;
            }
        }
        consistent
    }

    /// The join conditions the two kernels share: at least one query edge
    /// matched to the same data edge on both sides (Definition 9
    /// condition 2), no query edge matched to different data edges
    /// (condition 3), and agreement on every commonly-bound vertex.
    #[inline]
    pub fn agree(&self, a: &[u64], b: &[u64]) -> bool {
        let mut shared = false;
        for w in 0..self.ew {
            let common = a[EMASK + w] & b[EMASK + w];
            for bit in BitIter(common) {
                let at = self.table + w * 64 + bit;
                if a[at] != b[at] {
                    return false;
                }
            }
            shared |= common != 0;
        }
        if !shared {
            return false;
        }
        for v in BitIter(a[BOUND] & b[BOUND]) {
            if a[self.bind + v] != b[self.bind + v] {
                return false;
            }
        }
        true
    }
}

/// Write the join of two states that [`Layout::agree`] into `out`: where
/// both sides set a word they set it equal, so the join is their OR
/// (the fragment word included — a feature's fragment bitmask unions).
#[inline]
pub(crate) fn merge(a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x | y;
    }
}

/// The set bits of a word, ascending.
pub(crate) struct BitIter(pub u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// A 64-bit hash of a word sequence (the Fx mix, one multiply per word).
#[inline]
pub(crate) fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0u64;
    for w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    h
}

/// An index over slices stored elsewhere, keyed by their 64-bit hash: a
/// lookup walks the ids filed under the hash and confirms each with a
/// caller-given equality, so a hash collision never merges two keys.
#[derive(Debug, Default)]
pub(crate) struct SliceIndex {
    /// Hash → the newest entry filed under it.
    heads: FxHashMap<u64, u32>,
    /// `(id, older entry under the same hash)`.
    entries: Vec<(u32, u32)>,
}

const NONE: u32 = u32::MAX;

impl SliceIndex {
    /// Forget every entry, keeping the capacity.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
    }

    /// The id of an entry whose hash is `hash` and for which `eq` holds;
    /// otherwise file `id` under `hash` and return `None`.
    pub fn get_or_insert(
        &mut self,
        hash: u64,
        id: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let head = self.heads.entry(hash).or_insert(NONE);
        let mut at = *head;
        while at != NONE {
            let (existing, older) = self.entries[at as usize];
            if eq(existing) {
                return Some(existing);
            }
            at = older;
        }
        self.entries.push((id, *head));
        *head = self.entries.len() as u32 - 1;
        None
    }
}

/// An arena of fixed-width word slices with an optional content index:
/// [`FlatSet::push`] appends unindexed, [`FlatSet::insert`] appends only
/// if no indexed slice has the same words.
#[derive(Debug)]
pub(crate) struct FlatSet {
    width: usize,
    words: Vec<u64>,
    index: SliceIndex,
}

impl FlatSet {
    /// An empty set of `width`-word slices (`width > 0`).
    pub fn new(width: usize) -> FlatSet {
        debug_assert!(width > 0);
        FlatSet {
            width,
            words: Vec::new(),
            index: SliceIndex::default(),
        }
    }

    /// Slices stored, indexed or not.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() / self.width
    }

    /// The slice with id `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &[u64] {
        let at = id as usize * self.width;
        &self.words[at..at + self.width]
    }

    /// Every stored slice, in id order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.width)
    }

    /// Forget every slice, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.index.clear();
    }

    /// Append `s` without indexing it; returns its id.
    pub fn push(&mut self, s: &[u64]) -> u32 {
        let id = self.len() as u32;
        self.words.extend_from_slice(s);
        id
    }

    /// Append and index `s` unless an indexed slice equals it. Returns
    /// the id of the slice holding `s` and whether it was new.
    pub fn insert(&mut self, s: &[u64]) -> (u32, bool) {
        let id = self.len() as u32;
        let (words, width) = (&self.words, self.width);
        let hash = hash_words(s.iter().copied());
        match self.index.get_or_insert(hash, id, |other| {
            let at = other as usize * width;
            &words[at..at + width] == s
        }) {
            Some(existing) => (existing, false),
            None => {
                self.words.extend_from_slice(s);
                (id, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstored_rdf::TermId;

    fn edge(f: u64, l: u64, t: u64) -> EdgeRef {
        EdgeRef {
            from: TermId(f),
            label: TermId(l),
            to: TermId(t),
        }
    }

    #[test]
    fn flat_set_dedups_by_content_and_survives_growth() {
        let mut set = FlatSet::new(3);
        for round in 0..2 {
            for i in 0..1000u64 {
                let (id, new) = set.insert(&[i, i * 7, 1]);
                assert_eq!(id as u64, i);
                assert_eq!(new, round == 0);
            }
        }
        assert_eq!(set.len(), 1000);
        assert_eq!(set.get(17), &[17, 119, 1]);
        set.clear();
        assert_eq!(set.len(), 0);
        assert_eq!(set.insert(&[5, 35, 1]), (0, true));
    }

    #[test]
    fn colliding_hashes_are_told_apart_by_equality() {
        let mut index = SliceIndex::default();
        let keys = [10u32, 20, 30];
        for (id, _) in keys.iter().enumerate() {
            // Every key under one hash: only equality separates them.
            assert_eq!(
                index.get_or_insert(42, id as u32, |other| keys[other as usize] == keys[id]),
                None
            );
        }
        assert_eq!(
            index.get_or_insert(42, 9, |other| keys[other as usize] == 20),
            Some(1)
        );
    }

    #[test]
    fn more_than_64_edges_span_several_mask_words() {
        let layout = Layout::new(2, 130);
        let lpm = LocalPartialMatch {
            fragment: 3,
            binding: vec![Some(TermId(1)), None],
            crossing: vec![(edge(1, 2, 3), 0), (edge(4, 5, 6), 129)],
            internal_mask: 0b01,
        };
        let mut ids = EdgeIds::default();
        let mut s = vec![0; layout.width];
        layout.encode_lpm(&lpm, &mut ids, &mut s);
        assert_eq!(layout.edges(&s).collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(layout.edge(&s, 129), ids.id(129, edge(4, 5, 6)));
    }

    #[test]
    fn features_that_can_never_join_are_reported() {
        let layout = Layout::new(2, 1);
        let qedges = [(0, 1)];
        let feature = |mapping| LecFeature {
            fragments: 1,
            mapping,
            sign: 0b01,
            sources: vec![0],
        };
        let mut ids = EdgeIds::default();
        let mut s = vec![0; layout.width];
        let ok = feature(vec![(edge(1, 7, 2), 0), (edge(1, 7, 2), 0)]);
        assert!(layout.encode_feature(&ok, &qedges, &mut ids, &mut s));
        assert_eq!(layout.binding(&s), &[1, 2]);
        let two_edges = feature(vec![(edge(1, 7, 2), 0), (edge(1, 8, 2), 0)]);
        assert!(!layout.encode_feature(&two_edges, &qedges, &mut ids, &mut s));
        let v0_twice = feature(vec![(edge(1, 7, 2), 0), (edge(9, 7, 2), 0)]);
        assert!(!layout.encode_feature(&v0_twice, &qedges, &mut ids, &mut s));
    }

    #[test]
    fn agreeing_states_join_by_or() {
        let layout = Layout::new(3, 2);
        let mut ids = EdgeIds::default();
        let lpm =
            |fragment, binding: [Option<u64>; 3], crossing, internal_mask| LocalPartialMatch {
                fragment,
                binding: binding.iter().map(|b| b.map(TermId)).collect(),
                crossing,
                internal_mask,
            };
        let (e01, e12) = (edge(10, 1, 20), edge(20, 1, 30));
        let mut a = vec![0; layout.width];
        let mut b = vec![0; layout.width];
        let mut c = vec![0; layout.width];
        layout.encode_lpm(
            &lpm(0, [Some(10), Some(20), None], vec![(e01, 0)], 0b001),
            &mut ids,
            &mut a,
        );
        layout.encode_lpm(
            &lpm(
                1,
                [Some(10), Some(20), Some(30)],
                vec![(e01, 0), (e12, 1)],
                0b010,
            ),
            &mut ids,
            &mut b,
        );
        layout.encode_lpm(
            &lpm(2, [None, Some(21), Some(30)], vec![(e12, 1)], 0b100),
            &mut ids,
            &mut c,
        );
        assert!(layout.agree(&a, &b));
        assert!(!layout.agree(&a, &c), "no shared edge");
        assert!(!layout.agree(&b, &c), "v1 bound to 20 and 21");
        let mut ab = vec![0; layout.width];
        merge(&a, &b, &mut ab);
        assert_eq!(ab[SIGN], 0b011);
        assert_eq!(layout.binding(&ab), &[10, 20, 30]);
        assert_eq!(layout.edges(&ab).collect::<Vec<_>>(), vec![0, 1]);
    }
}
