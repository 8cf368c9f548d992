//! Learned/original clause storage for the CDCL solver.
//!
//! Every clause lives in one flat arena of 32-bit words: a fixed
//! [`HEADER`] (length, glue, flags, slot id, and the two halves of the
//! `f64` activity) followed by the clause's literals. A [`ClauseRef`] is
//! the offset of the header, so BCP reaches a clause's literals through
//! one offset instead of a slab entry that owns its own heap `Vec`. The
//! words are typed as [`Lit`] so the literals borrow as a plain
//! `&mut [Lit]` without `unsafe`; header words carry raw `u32`s in the
//! literal's code.
//!
//! [`ClauseDb::remove`] only marks a clause garbage: its words stay in
//! place, so a handle held by a stale occurrence list still reads as dead
//! rather than as some newer clause. [`ClauseDb::compact`] slides the live
//! clauses down in their existing order and returns the [`Relocation`] the
//! owner applies to its watches and reasons; the solver runs it at the end
//! of `reduce_db` once garbage exceeds a quarter of the arena
//! ([`ClauseDb::needs_compaction`]).
//!
//! Each header also carries a *slot id* minted from a LIFO free list,
//! exactly as the slab this store replaced recycled its indices. Clause
//! reduction breaks score ties by slot id, so the deletion order — and
//! with it the search trajectory — does not depend on arena offsets.

use crate::varmap::at;
use cnf::Lit;
use std::fmt;

/// Words in a clause header.
pub(crate) const HEADER: usize = 6;
const LEN: usize = 0;
const GLUE: usize = 1;
const FLAGS: usize = 2;
const SLOT: usize = 3;
const ACTIVITY_LO: usize = 4;
const ACTIVITY_HI: usize = 5;

const LEARNED: u32 = 1;
const IMPORTED: u32 = 1 << 1;
const PROTECTED: u32 = 1 << 2;
const GARBAGE: u32 = 1 << 3;

/// The `f64` activity stored as two header words.
#[inline]
fn join_activity(hi: u32, lo: u32) -> f64 {
    f64::from_bits(u64::from(hi) << 32 | u64::from(lo))
}

/// A handle to a clause inside a [`ClauseDb`]: the arena offset of its
/// header. Stable until the next [`ClauseDb::compact`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// The arena offset of the clause header.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The handle of a header at arena offset `index`. Only the invariant
    /// auditor, which walks the headers itself, mints handles this way.
    pub(crate) fn from_index(index: usize) -> ClauseRef {
        ClauseRef(index as u32)
    }
}

impl fmt::Debug for ClauseRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClauseRef({})", self.0)
    }
}

/// A borrowed view of one stored clause: its literals plus the metadata
/// clause-deletion policies consume.
#[derive(Clone, Copy)]
pub struct ClauseView<'a> {
    header: &'a [Lit],
    lits: &'a [Lit],
}

impl<'a> ClauseView<'a> {
    #[inline]
    fn word(&self, k: usize) -> u32 {
        at(self.header, k).code()
    }

    #[inline]
    fn flag(&self, flag: u32) -> bool {
        self.word(FLAGS) & flag != 0
    }

    /// The clause's literals. The first two are the watched literals.
    #[inline]
    pub fn lits(&self) -> &'a [Lit] {
        self.lits
    }

    /// The literal at position `k` (bounds-audited).
    #[inline]
    pub fn lit(&self, k: usize) -> Lit {
        at(self.lits, k)
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Literal block distance at learn time.
    #[inline]
    pub fn glue(&self) -> u32 {
        self.word(GLUE)
    }

    /// Bumped whenever the clause participates in conflict analysis.
    #[inline]
    pub fn activity(&self) -> f64 {
        join_activity(self.word(ACTIVITY_HI), self.word(ACTIVITY_LO))
    }

    /// Whether this clause was learned (original clauses are never deleted
    /// by reduction).
    #[inline]
    pub fn learned(&self) -> bool {
        self.flag(LEARNED)
    }

    /// Whether the clause was imported from another portfolio worker.
    /// Imported clauses are always learned and go through the same
    /// reduction machinery as locally learned ones.
    #[inline]
    pub fn imported(&self) -> bool {
        self.flag(IMPORTED)
    }

    /// Protected clauses survive the next reduction (recently used).
    #[inline]
    pub fn protected(&self) -> bool {
        self.flag(PROTECTED)
    }

    /// The clause's slot id: the reduction tie-break (see the module docs).
    #[inline]
    pub fn slot(&self) -> u32 {
        self.word(SLOT)
    }
}

/// Where [`ClauseDb::compact`] moved each live clause, in arena order.
#[derive(Debug, Default)]
pub struct Relocation {
    moves: Vec<(ClauseRef, ClauseRef)>,
}

impl Relocation {
    /// The new handle of the clause that lived at `old`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `old` was not a live clause when the
    /// arena was compacted; release builds return `old` unchanged.
    pub fn map(&self, old: ClauseRef) -> ClauseRef {
        match self.moves.binary_search_by_key(&old, |&(from, _)| from) {
            Ok(i) => at(&self.moves, i).1,
            Err(_) => {
                debug_assert!(false, "{old:?} was not live at compaction");
                old
            }
        }
    }
}

/// The clause arena with its counters and slot free list.
#[derive(Default)]
pub struct ClauseDb {
    arena: Vec<Lit>,
    /// Recycled slot ids, reused last-in first-out.
    free_slots: Vec<u32>,
    /// Slot ids minted so far (the next fresh one).
    slots: u32,
    /// Words held by garbage clauses, header included.
    wasted: usize,
    compactions: u64,
    num_learned: usize,
    num_original: usize,
    num_imported: usize,
    lits_in_learned: usize,
}

impl ClauseDb {
    /// Creates an empty database whose arena holds `words` words before
    /// it reallocates (see [`ClauseDb::words_for`]).
    pub fn with_capacity(words: usize) -> Self {
        ClauseDb {
            arena: Vec::with_capacity(words),
            ..Self::default()
        }
    }

    /// Arena words needed to store `clauses` clauses holding `lits`
    /// literals in total.
    pub fn words_for(clauses: usize, lits: usize) -> usize {
        clauses * HEADER + lits
    }

    /// Inserts a clause and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lits` has fewer than two literals; unit
    /// and empty clauses are handled on the trail, not stored.
    pub fn add(&mut self, lits: &[Lit], learned: bool, glue: u32) -> ClauseRef {
        self.add_full(lits, learned, false, glue)
    }

    /// Inserts a clause learned by another portfolio worker. Imported
    /// clauses are counted as learned *and* tracked separately so the
    /// invariant auditor can cross-check the exchange bookkeeping.
    pub fn add_imported(&mut self, lits: &[Lit], glue: u32) -> ClauseRef {
        self.add_full(lits, true, true, glue)
    }

    fn add_full(&mut self, lits: &[Lit], learned: bool, imported: bool, glue: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "stored clauses must have >= 2 literals");
        debug_assert!(learned || !imported, "imported clauses must be learned");
        // xtask: allow(no-hard-assert) capacity contract: a handle is a u32 offset, so a larger arena would alias clauses
        assert!(
            self.arena.len() + HEADER + lits.len() <= u32::MAX as usize,
            "clause arena exceeds 2^32 words"
        );
        if learned {
            self.num_learned += 1;
            self.lits_in_learned += lits.len();
        } else {
            self.num_original += 1;
        }
        if imported {
            self.num_imported += 1;
        }
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots += 1;
            self.slots - 1
        });
        let flags = if learned { LEARNED } else { 0 } | if imported { IMPORTED } else { 0 };
        let cref = ClauseRef(self.arena.len() as u32);
        let header: [u32; HEADER] = [lits.len() as u32, glue, flags, slot, 0, 0];
        self.arena.extend(header.map(Lit::from_code));
        self.arena.extend_from_slice(lits);
        cref
    }

    /// The arena words `start..start + n`: with [`ClauseDb::words_mut`],
    /// the single audited indexing site of this module (`ClauseRef`s are
    /// only minted by [`ClauseDb::add`] and [`ClauseDb::compact`]).
    #[inline]
    fn words(&self, start: usize, n: usize) -> &[Lit] {
        debug_assert!(
            start + n <= self.arena.len(),
            "arena words {start}+{n} out of bounds"
        );
        &self.arena[start..start + n] // xtask: allow(no-index) audited arena access
    }

    /// Mutable counterpart of [`ClauseDb::words`].
    #[inline]
    fn words_mut(&mut self, start: usize, n: usize) -> &mut [Lit] {
        debug_assert!(
            start + n <= self.arena.len(),
            "arena words {start}+{n} out of bounds"
        );
        &mut self.arena[start..start + n] // xtask: allow(no-index) audited arena access
    }

    #[inline]
    fn word(&self, i: usize) -> u32 {
        at(&self.arena, i).code()
    }

    #[inline]
    fn set_word(&mut self, i: usize, value: u32) {
        if let Some(w) = self.words_mut(i, 1).first_mut() {
            *w = Lit::from_code(value);
        }
    }

    #[inline]
    fn is_garbage(&self, cref: ClauseRef) -> bool {
        self.word(cref.index() + FLAGS) & GARBAGE != 0
    }

    /// Accesses a live clause.
    ///
    /// # Panics
    ///
    /// Panics if `cref` refers to a deleted clause (debug builds).
    #[inline]
    pub fn clause(&self, cref: ClauseRef) -> ClauseView<'_> {
        debug_assert!(!self.is_garbage(cref), "access to deleted clause {cref:?}");
        let start = cref.index();
        let len = self.word(start + LEN) as usize;
        ClauseView {
            header: self.words(start, HEADER),
            lits: self.words(start + HEADER, len),
        }
    }

    /// The literals of a live clause, mutably (watch reordering).
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        debug_assert!(!self.is_garbage(cref), "access to deleted clause {cref:?}");
        let start = cref.index();
        let len = self.word(start + LEN) as usize;
        self.words_mut(start + HEADER, len)
    }

    /// The literal at position `k` of a live clause, without decoding the
    /// header (conflict analysis reads reasons one literal at a time).
    #[inline]
    pub fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        debug_assert!(
            k < self.word(cref.index() + LEN) as usize,
            "literal {k} of {cref:?}"
        );
        at(&self.arena, cref.index() + HEADER + k)
    }

    /// Adds `inc` to a clause's activity and protects it from the next
    /// reduction; returns the new activity.
    pub fn bump_activity(&mut self, cref: ClauseRef, inc: f64) -> f64 {
        let activity = self.clause(cref).activity() + inc;
        self.set_activity(cref, activity);
        let flags = self.word(cref.index() + FLAGS);
        self.set_word(cref.index() + FLAGS, flags | PROTECTED);
        activity
    }

    fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let bits = activity.to_bits();
        self.set_word(cref.index() + ACTIVITY_LO, bits as u32);
        self.set_word(cref.index() + ACTIVITY_HI, (bits >> 32) as u32);
    }

    /// Marks a clause deleted and recycles its slot id. The clause's words
    /// stay in the arena as garbage until the next [`ClauseDb::compact`].
    pub fn remove(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_garbage(cref), "double delete of {cref:?}");
        let c = self.clause(cref);
        let (learned, imported, len, slot) = (c.learned(), c.imported(), c.len(), c.slot());
        let flags = self.word(cref.index() + FLAGS);
        self.set_word(cref.index() + FLAGS, flags | GARBAGE);
        if learned {
            self.num_learned -= 1;
            self.lits_in_learned -= len;
        } else {
            self.num_original -= 1;
        }
        if imported {
            self.num_imported -= 1;
        }
        self.wasted += HEADER + len;
        self.free_slots.push(slot);
    }

    /// Whether the handle refers to a live clause.
    #[inline]
    pub fn is_live(&self, cref: ClauseRef) -> bool {
        !self.is_garbage(cref)
    }

    /// Number of live learned clauses.
    #[inline]
    pub fn num_learned(&self) -> usize {
        self.num_learned
    }

    /// Number of live original clauses.
    #[inline]
    pub fn num_original(&self) -> usize {
        self.num_original
    }

    /// Number of live imported clauses (a subset of the learned count).
    #[inline]
    pub fn num_imported(&self) -> usize {
        self.num_imported
    }

    /// Total literal occurrences in live learned clauses.
    #[inline]
    pub fn lits_in_learned(&self) -> usize {
        self.lits_in_learned
    }

    /// Heap footprint of the database in bytes: the arena's capacity plus
    /// the slot free list's. O(1).
    #[inline]
    pub fn memory_bytes(&self) -> u64 {
        let arena = self.arena.capacity() * std::mem::size_of::<Lit>();
        let free = self.free_slots.capacity() * std::mem::size_of::<u32>();
        (arena + free) as u64
    }

    /// Every header in arena order, garbage included, with its flags.
    fn headers(&self) -> impl Iterator<Item = (ClauseRef, u32)> + '_ {
        let mut next = 0;
        std::iter::from_fn(move || {
            let start = next;
            if start >= self.arena.len() {
                return None;
            }
            next = start + HEADER + self.word(start + LEN) as usize;
            Some((ClauseRef(start as u32), self.word(start + FLAGS)))
        })
    }

    /// Iterates over handles of all live clauses, in arena order.
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.headers()
            .filter(|&(_, flags)| flags & GARBAGE == 0)
            .map(|(cref, _)| cref)
    }

    /// Iterates over handles of live learned clauses, in arena order.
    pub fn iter_learned(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.headers()
            .filter(|&(_, flags)| flags & (GARBAGE | LEARNED) == LEARNED)
            .map(|(cref, _)| cref)
    }

    /// Applies `f` to every header, garbage included, in arena order.
    /// For updates that are harmless on garbage and original clauses.
    fn for_each_header(&mut self, mut f: impl FnMut(&mut Self, ClauseRef)) {
        let mut start = 0;
        while start < self.arena.len() {
            // xtask: allow(dynamic-call) only the closures of `rescale_activity` and `unprotect_all`
            f(self, ClauseRef(start as u32));
            start += HEADER + self.word(start + LEN) as usize;
        }
    }

    /// Rescales all clause activities by `factor` (activity overflow guard).
    pub fn rescale_activity(&mut self, factor: f64) {
        self.for_each_header(|db, cref| {
            let start = cref.index();
            let activity =
                join_activity(db.word(start + ACTIVITY_HI), db.word(start + ACTIVITY_LO));
            db.set_activity(cref, activity * factor);
        });
    }

    /// Clears the protection of every learned clause, so protection
    /// reflects use since the latest reduction only.
    pub fn unprotect_all(&mut self) {
        self.for_each_header(|db, cref| {
            let flags = db.word(cref.index() + FLAGS);
            db.set_word(cref.index() + FLAGS, flags & !PROTECTED);
        });
    }

    /// Whether garbage exceeds a quarter of the arena, the point at which
    /// the solver compacts.
    pub fn needs_compaction(&self) -> bool {
        self.wasted * 4 > self.arena.len()
    }

    /// Slides the live clauses down over the garbage, keeping their order,
    /// and returns where each one moved. Every handle held outside the
    /// database must be rewritten through the returned [`Relocation`].
    /// Spare capacity beyond half the live size is released.
    pub fn compact(&mut self) -> Relocation {
        let mut moves = Vec::with_capacity(self.num_learned + self.num_original);
        let (mut read, mut write) = (0, 0);
        while read < self.arena.len() {
            let words = HEADER + self.word(read + LEN) as usize;
            if self.word(read + FLAGS) & GARBAGE == 0 {
                // The copy ends at `write + words <= read + words`, so it
                // never overwrites the next header before it is read.
                self.arena.copy_within(read..read + words, write);
                moves.push((ClauseRef(read as u32), ClauseRef(write as u32)));
                write += words;
            }
            read += words;
        }
        self.arena.truncate(write);
        self.arena.shrink_to(write + write / 2);
        self.wasted = 0;
        self.compactions += 1;
        Relocation { moves }
    }

    /// Compactions run so far.
    #[cfg(test)]
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Words held by garbage clauses (the compaction trigger's counter).
    pub(crate) fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Arena length in words.
    pub(crate) fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// The `(length, garbage)` of the header at `start`, or `None` when
    /// the header would run past the arena. For the invariant auditor,
    /// which must not trust a header before checking it.
    pub(crate) fn header_at(&self, start: usize) -> Option<(usize, bool)> {
        let header = self.arena.get(start..start + HEADER)?;
        let word = |k: usize| header.get(k).map_or(0, |l| l.code());
        Some((word(LEN) as usize, word(FLAGS) & GARBAGE != 0))
    }
}

impl fmt::Debug for ClauseDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClauseDb({} original, {} learned, {} of {} words garbage)",
            self.num_original,
            self.num_learned,
            self.wasted,
            self.arena.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(ds: &[i32]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn add_and_access() {
        let mut db = ClauseDb::default();
        let c = db.add(&lits(&[1, -2, 3]), false, 0);
        assert_eq!(db.clause(c).len(), 3);
        assert_eq!(db.clause(c).lits(), &lits(&[1, -2, 3])[..]);
        assert_eq!(db.num_original(), 1);
        assert_eq!(db.num_learned(), 0);
    }

    #[test]
    fn header_round_trips_metadata() {
        let mut db = ClauseDb::default();
        let _o = db.add(&lits(&[1, 2]), false, 0);
        let c = db.add_imported(&lits(&[3, -4, 5]), 2);
        assert_eq!(c.index(), HEADER + 2, "handle is the header offset");
        let v = db.clause(c);
        assert!(v.learned() && v.imported() && !v.protected());
        assert_eq!((v.glue(), v.slot(), v.activity()), (2, 1, 0.0));
        assert_eq!(db.bump_activity(c, 1.5), 1.5);
        assert_eq!(db.bump_activity(c, 1e-300), 1.5 + 1e-300);
        assert!(db.clause(c).protected());
        db.rescale_activity(0.5);
        assert_eq!(db.clause(c).activity(), (1.5 + 1e-300) * 0.5);
        db.unprotect_all();
        assert!(!db.clause(c).protected());
        db.lits_mut(c).swap(0, 2);
        assert_eq!(db.clause(c).lits(), &lits(&[5, -4, 3])[..]);
    }

    #[test]
    fn remove_recycles_slot() {
        let mut db = ClauseDb::default();
        let a = db.add(&lits(&[1, 2]), true, 2);
        let slot = db.clause(a).slot();
        db.remove(a);
        assert!(!db.is_live(a));
        assert_eq!(db.num_learned(), 0);
        let b = db.add(&lits(&[3, 4]), true, 1);
        assert_eq!(db.clause(b).slot(), slot, "slot id should be recycled");
        assert_ne!(a, b, "handles are offsets and are never reused");
        assert!(db.is_live(b));
        assert!(!db.is_live(a), "the old handle still reads as garbage");
    }

    #[test]
    fn slot_ids_are_reused_lifo() {
        let mut db = ClauseDb::default();
        let refs: Vec<ClauseRef> = (1..=4)
            .map(|i| db.add(&lits(&[i, i + 1]), true, 2))
            .collect();
        let slots: Vec<u32> = refs.iter().map(|&c| db.clause(c).slot()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        db.remove(refs[1]);
        db.remove(refs[3]);
        db.remove(refs[0]);
        let reused: Vec<u32> = (0..4)
            .map(|i| {
                let c = db.add(&lits(&[10 + i, 20 + i]), true, 2);
                db.clause(c).slot()
            })
            .collect();
        assert_eq!(reused, vec![0, 3, 1, 4], "last freed first, then fresh ids");
        assert_eq!(db.slots, 5);
        assert!(db.free_slots.is_empty());
    }

    #[test]
    fn learned_literal_accounting() {
        let mut db = ClauseDb::default();
        let a = db.add(&lits(&[1, 2, 3]), true, 2);
        let _b = db.add(&lits(&[1, 2]), true, 2);
        assert_eq!(db.lits_in_learned(), 5);
        db.remove(a);
        assert_eq!(db.lits_in_learned(), 2);
    }

    #[test]
    fn iter_learned_skips_garbage_and_original() {
        let mut db = ClauseDb::default();
        let _o = db.add(&lits(&[1, 2]), false, 0);
        let l1 = db.add(&lits(&[3, 4]), true, 2);
        let l2 = db.add(&lits(&[5, 6]), true, 2);
        db.remove(l1);
        let learned: Vec<_> = db.iter_learned().collect();
        assert_eq!(learned, vec![l2]);
        assert_eq!(db.iter_refs().count(), 2);
    }

    #[test]
    fn compaction_keeps_order_and_relocates() {
        let mut db = ClauseDb::default();
        let clauses: Vec<Vec<Lit>> = (1..=6).map(|i| lits(&[i, -(i + 1), i + 2])).collect();
        // Alternate learned and original, so compaction moves both kinds.
        let refs: Vec<ClauseRef> = (0..6).map(|k| db.add(&clauses[k], k % 2 == 1, 2)).collect();
        db.remove(refs[0]);
        db.remove(refs[2]);
        db.remove(refs[3]);
        assert!(db.needs_compaction());
        assert_eq!(db.wasted_words(), 3 * (HEADER + 3));
        let moved = db.compact();
        let survivors = [refs[1], refs[4], refs[5]];
        let expected: Vec<(ClauseRef, ClauseRef)> = survivors
            .iter()
            .enumerate()
            .map(|(k, &old)| (old, ClauseRef((k * (HEADER + 3)) as u32)))
            .collect();
        assert_eq!(moved.moves, expected);
        assert_eq!(
            db.iter_refs().collect::<Vec<_>>(),
            expected.iter().map(|m| m.1).collect::<Vec<_>>()
        );
        for (&old, k) in survivors.iter().zip([1, 4, 5]) {
            let new = moved.map(old);
            assert_eq!(
                db.clause(new).lits(),
                &clauses[k][..],
                "literals travel with the header"
            );
        }
        assert_eq!(db.wasted_words(), 0);
        assert_eq!(db.arena_words(), 3 * (HEADER + 3));
        assert!(!db.needs_compaction());
        assert_eq!(db.compactions(), 1);
    }

    #[test]
    fn counters_survive_add_remove_and_compaction() {
        let mut db = ClauseDb::default();
        let o = db.add(&lits(&[1, 2, 3]), false, 0);
        let l = db.add(&lits(&[4, 5, 6, 7]), true, 3);
        let i = db.add_imported(&lits(&[8, 9]), 2);
        let gone = db.add(&lits(&[1, 9]), true, 2);
        db.remove(gone);
        let counts = |db: &ClauseDb| {
            (
                db.num_original(),
                db.num_learned(),
                db.num_imported(),
                db.lits_in_learned(),
            )
        };
        assert_eq!(counts(&db), (1, 2, 1, 6));
        let moved = db.compact();
        assert_eq!(counts(&db), (1, 2, 1, 6));
        assert_eq!(moved.map(o), o, "nothing before the first garbage moves");
        let (l, i) = (moved.map(l), moved.map(i));
        assert_eq!((db.clause(l).glue(), db.clause(i).glue()), (3, 2));
        assert!(db.clause(i).imported());
        db.remove(l);
        assert_eq!(counts(&db), (1, 1, 1, 2));
        let moved = db.compact();
        assert_eq!(counts(&db), (1, 1, 1, 2));
        db.remove(moved.map(i));
        assert_eq!(counts(&db), (1, 0, 0, 0));
    }

    #[test]
    fn memory_estimate_tracks_additions_and_deletions() {
        let mut db = ClauseDb::default();
        let empty = db.memory_bytes();
        let refs: Vec<ClauseRef> = (0..100)
            .map(|i| db.add(&lits(&[i + 1, i + 2, -(i + 3)]), true, 2))
            .collect();
        let full = db.memory_bytes();
        assert!(full > empty);
        for r in refs {
            db.remove(r);
        }
        // Removal only marks garbage; the words are released by compaction.
        assert!(db.memory_bytes() >= full);
        let _ = db.compact();
        assert!(db.memory_bytes() < full);
        assert!(
            db.memory_bytes() > 0,
            "the slot free list is still accounted"
        );
    }

    #[test]
    fn with_capacity_reserves_the_input() {
        let mut db = ClauseDb::with_capacity(ClauseDb::words_for(2, 5));
        let before = db.memory_bytes();
        db.add(&lits(&[1, 2]), false, 0);
        db.add(&lits(&[1, 2, 3]), false, 0);
        assert_eq!(
            db.memory_bytes(),
            before,
            "no reallocation for the reserved input"
        );
    }

    // The length check is a `debug_assert!`: release builds have no
    // such panic to expect.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = ">= 2")]
    fn rejects_unit_clause() {
        ClauseDb::default().add(&lits(&[1]), false, 0);
    }

    #[test]
    fn imported_accounting() {
        let mut db = ClauseDb::default();
        let a = db.add_imported(&lits(&[1, 2, 3]), 2);
        let _b = db.add(&lits(&[4, 5]), true, 1);
        assert!(db.clause(a).imported() && db.clause(a).learned());
        assert_eq!(db.num_imported(), 1);
        assert_eq!(db.num_learned(), 2);
        db.remove(a);
        assert_eq!(db.num_imported(), 0);
        assert_eq!(db.num_learned(), 1);
    }
}
