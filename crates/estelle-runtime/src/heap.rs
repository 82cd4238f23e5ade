//! Estelle dynamic memory.
//!
//! `new`/`dispose` allocate and free cells in a per-machine [`Heap`]. The
//! heap is part of the TAM state (paper §2.3): depth-first search must be
//! able to *save* and *restore* it around backtracking — the cost §3.2.2
//! identifies as the dominant one for MDFS.
//!
//! Storage is **chunked and copy-on-write**: cells live in fixed-size
//! chunks behind [`Arc`]s, so cloning a heap (the paper's *Save*) copies
//! only the chunk table — O(slots / CHUNK_CELLS) pointer bumps — and
//! shares every chunk with the original. A chunk is deep-copied lazily,
//! the first time a *write* (`alloc`, `dispose`, `get_mut`) lands in a
//! chunk that is still shared with some snapshot. A search that saves a
//! state and then touches three cells pays for one chunk, not for the
//! whole heap. [`Heap::unshare`] forces every chunk private again, which
//! is exactly the eager deep-clone behaviour the COW tests compare with.
//!
//! References carry a generation counter so a dangling pointer (use after
//! `dispose`) is detected deterministically instead of reading stale data.

use crate::error::{RtResult, RuntimeError};
use crate::fxhash::FxHasher;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Cells per chunk. Small enough that a copy-on-write break after a
/// snapshot copies a handful of cells, large enough that the chunk table
/// stays short. 8 keeps the break cost near the "touched cells" ideal for
/// the pointer-linked protocol buffers the paper measures.
pub const CHUNK_CELLS: usize = 8;
const CHUNK_BITS: u32 = CHUNK_CELLS.trailing_zeros();
const CHUNK_MASK: u32 = CHUNK_CELLS as u32 - 1;

/// A checked reference into a [`Heap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HeapRef {
    index: u32,
    generation: u32,
}

impl fmt::Display for HeapRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}g{}", self.index, self.generation)
    }
}

impl HeapRef {
    /// The reference's raw (slot index, generation) pair, for the stable
    /// state codec. Safe to expose: a reconstructed ref is still checked
    /// against the cell's generation on every access.
    pub(crate) fn raw_parts(&self) -> (u32, u32) {
        (self.index, self.generation)
    }

    /// Rebuild a reference from its codec representation.
    pub(crate) fn from_raw_parts(index: u32, generation: u32) -> Self {
        HeapRef { index, generation }
    }
}

#[derive(Clone, Debug, Hash, PartialEq)]
enum Cell {
    Free { generation: u32 },
    Used { generation: u32, value: Value },
}

impl Cell {
    /// Bytes this cell's storage accounts for: its in-chunk slot plus
    /// whatever its value owns *out of line* (the value's inline portion
    /// already lives in the slot).
    fn approx_bytes(&self) -> usize {
        match self {
            Cell::Free { .. } => std::mem::size_of::<Cell>(),
            Cell::Used { value, .. } => {
                std::mem::size_of::<Cell>() + value.approx_bytes() - std::mem::size_of::<Value>()
            }
        }
    }
}

/// One storage chunk plus a cached content digest. The cache makes the
/// *whole-heap* hash and byte estimate — computed on every *Save* by the
/// trace analyzer's snapshot-interning store — O(chunks) instead of
/// O(cells): only chunks written since the last digest are rescanned,
/// which is the same "touched chunks" bound the copy-on-write clone gives
/// the state copy itself.
#[derive(Clone, Debug)]
struct Chunk {
    cells: Arc<Vec<Cell>>,
    /// Cached (content hash, approx bytes) of `cells`; cleared by writes.
    /// Caches travel with clones (same content ⇒ same digest) and never
    /// cross them: invalidating one heap's cache leaves the snapshots
    /// sharing the chunk untouched.
    meta: std::cell::Cell<Option<(u64, usize)>>,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            cells: Arc::new(Vec::with_capacity(CHUNK_CELLS)),
            meta: std::cell::Cell::new(None),
        }
    }

    /// The cached digest, recomputed only after a write invalidated it.
    fn meta(&self) -> (u64, usize) {
        if let Some(m) = self.meta.get() {
            return m;
        }
        let mut h = FxHasher::default();
        let mut bytes = 0;
        for cell in self.cells.iter() {
            cell.hash(&mut h);
            bytes += cell.approx_bytes();
        }
        let m = (h.finish(), bytes);
        self.meta.set(Some(m));
        m
    }

    /// Mutable cell access: clears the digest and breaks sharing.
    fn cells_mut(&mut self) -> &mut Vec<Cell> {
        self.meta.set(None);
        Arc::make_mut(&mut self.cells)
    }
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.cells, &other.cells) || self.cells == other.cells
    }
}

/// The dynamic-memory store of one machine state. Cloning snapshots it in
/// O(chunk-table) time; the snapshot and the original then share chunks
/// copy-on-write.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Heap {
    chunks: Vec<Chunk>,
    free: Vec<u32>,
    live: usize,
    /// Total cells across all chunks (the last chunk may be partial).
    total: usize,
}

/// Content hash via the per-chunk digest cache. Consistent with
/// `PartialEq`: equal heaps have equal cell contents, free lists and
/// counters, hence equal digests.
impl Hash for Heap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for chunk in &self.chunks {
            state.write_u64(chunk.meta().0);
        }
        self.free.hash(state);
        self.live.hash(state);
        self.total.hash(state);
    }
}

impl Heap {
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of live allocations.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (capacity measure for the §3.2.2
    /// save/restore cost discussion).
    pub fn slots(&self) -> usize {
        self.total
    }

    /// Number of storage chunks backing the heap.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks currently shared with at least one snapshot (a write into
    /// one of these pays a copy-on-write break).
    pub fn shared_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| Arc::strong_count(&c.cells) > 1)
            .count()
    }

    /// Force every chunk private, eagerly deep-copying any that are still
    /// shared with a snapshot. `clone()` + `unshare()` is the eager
    /// deep-clone *Save*, the reference the COW tests compare against.
    /// Content is unchanged, so the cached chunk digests stay valid.
    pub fn unshare(&mut self) {
        for c in &mut self.chunks {
            Arc::make_mut(&mut c.cells);
        }
    }

    /// Approximate footprint in bytes of everything the heap owns,
    /// including out-of-line storage inside the cell values. Proportional
    /// rather than exact — used for the analyzer's snapshot-memory budget.
    /// Each cell's storage is counted exactly once: a cell contributes its
    /// in-chunk slot plus whatever its value owns *out of line* (the
    /// value's inline portion already lives in the slot). Chunks are
    /// counted whether shared or not; charging shared chunks once across
    /// many snapshots is the trace analyzer's job (it dedups whole
    /// snapshots, see `tango`'s snapshot store).
    pub fn approx_bytes(&self) -> usize {
        let cells: usize = self.chunks.iter().map(|c| c.meta().1).sum();
        cells
            + self.chunks.len() * std::mem::size_of::<Chunk>()
            + self.free.len() * std::mem::size_of::<u32>()
    }

    fn cell(&self, index: u32) -> Option<&Cell> {
        self.chunks
            .get((index >> CHUNK_BITS) as usize)?
            .cells
            .get((index & CHUNK_MASK) as usize)
    }

    /// Mutable access to a cell; breaks the containing chunk's sharing if
    /// a snapshot still holds it (the copy-on-write write barrier).
    fn cell_mut(&mut self, index: u32) -> Option<&mut Cell> {
        let chunk = self.chunks.get_mut((index >> CHUNK_BITS) as usize)?;
        chunk.cells_mut().get_mut((index & CHUNK_MASK) as usize)
    }

    /// Allocate a cell holding `value`, as `new(p)` does.
    pub fn alloc(&mut self, value: Value) -> HeapRef {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let cell = self.cell_mut(index).expect("free list holds valid slots");
            let generation = match cell {
                Cell::Free { generation } => *generation + 1,
                Cell::Used { .. } => unreachable!("free list holds only free cells"),
            };
            *cell = Cell::Used { generation, value };
            return HeapRef { index, generation };
        }
        let index = self.total as u32;
        if self.total.is_multiple_of(CHUNK_CELLS) {
            self.chunks.push(Chunk::new());
        }
        let last = self.chunks.last_mut().expect("chunk just ensured");
        last.cells_mut().push(Cell::Used {
            generation: 0,
            value,
        });
        self.total += 1;
        HeapRef {
            index,
            generation: 0,
        }
    }

    /// Free a cell, as `dispose(p)` does.
    pub fn dispose(&mut self, r: HeapRef) -> RtResult<()> {
        match self.cell(r.index) {
            Some(Cell::Used { generation, .. }) if *generation == r.generation => {
                *self.cell_mut(r.index).expect("cell just read") = Cell::Free {
                    generation: r.generation,
                };
                self.free.push(r.index);
                self.live -= 1;
                Ok(())
            }
            _ => Err(RuntimeError::dangling("dispose of a dangling pointer")),
        }
    }

    /// Read a cell.
    pub fn get(&self, r: HeapRef) -> RtResult<&Value> {
        match self.cell(r.index) {
            Some(Cell::Used { generation, value }) if *generation == r.generation => Ok(value),
            _ => Err(RuntimeError::dangling("dereference of a dangling pointer")),
        }
    }

    /// Encode the heap for the durable-checkpoint codec: cells in slot
    /// order, then the free list (whose order decides future slot reuse
    /// and generation bumps, so it must survive exactly). Chunk
    /// boundaries are implied by [`CHUNK_CELLS`]; `live` and `total` are
    /// re-derived on decode. Copy-on-write sharing *between* heaps is
    /// intentionally not represented — whole-state deduplication is the
    /// enclosing checkpoint format's job.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_u64(self.total as u64);
        for i in 0..self.total {
            match self.cell(i as u32).expect("slot within total") {
                Cell::Free { generation } => {
                    w.put_u8(0);
                    w.put_u32(*generation);
                }
                Cell::Used { generation, value } => {
                    w.put_u8(1);
                    w.put_u32(*generation);
                    crate::codec::encode_value(w, value);
                }
            }
        }
        w.put_u32(self.free.len() as u32);
        for idx in &self.free {
            w.put_u32(*idx);
        }
    }

    /// Decode a heap previously written by [`Heap::encode`]. Structural
    /// invariants are re-checked (free-list entries must name free,
    /// in-range slots), so a corrupt buffer yields a typed error instead
    /// of a heap that panics later.
    pub fn decode(
        r: &mut crate::codec::ByteReader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let total = r.get_usize("heap cell count")?;
        if total.saturating_mul(5) > r.remaining() {
            return Err(CodecError::Truncated {
                context: "heap cells",
            });
        }
        let mut heap = Heap::new();
        let mut free_cells = 0usize;
        for i in 0..total {
            if i.is_multiple_of(CHUNK_CELLS) {
                heap.chunks.push(Chunk::new());
            }
            let chunk = heap.chunks.last_mut().expect("chunk just ensured");
            let cell = match r.get_u8("heap cell tag")? {
                0 => {
                    free_cells += 1;
                    Cell::Free {
                        generation: r.get_u32("free cell generation")?,
                    }
                }
                1 => Cell::Used {
                    generation: r.get_u32("used cell generation")?,
                    value: crate::codec::decode_value(r)?,
                },
                other => {
                    return Err(CodecError::Malformed(format!(
                        "unknown heap cell tag {}",
                        other
                    )))
                }
            };
            chunk.cells_mut().push(cell);
        }
        heap.total = total;
        heap.live = total - free_cells;
        let free_len = r.get_len(4, "heap free list")?;
        if free_len != free_cells {
            return Err(CodecError::Malformed(format!(
                "free list length {} does not match {} free cell(s)",
                free_len, free_cells
            )));
        }
        let mut seen = vec![false; total];
        for _ in 0..free_len {
            let idx = r.get_u32("free list entry")?;
            match heap.cell(idx) {
                Some(Cell::Free { .. }) => {}
                _ => {
                    return Err(CodecError::Malformed(format!(
                        "free list names slot {} which is not a free cell",
                        idx
                    )))
                }
            }
            if std::mem::replace(&mut seen[idx as usize], true) {
                return Err(CodecError::Malformed(format!(
                    "free list names slot {} twice",
                    idx
                )));
            }
            heap.free.push(idx);
        }
        Ok(heap)
    }

    /// Write a cell.
    pub fn get_mut(&mut self, r: HeapRef) -> RtResult<&mut Value> {
        // Check liveness first on the shared view so a dangling write does
        // not pay (or cause) a copy-on-write break.
        match self.cell(r.index) {
            Some(Cell::Used { generation, .. }) if *generation == r.generation => {}
            _ => return Err(RuntimeError::dangling("dereference of a dangling pointer")),
        }
        match self.cell_mut(r.index) {
            Some(Cell::Used { value, .. }) => Ok(value),
            _ => unreachable!("cell liveness checked above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(7));
        assert_eq!(h.get(r).unwrap(), &Value::Int(7));
        *h.get_mut(r).unwrap() = Value::Int(8);
        assert_eq!(h.get(r).unwrap(), &Value::Int(8));
        assert_eq!(h.live(), 1);
    }

    #[test]
    fn dispose_then_use_is_dangling() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(1));
        h.dispose(r).unwrap();
        assert!(h.get(r).is_err());
        assert!(h.get_mut(r).is_err());
        assert!(h.dispose(r).is_err());
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut h = Heap::new();
        let a = h.alloc(Value::Int(1));
        h.dispose(a).unwrap();
        let b = h.alloc(Value::Int(2));
        // Same slot, different generation: the old ref stays dead.
        assert!(h.get(a).is_err());
        assert_eq!(h.get(b).unwrap(), &Value::Int(2));
        assert_eq!(h.slots(), 1);
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(1));
        let snapshot = h.clone();
        *h.get_mut(r).unwrap() = Value::Int(99);
        h.dispose(r).unwrap();
        // The snapshot still sees the original value.
        assert_eq!(snapshot.get(r).unwrap(), &Value::Int(1));
        assert_eq!(snapshot.live(), 1);
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn clone_shares_chunks_until_written() {
        let mut h = Heap::new();
        let refs: Vec<_> = (0..CHUNK_CELLS as i64 * 3)
            .map(|i| h.alloc(Value::Int(i)))
            .collect();
        let snapshot = h.clone();
        assert_eq!(h.chunk_count(), 3);
        assert_eq!(h.shared_chunks(), 3, "a fresh clone shares everything");

        // One write breaks exactly the containing chunk's sharing.
        *h.get_mut(refs[0]).unwrap() = Value::Int(-1);
        assert_eq!(h.shared_chunks(), 2);
        assert_eq!(snapshot.shared_chunks(), 2);
        // The other cells of the broken chunk were copied, not lost.
        assert_eq!(h.get(refs[1]).unwrap(), &Value::Int(1));
        assert_eq!(snapshot.get(refs[0]).unwrap(), &Value::Int(0));
    }

    #[test]
    fn unshare_restores_the_eager_deep_clone() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(5));
        let mut snapshot = h.clone();
        assert_eq!(snapshot.shared_chunks(), 1);
        snapshot.unshare();
        assert_eq!(snapshot.shared_chunks(), 0);
        assert_eq!(h.shared_chunks(), 0);
        // Still logically identical.
        assert_eq!(snapshot.get(r).unwrap(), h.get(r).unwrap());
        assert_eq!(snapshot, h);
    }

    #[test]
    fn dangling_write_does_not_break_sharing() {
        let mut h = Heap::new();
        let r = h.alloc(Value::Int(1));
        h.dispose(r).unwrap();
        let _snapshot = h.clone();
        assert!(h.get_mut(r).is_err());
        assert_eq!(h.shared_chunks(), 1, "failed write must stay read-only");
    }

    #[test]
    fn approx_bytes_counts_cell_storage_once() {
        let mut h = Heap::new();
        let empty = h.approx_bytes();
        let r = h.alloc(Value::Array(vec![Value::Int(0); 4]));
        let with_cell = h.approx_bytes();
        // The cell contributes its slot plus the array's out-of-line
        // elements — not slot + (inline + elements), which double-counted
        // the inline portion.
        let expected = std::mem::size_of::<Cell>() + 4 * std::mem::size_of::<Value>();
        assert!(with_cell >= empty + expected);
        assert!(with_cell < empty + expected + 2 * std::mem::size_of::<Cell>());
        h.dispose(r).unwrap();
    }

    #[test]
    fn hash_and_eq_follow_content_not_sharing() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = Heap::new();
        h.alloc(Value::Int(3));
        let mut shared = h.clone();
        let mut deep = h.clone();
        deep.unshare();
        let digest = |heap: &Heap| {
            let mut s = DefaultHasher::new();
            heap.hash(&mut s);
            s.finish()
        };
        assert_eq!(digest(&h), digest(&shared));
        assert_eq!(digest(&h), digest(&deep));
        assert_eq!(shared, deep);
        // Diverge one and the digests diverge too.
        shared.alloc(Value::Int(4));
        assert_ne!(digest(&h), digest(&shared));
        assert_ne!(shared, deep);
    }
}
