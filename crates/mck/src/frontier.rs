//! BFS frontier with optional disk spill.
//!
//! Layer-by-layer BFS at 10⁸ states has two resident costs: the visited set
//! and the frontier (the unexpanded wavefront, which for wide models can be
//! a large fraction of a whole layer). The store module shrinks the first;
//! this module bounds the second. When a spill segment size is configured
//! ([`Checker::spill`](crate::Checker::spill)) the frontier keeps at most
//! two segments in memory (the head being consumed and the tail being
//! filled); everything in between lives in temporary segment files and
//! streams back in FIFO order. BFS depth then scales with disk, not RSS.
//!
//! Spill format (little-endian, per queued node):
//!
//! ```text
//! depth: u32 | ebits: u32 | node: u32 | ncomps: u16 | ncomps × (len: u32, bytes)
//! ```
//!
//! The component bytes are the model's own [`Model::components`] split —
//! the same representation the collapse store interns — and are restored
//! with [`Model::reassemble`]. Spilling therefore requires a componentized
//! model; for models without a component split the spill setting is ignored
//! and the frontier stays fully in memory. The frontier remembers how many
//! nodes it wrote to each segment, and a segment that ends early panics
//! rather than dropping nodes from the search.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::model::Model;
use crate::store::pack_components;

/// One queued BFS node. `node` indexes the provenance arena when path
/// tracking is on (`u32::MAX` when off); `ebits` is the eventually-bits
/// product mask.
pub(crate) struct QItem<M: Model> {
    pub(crate) state: M::State,
    pub(crate) ebits: u32,
    pub(crate) node: u32,
    pub(crate) depth: u32,
}

/// Monotonic counter so concurrent checkers in one process never collide on
/// segment file names.
static SEG_SEQ: AtomicU64 = AtomicU64::new(0);

/// FIFO frontier: fully in-memory, or spilling full segments to disk.
pub(crate) enum Frontier<M: Model> {
    /// Plain in-memory queue (the default).
    Mem(VecDeque<QItem<M>>),
    /// Bounded-memory queue with disk segments between head and tail.
    Spill(SpillFrontier<M>),
}

impl<M: Model> Frontier<M> {
    pub(crate) fn in_memory() -> Self {
        Frontier::Mem(VecDeque::new())
    }

    /// A spilling frontier holding at most `segment` nodes in each of its
    /// two resident segments. Files go to `dir`.
    pub(crate) fn spilling(segment: usize, dir: PathBuf) -> Self {
        Frontier::Spill(SpillFrontier {
            head: VecDeque::new(),
            tail: Vec::new(),
            segs: VecDeque::new(),
            segment: segment.max(1),
            dir,
            len: 0,
            segments_written: 0,
            spilled_nodes: 0,
            spilled_bytes: 0,
            comps: Vec::new(),
            buf: Vec::new(),
        })
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Frontier::Mem(q) => q.len(),
            Frontier::Spill(s) => s.len,
        }
    }

    pub(crate) fn push(&mut self, model: &M, item: QItem<M>) {
        match self {
            Frontier::Mem(q) => q.push_back(item),
            Frontier::Spill(s) => s.push(model, item),
        }
    }

    pub(crate) fn pop(&mut self, model: &M) -> Option<QItem<M>> {
        match self {
            Frontier::Mem(q) => q.pop_front(),
            Frontier::Spill(s) => s.pop(model),
        }
    }

    /// (segments written, nodes spilled, bytes spilled) over the whole run.
    pub(crate) fn spill_stats(&self) -> (u64, u64, u64) {
        match self {
            Frontier::Mem(_) => (0, 0, 0),
            Frontier::Spill(s) => (s.segments_written, s.spilled_nodes, s.spilled_bytes),
        }
    }
}

/// The spilling variant: `head` is being consumed, `tail` is being filled,
/// and `segs` are full segments parked on disk between them, each with the
/// number of nodes written to it.
pub(crate) struct SpillFrontier<M: Model> {
    head: VecDeque<QItem<M>>,
    tail: Vec<QItem<M>>,
    segs: VecDeque<(PathBuf, usize)>,
    segment: usize,
    dir: PathBuf,
    len: usize,
    segments_written: u64,
    spilled_nodes: u64,
    spilled_bytes: u64,
    /// Component buffers, reused for every node written or read.
    comps: Vec<Vec<u8>>,
    buf: Vec<u8>,
}

impl<M: Model> SpillFrontier<M> {
    fn push(&mut self, model: &M, item: QItem<M>) {
        self.len += 1;
        // While nothing has spilled yet the head doubles as the only
        // segment, so short runs never touch disk.
        if self.segs.is_empty() && self.tail.is_empty() && self.head.len() < self.segment {
            self.head.push_back(item);
            return;
        }
        self.tail.push(item);
        if self.tail.len() >= self.segment {
            self.spill_tail(model);
        }
    }

    fn pop(&mut self, model: &M) -> Option<QItem<M>> {
        if self.head.is_empty() {
            if let Some((path, nodes)) = self.segs.pop_front() {
                self.head = self.read_segment(model, &path, nodes);
            } else if !self.tail.is_empty() {
                self.head.extend(self.tail.drain(..));
            }
        }
        let item = self.head.pop_front();
        if item.is_some() {
            self.len -= 1;
        }
        item
    }

    fn spill_tail(&mut self, model: &M) {
        let path = self.dir.join(format!(
            "mck-frontier-{}-{}.seg",
            std::process::id(),
            SEG_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::create(&path).expect("frontier spill: create segment file");
        let mut w = BufWriter::new(file);
        let mut written = 0u64;
        let nodes = self.tail.len();
        for item in self.tail.drain(..) {
            assert!(
                model.components(&item.state, &mut self.comps),
                "spilling frontier requires a componentized model"
            );
            pack_components(&self.comps, &mut self.buf);
            w.write_all(&item.depth.to_le_bytes())
                .expect("frontier spill: write");
            w.write_all(&item.ebits.to_le_bytes())
                .expect("frontier spill: write");
            w.write_all(&item.node.to_le_bytes())
                .expect("frontier spill: write");
            w.write_all(&(self.comps.len() as u16).to_le_bytes())
                .expect("frontier spill: write");
            w.write_all(&self.buf).expect("frontier spill: write");
            written += 14 + self.buf.len() as u64;
        }
        w.flush().expect("frontier spill: flush");
        self.spilled_nodes += nodes as u64;
        self.spilled_bytes += written;
        self.segments_written += 1;
        self.segs.push_back((path, nodes));
    }

    /// Read back the `nodes` nodes written to the segment at `path`, then
    /// delete it.
    fn read_segment(&mut self, model: &M, path: &Path, nodes: usize) -> VecDeque<QItem<M>> {
        let file = File::open(path).expect("frontier spill: open segment file");
        let mut r = BufReader::new(file);
        let mut out = VecDeque::with_capacity(nodes);
        for read in 0..nodes {
            let mut hdr = [0u8; 14];
            if let Err(e) = r.read_exact(&mut hdr) {
                panic!(
                    "frontier spill: segment {} ended after {read} of {nodes} nodes: {e}",
                    path.display()
                );
            }
            let depth = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
            let ebits = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
            let node = u32::from_le_bytes(hdr[8..12].try_into().unwrap());
            let ncomps = u16::from_le_bytes(hdr[12..14].try_into().unwrap()) as usize;
            self.comps.resize_with(ncomps, Vec::new);
            for comp in &mut self.comps {
                let mut lenb = [0u8; 4];
                r.read_exact(&mut lenb)
                    .expect("frontier spill: read component length");
                comp.resize(u32::from_le_bytes(lenb) as usize, 0);
                r.read_exact(comp).expect("frontier spill: read component");
            }
            let state = model
                .reassemble(&self.comps)
                .expect("frontier spill: reassemble state from its own components");
            out.push_back(QItem {
                state,
                ebits,
                node,
                depth,
            });
        }
        let _ = std::fs::remove_file(path);
        out
    }
}

impl<M: Model> Drop for SpillFrontier<M> {
    fn drop(&mut self) {
        for (path, _) in self.segs.drain(..) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::testmodels::Grid;

    /// Removes the test's spill directory, also while a panic unwinds.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    #[should_panic(expected = "ended after 3 of 4 nodes")]
    fn a_truncated_segment_panics_instead_of_losing_nodes() {
        let dir = TempDir(std::env::temp_dir().join(format!(
            "mck-short-segment-{}-{}",
            std::process::id(),
            SEG_SEQ.fetch_add(1, Ordering::Relaxed)
        )));
        std::fs::create_dir_all(&dir.0).expect("create the spill directory");
        let model = Grid {
            side: 5,
            forbid: None,
            watch_y: None,
        };
        let mut frontier: Frontier<Grid> = Frontier::spilling(4, dir.0.clone());
        for i in 0..20u8 {
            let item = QItem {
                state: (i % 5, i / 5),
                ebits: 0,
                node: u32::MAX,
                depth: 0,
            };
            frontier.push(&model, item);
        }
        let Frontier::Spill(s) = &frontier else {
            unreachable!("spilling frontier")
        };
        assert_eq!(
            s.segs.len(),
            4,
            "the head holds 4 nodes, 4 segments hold 16"
        );
        // Cut the first segment by one 24-byte record (14-byte header plus
        // two 1-byte components with their 4-byte lengths).
        let first = &s.segs[0].0;
        let len = std::fs::metadata(first).expect("segment exists").len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(first)
            .expect("open segment");
        file.set_len(len - 24).expect("truncate segment");
        while frontier.pop(&model).is_some() {}
    }
}
