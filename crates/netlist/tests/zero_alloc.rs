//! The readers allocate per table, not per token: `read_iccad15` performs a
//! small fixed number of allocations (the arrays, their growth doublings, the
//! class templates) whatever the design size, cloning a design is a handful
//! of array copies, and writing positions back allocates nothing.
//!
//! One test only: the counter is process-wide, and the harness runs the
//! tests of a file on parallel threads.

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::iccad::{read_iccad15, write_iccad15};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call unchanged to the system allocator; the counter
// is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn reading_allocates_per_table_not_per_token() {
    /// Arrays and index tables of the netlist and the DEF records, the three
    /// file buffers, ≈ 17 class templates of ≈ 5 allocations, and the growth
    /// doublings of the port lists and the row table: 201 and 210 measured.
    /// The parent performed ≈ 7.7 allocations per cell (≈ 230 000 on the
    /// larger design).
    const READ_BUDGET: u64 = 256;
    let dir = std::env::temp_dir().join(format!("dtp_netlist_zero_alloc_{}", std::process::id()));
    for cells in [3_000, 30_000] {
        let name = format!("za{cells}");
        let design = generate(&GeneratorConfig::named(name.clone(), cells)).expect("generator");
        write_iccad15(&design, &dir).expect("bundle written");
        let (back, reads) = allocations(|| read_iccad15(&dir.join(&name)).expect("bundle reads"));
        assert_eq!(back.netlist.num_cells(), design.netlist.num_cells());
        assert!(reads <= READ_BUDGET, "{cells} cells: read_iccad15 made {reads} allocations");

        let (copy, clones) = allocations(|| back.clone());
        assert!(clones <= 32, "{cells} cells: Design::clone made {clones} allocations");

        let (xs, ys) = back.netlist.positions();
        let mut copy = copy;
        let ((), writes) = allocations(|| copy.netlist.set_positions(&xs, &ys));
        assert_eq!(writes, 0, "set_positions allocated");
    }
    std::fs::remove_dir_all(&dir).ok();
}
