//! Quickstart: build a tiny circuit by hand, place it, and read its timing —
//! the "Figure 1" tour of the library (netlist → STA → slacks).
//!
//! Run with: `cargo run -p dtp-core --example quickstart`

use dtp_liberty::synth::synthetic_pdk;
use dtp_netlist::{stdcells, Design, NetlistBuilder, Rect, Sdc};
use dtp_rsmt::build_forest;
use dtp_sta::{AnalysisScratch, Timer, TimingReport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A tiny design: in -> NAND2 -> INV -> DFF -> out, with a clock.
    let mut b = NetlistBuilder::new();
    let nand = b.add_class(stdcells::find("NAND2_X1").expect("stdcell exists").to_class());
    let inv = b.add_class(stdcells::find("INV_X1").expect("stdcell exists").to_class());
    let dff = b.add_class(stdcells::find("DFF_X1").expect("stdcell exists").to_class());

    let a = b.add_input_port("a")?;
    let c = b.add_input_port("c")?;
    let clk = b.add_input_port("clk")?;
    let out = b.add_output_port("out")?;
    let g1 = b.add_cell("g1", nand)?;
    let g2 = b.add_cell("g2", inv)?;
    let ff = b.add_cell("ff", dff)?;

    let na = b.add_net("na")?;
    let nc = b.add_net("nc")?;
    let n1 = b.add_net("n1")?;
    let n2 = b.add_net("n2")?;
    let nq = b.add_net("nq")?;
    let nck = b.add_net("nck")?;
    b.connect_port(na, a)?;
    b.connect_by_name(na, g1, "A")?;
    b.connect_port(nc, c)?;
    b.connect_by_name(nc, g1, "B")?;
    b.connect_by_name(n1, g1, "Y")?;
    b.connect_by_name(n1, g2, "A")?;
    b.connect_by_name(n2, g2, "Y")?;
    b.connect_by_name(n2, ff, "D")?;
    b.connect_by_name(nq, ff, "Q")?;
    b.connect_port(nq, out)?;
    b.connect_port(nck, clk)?;
    b.connect_by_name(nck, ff, "CK")?;

    // 2. Place the cells by hand in a 40x10 um core.
    b.place(a, 0.0, 2.0);
    b.place(c, 0.0, 6.0);
    b.place(clk, 0.0, 9.0);
    b.place(g1, 8.0, 2.0);
    b.place(g2, 20.0, 4.0);
    b.place(ff, 30.0, 2.0);
    b.place(out, 40.0, 4.0);
    let netlist = b.finish()?;

    let design = Design::new(
        "quickstart",
        netlist,
        Rect::new(0.0, 0.0, 40.0, 10.0),
        stdcells::ROW_HEIGHT,
        stdcells::SITE_WIDTH,
        Sdc::with_period(120.0),
    );

    // 3. Timing: Steiner trees -> Elmore -> NLDM propagation -> slacks.
    let lib = synthetic_pdk();
    let timer = Timer::new(&design, &lib)?;
    let forest = build_forest(&design.netlist);
    let analysis = timer.analyze_into(&design.netlist, &forest, &mut AnalysisScratch::new());

    println!("design: {} (clock period {} ps)", design.name, design.constraints.clock_period);
    println!("WNS = {:+.2} ps, TNS = {:+.2} ps", analysis.wns(), analysis.tns());
    println!();
    println!("{}", TimingReport::new(&timer, &design.netlist, &analysis));

    // 4. Stretch a wire and watch slack degrade — the effect timing-driven
    //    placement optimizes away.
    let mut stretched = design.clone();
    let g2_id = stretched.netlist.find_cell("g2").expect("g2 exists");
    stretched.netlist.set_cell_pos(g2_id, dtp_netlist::Point::new(20.0, 8.0));
    let forest2 = build_forest(&stretched.netlist);
    let analysis2 = timer.analyze_into(&stretched.netlist, &forest2, &mut AnalysisScratch::new());
    println!(
        "after moving g2 away: WNS {:+.2} -> {:+.2} ps",
        analysis.wns(),
        analysis2.wns()
    );
    Ok(())
}
