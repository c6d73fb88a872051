package repro.bench

/** T6 — Figures 12/13 + §5.4: Rule (AutoExecutor) vs DA(1,48) vs SA(48). */
class T6_AllocationPolicyBench extends BenchSpec {

  test("T6: AutoExecutor saves executors and occupancy vs DA and SA") {
    val r = BenchHarness.tables.t6
    BenchHarness.report("T6_AllocationPolicy", BenchHarness.tables.report("T6"))

    val (daN, daAuc, _) = r.daRatios
    val (saN, saAuc, _) = r.sa48Ratios
    // Paper: DA/Rule n 2.6, AUC 2.1; SA/Rule n 3.5, AUC 4.9. Shape: both
    // ratios > 1, SA ratios exceed DA ratios.
    assert(daAuc > 1.0, s"Rule should beat DA on AUC (ratio $daAuc)")
    assert(saAuc > daAuc, s"SA should waste more than DA: $saAuc vs $daAuc")
    assert(saN >= daN, s"SA peak-n ratio should be at least DA's: $saN vs $daN")
    // Headline: substantial AUC savings (paper: 48% vs DA, 73% vs SA).
    assert(r.aucSavingVsDa > 0.15, s"AUC saving vs DA only ${r.aucSavingVsDa}")
    assert(r.aucSavingVsSa48 > 0.40, s"AUC saving vs SA(48) only ${r.aucSavingVsSa48}")
    // Rule's slowdown stays modest (paper: 4% vs DA).
    assert(r.slowdownVsDa < 0.30, s"Rule ${r.slowdownVsDa * 100}%% slower than DA")
  }
}
