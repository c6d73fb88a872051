package repro.bench

import repro.exp.SelectionExperiment

/** T4 — §5.3 / Figure 10: limited-slowdown configuration selection. */
class T4_LimitedSlowdownBench extends BenchSpec {

  test("T4: limited-slowdown selection reproduces the paper's structure") {
    val r = BenchHarness.tables.t4
    BenchHarness.report("T4_LimitedSlowdown", BenchHarness.tables.report("T4"))

    // AE_AL has no saturation term, so H=1 always selects the max n = 48
    // (paper §5.3: "AE_AL always selects the maximum value of n").
    assert(r.cells((1.0, "AE_AL")).meanN == 48.0)
    // Actual selection at H=1 incurs no slowdown by construction.
    assert(math.abs(r.cells((1.0, "Actual")).meanSlowdown - 1.0) < 1e-9)
    // Model selections at H=1 have small additional slowdown (paper ~5-9%).
    assert(r.cells((1.0, "AE_PL")).meanSlowdown < 1.5)
    // Larger H monotonically reduces the selected n for every method.
    for (m <- SelectionExperiment.Methods) {
      val ns = SelectionExperiment.HValues.map(h => r.cells((h, m)).meanN)
      ns.zip(ns.tail).foreach { case (a, b) => assert(b <= a + 1e-9, s"$m: $ns") }
    }
    // Speedups over small static allocations are substantial and ordered
    // (paper: n=2 > n=3 > n=8).
    val s2 = r.speedupVsStatic((2, "AE_PL"))
    val s3 = r.speedupVsStatic((3, "AE_PL"))
    val s8 = r.speedupVsStatic((8, "AE_PL"))
    assert(s2 > s3 && s3 > s8, s"speedups not ordered: $s2, $s3, $s8")
    assert(s3 > 0.0, s"no speedup over static n=3: $s3")
  }
}
