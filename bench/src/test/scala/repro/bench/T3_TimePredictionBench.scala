package repro.bench

import repro.core.PpmKind

/** T3 — Figures 4/9 + §5.2: E(n) prediction accuracy of AE_PL/AE_AL vs
  * Sparklens under 10×5-fold cross-validation on SF100.
  */
class T3_TimePredictionBench extends BenchSpec {

  test("T3: prediction errors follow the paper's structure") {
    val r = BenchHarness.tables.t3
    BenchHarness.report("T3_TimePrediction", BenchHarness.tables.report("T3"))

    def testByN(name: String) =
      r.test.find(_.name == name).get.byN.map { case (n, m, _) => n -> m }.toMap

    for (name <- Seq("S", "AE_PL", "AE_AL")) {
      val e = testByN(name)
      // Paper: errors largest at small n, smallest at intermediate n.
      assert(e(1) > e(8), s"$name: E(1)=${e(1)} should exceed E(8)=${e(8)}")
      e.values.foreach(v => assert(!v.isNaN && v >= 0.0))
    }
    // Models track Sparklens closely (paper gaps: 0.079 / 0.094).
    assert(r.meanAbsGapToSparklens(PpmKind.PowerLaw) < 0.35)
    assert(r.meanAbsGapToSparklens(PpmKind.Amdahl) < 0.35)
  }
}
