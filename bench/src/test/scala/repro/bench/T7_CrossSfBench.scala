package repro.bench

import repro.exp.CrossSfExperiment

/** T7 — Figure 14 + §5.5: generalization to a different input data size. */
class T7_CrossSfBench extends BenchSpec {

  test("T7: models trained on one SF predict the other (both directions)") {
    val (to10, to100) = BenchHarness.tables.t7
    BenchHarness.report("T7_CrossSf", BenchHarness.tables.report("T7"))

    for (r <- Seq(to10, to100); (name, byN) <- r.series; (n, e) <- byN) {
      assert(!e.isNaN && e >= 0.0, s"${r.testLabel}/$name E($n)=$e")
    }
    // The Sparklens estimate from the *test* SF's own profile must beat the
    // estimate carried over from the other SF at n=16 (the paper's point:
    // Sparklens cannot account for data-size changes; the models partially can).
    def at(r: CrossSfExperiment.Result, name: String, n: Int): Double =
      r.series.find(_._1 == name).get._2.find(_._1 == n).get._2
    assert(at(to100, "S_SF100", 16) < at(to100, "S_SF10", 16),
      "same-SF Sparklens should beat cross-SF Sparklens on SF100")
  }
}
