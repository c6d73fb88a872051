package repro.bench

/** T5 — Figure 11 + §5.3: elbow-point distribution over all queries. */
class T5_ElbowBench extends BenchSpec {

  test("T5: elbow distribution reproduces the paper's structure") {
    val r = BenchHarness.tables.t5
    BenchHarness.report("T5_Elbow", BenchHarness.tables.report("T5"))

    // Analytic invariant: AE_AL curves always elbow at exactly L = 7.
    val alLs = r.histogram.keys.collect { case ("AE_AL", l) => l }.toSet
    assert(alLs == Set(7), s"AE_AL elbows: $alLs")
    // Sparklens and Actual elbows concentrate in a narrow low-n band
    // (paper: nearly all at 8).
    val sLs = r.histogram.collect { case (("S", l), w) => (l, w) }
    val sMode = sLs.maxBy(_._2)._1
    assert(sMode >= 5 && sMode <= 12, s"Sparklens modal elbow $sMode outside paper band")
    // AE_PL elbows live in a small band around the actual/sparklens values.
    val plLs = r.histogram.keys.collect { case ("AE_PL", l) => l }
    assert(plLs.forall(l => l >= 2 && l <= 16), s"AE_PL elbows: $plLs")
  }
}
