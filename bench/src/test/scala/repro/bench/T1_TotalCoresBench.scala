package repro.bench

/** T1 — paper Table 1 + Figure 5c (§3.3): impact of total cores `k` vs its
  * factorization into executors × cores-per-executor.
  */
class T1_TotalCoresBench extends BenchSpec {

  test("T1: total-cores experiment reproduces the paper's error structure") {
    val r = BenchHarness.tables.t1
    BenchHarness.report("T1_TotalCores", BenchHarness.tables.report("T1"))

    // Structural expectations from the paper: errors are small on average
    // and concentrated near zero (paper: 8.8% mean abs, 68.4% within ±10%,
    // 92.9% within ±20%).
    assert(r.relativeErrors.size == 6 * BenchHarness.tables.sf100.queries.size)
    assert(r.meanAbsError < 0.25, s"mean abs error ${r.meanAbsError} far above paper's 8.8%")
    assert(r.within20Pct > 0.6, s"only ${r.within20Pct} within ±20% (paper: 92.9%)")
    assert(r.within10Pct <= r.within20Pct)
  }
}
